"""mediankit: median algebras, median metric spaces, spaces with walls,
cubulation into median graphs / cube complexes, negative-definite and
hypermetric certificates with explicit embeddings, group-action
displacement identities, and circumcenters in euclidean models.
"""

from .algebra import (AXIOMS, AxiomReport, FiniteMedianAlgebra, Halfspace,
                      IntervalStructure, is_median_morphism, validate_axioms)
from .convexity import (CircumcenterResult, PointCloud, affine_defect,
                        check_cn_inequality, circumcenter, is_affine,
                        uniform_convexity_modulus)
from .embedding import (GnsEmbedding, HellyReport, HypermetricReport,
                        L1Embedding, NegDefCertificate, certify_hypermetric,
                        certify_negative_definite, check_helly, gns_embed,
                        l1_embed, retraction_decomposition)
from .errors import (InputError, InternalCheckError, MedianKitError,
                     NotMedianError, ResourceLimitError, UnsupportedNormError)
from .graphs import (CubeComplex, MedianGraphCert, SimpleGraph,
                     certify_median_graph, fill_cubes)
from .metric import (Classification, FiniteMetric, MedianMetric,
                     check_colinear_lemma, check_median_lipschitz, classify,
                     find_rectangles, product)
from .walls import (CubulationResult, WallSpace, cubulate, extend_morphism,
                    graph_wall_space, is_wall_morphism)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
