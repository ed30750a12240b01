"""Spaces with walls, the wall metric, and the cubulation into a median
graph.

A wall is a two-part partition of the point set; the trivial wall
{empty, X} is always present.  A wall space holds its ids as one record
(:class:`intervals.PointIndex`; a median graph's wall space, the
graph's) and its nontrivial walls as the one wall record
(:class:`intervals.WallCodes`): point i's code, its sigma bits, has bit
k set iff it lies off wall k's side holding the first point, and the
wall metric counts the bits where two codes differ.  The cubulation's
vertices are the consistent orientations (a chosen side per wall, any
two chosen sides meeting), enumerated one wall at a time as the
solutions of the points' 2-clauses (``intervals._clauses``, as the
median-closure test reads them); edges join orientations differing on
exactly one wall.  Every vertex is reached from the principal
orientations sigma_x by single-wall flips, as the construction
guarantees, and the cubulation's certificate builds the same record from
the vertex bits.

A point map between wall spaces matters only through the walls it pulls
back.  One pullback (:func:`_pullback`) reads, for every wall of the
target, which wall of the source its preimage is a side of, if any: wall
morphisms, their extension to the cubulations, and the generator check
of a wall action (in ``actions``) all use it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import intervals
from .algebra import total_image
from .errors import InputError, ResourceLimitError
from .graphs import MedianGraphCert, SimpleGraph

Point = Hashable

DEFAULT_WALL_CAP = 24
DEFAULT_VERTEX_CAP = 65536


class WallSpace(intervals.OnPoints):
    """Finite point set plus walls; any two points separated by >= 1 wall.

    The nontrivial walls are held as one wall record, ``codes``
    (:class:`intervals.WallCodes`), in the canonical order of their sides
    containing the first point; the trivial wall is always present and
    never stored explicitly.
    """

    def __init__(self, points: Sequence[Point],
                 walls: Iterable[tuple[Iterable[Point], Iterable[Point]]],
                 *, warn_missing_trivial: bool = False):
        self._ids = intervals.PointIndex.checked(points, "a wall space")
        pts = self.points
        n = len(pts)
        full = (1 << n) - 1
        offs: set[int] = set()          # per wall, its side off point 0
        trivial_given = False
        for a, b in walls:
            ma = self._mask(a)
            mb = self._mask(b)
            if ma & mb or ma | mb != full:
                raise InputError(
                    f"wall ({sorted(map(repr, a))},{sorted(map(repr, b))}) "
                    "is not a two-part partition of the points")
            if ma == 0 or mb == 0:
                trivial_given = True
                continue
            offs.add(mb if ma & 1 else ma)
        if not trivial_given and warn_missing_trivial:
            warnings.warn("trivial wall absent from input; added automatically",
                          stacklevel=2)
        # one column per wall, 1 at the points off its side holding point 0
        self.codes = intervals.WallCodes(intervals.bit_rows(list(offs), n).T)
        sigma = self.codes.ints
        # two points are separated iff their sigma bits differ
        if len(set(sigma)) != n:
            groups: dict[int, list[int]] = {}
            for i, b in enumerate(sigma):
                groups.setdefault(b, []).append(i)
            # the first unseparated pair in combinations order
            i, j = min(g[:2] for g in groups.values() if len(g) > 1)
            raise InputError(
                f"points {pts[i]!r} and {pts[j]!r} are separated by no wall")

    def _mask(self, members: Iterable[Point]) -> int:
        m = 0
        index = self._ids.positions
        for p in members:
            try:
                m |= 1 << index[p]
            except (KeyError, TypeError):
                raise InputError(f"wall references unknown point {p!r}") from None
        return m

    @property
    def wall_count(self) -> int:
        """Number of nontrivial walls."""
        return self.codes.bits.shape[1]

    def wall_sides(self, k: int) -> tuple[frozenset, frozenset]:
        """(side containing the first point, other side) of nontrivial wall k."""
        side = self.codes.sides[k]
        full = (1 << len(self.points)) - 1
        return intervals.unmask(self.points, side), intervals.unmask(self.points, full ^ side)

    def sigma_bits(self, x: Point) -> int:
        """Orientation bitvector of sigma_x: bit k set iff x lies on the
        non-canonical side of wall k."""
        return self.codes.ints[self.index(x)]

    def wall_metric(self, x: Point, y: Point) -> int:
        """Number of separating walls: the bits where the orientations
        sigma_x and sigma_y differ, half the symmetric difference of the
        halfspace collections (``wall_metric_recount`` in the tests)."""
        return (self.sigma_bits(x) ^ self.sigma_bits(y)).bit_count()


def _pullback(w1: WallSpace, w2: WallSpace, image: Sequence[int]
              ) -> list[tuple[int | None, int] | None]:
    """The walls of w2 pulled back along the point map sending point i of
    w1 to point ``image[i]`` of w2.  Entry k2 is (k1, flip) when the
    preimage of wall k2's non-canonical side is a side of wall k1 of w1,
    (None, flip) when it is empty or all of w1, and None when it is not a
    halfspace.  The flip bit is the preimage's bit at point 0, so it is 1
    exactly when the preimage is wall k1's canonical side (which holds
    point 0) or all of w1.  The preimages are the columns of w2's codes
    at the images, read back in one pass."""
    pres = intervals.row_ints(w2.codes.bits[list(image)].T)
    full = (1 << len(w1.points)) - 1
    wall: dict[int, int | None] = {0: None, full: None}
    for k1, side in enumerate(w1.codes.sides):
        wall[side] = wall[full ^ side] = k1
    return [(wall[pre], pre & 1) if pre in wall else None for pre in pres]


def is_wall_morphism(f: Mapping[Point, Point], w1: WallSpace, w2: WallSpace) -> bool:
    """True iff the preimage of every halfspace of w2 is a halfspace of w1
    (:func:`_pullback`).

    The trivial wall's sides make constant maps morphisms.
    """
    return None not in _pullback(w1, w2, total_image(f, w1, w2))


@dataclass
class CubulationResult:
    graph: SimpleGraph
    embedding: dict[Point, Hashable]          # point -> vertex name
    vertex_bits: dict[Hashable, int]          # vertex name -> orientation bits
    wall_correspondence: dict[int, int]       # input wall k -> graph wall index
    cert: MedianGraphCert
    checks: dict[str, bool | str] = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return len(self.graph.vertices)


def _orientation_array(values, width: int) -> np.ndarray:
    """Orientation bitvectors of ``width`` bits as one array: uint64 up
    to 64 walls, Python ints (an object array) beyond."""
    return np.array(values, dtype=np.uint64 if width <= 64 else object)


def _clause_tables(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2-clause tables (force, value) of the points' codes, (2, W)
    orientations: for side s of wall k, the walls j < k one of whose sides
    misses it, and the side each must then be on (bit j set for side 1)."""
    W = codes.shape[1]
    return tuple(_orientation_array(intervals.word_ints(t.reshape(len(t), 2 * W).T), W).reshape(2, W)
                 for t in intervals._clauses(*intervals._clause_inputs(codes), 0, W))


def cubulate(w: WallSpace, *, max_walls: int = DEFAULT_WALL_CAP,
             max_vertices: int = DEFAULT_VERTEX_CAP) -> CubulationResult:
    """Build the canonical median graph of a wall space.

    Vertices are the consistent orientations (any two chosen sides
    meet), held as one array (:func:`_orientation_array`); edges join
    orientations differing on one wall.  Side s of wall k meets every
    side that an orientation b chooses below wall k iff ``b & force[s, k]
    == value[s, k]`` (:func:`_clause_tables`).  The vertex set is built
    one wall at a time, with no search: the orientations of walls 0..k-1,
    ascending, are each extended by every side of wall k that passes this
    test, side 0 first, so the array stays ascending, in four numpy calls
    per wall.  The sides' clauses are closed under resolution (a side
    inside a side inside the complement of a third lies in that
    complement), so every partial orientation extends to a vertex, no
    step holds more than |V| orientations, and the vertex cap is checked
    at each step.  The edges are found by one sorted search for every
    vertex with one more bit set.  One 0/1 matrix of the vertices, read
    by the ``intervals`` codecs, gives their names and the certificate.

    The report's ``checks`` are what the construction guarantees, and
    nothing is re-derived (``cubulate_oracle`` and the connectivity and
    closure oracles in the tests check them).  The vertex set is the
    image's median closure: the expansion keeps exactly the orientations
    whose chosen sides meet pairwise, and since every side is nonempty
    those are the solutions of the image's 2-clauses.  A point's sigma
    chooses the sides that hold the point, so it is consistent, a vertex,
    and the embedding is injective (the constructor rejects points
    separated by no wall) and isometric for the wall metric (sigma bits
    differ exactly on the separating walls).  The graph is connected: a
    vertex b other than vertex 0 chooses some sides missing point 0;
    flip the wall of one that is minimal under inclusion among them.  The
    result is consistent: every other chosen side holds point 0, or misses
    it and so is not inside the flipped side (distinct walls have distinct
    sides), and either way it meets the flipped side's complement.  So b
    has a neighbour one bit nearer vertex 0, and by induction on that
    distance every vertex is joined to vertex 0.  The graph's edges are
    its Hamming-1 pairs and its vertex set is majority-closed, so by the
    lemma at :class:`MedianGraphCert` path distance equals Hamming
    distance and the orientation bits are its walls: the certificate is
    built from them, and wall k of the input is certificate wall
    ``wall_correspondence[k]``.
    """
    W = w.wall_count
    if max_walls < 0 or max_vertices < 0:
        raise InputError(f"max_walls and max_vertices must be >= 0, "
                         f"got {max_walls} and {max_vertices}")
    if W > max_walls:
        raise ResourceLimitError(
            f"cubulation capped at {max_walls} nontrivial walls, got {W}",
            cap=max_walls)
    ends = _orientation_array([[0] * W, [1 << k for k in range(W)]], W)   # [s, k]: wall k's bit on side s
    walls = ends[1]
    sigma = _orientation_array(w.codes.ints, W)
    force, value = _clause_tables(w.codes.bits)

    # the consistent orientations of walls 0..k-1, ascending, extended by
    # each side of wall k that meets their chosen sides, side 0 first; the
    # image alone (distinct sigmas, one per point) never trips the cap
    limit = max(max_vertices, len(sigma))
    vertices = _orientation_array([0], W)
    for f, v, s in zip(*(t.T[:, :, None] for t in (force, value, ends))):
        vertices = (vertices | s)[(vertices & f) == v]
        if len(vertices) > limit:
            raise ResourceLimitError(
                f"cubulation exceeded {max_vertices} vertices", cap=max_vertices)

    ordered = vertices.tolist()
    # vertex names: the binary numerals, read off the bit matrix
    width = max(W, 1)
    bits = (intervals.bit_rows(ordered, width) if vertices.dtype == object
            else intervals.unpack_bits(vertices[:, None], width))
    names = intervals.digit_strings(bits[:, ::-1])
    bits = bits[:, :W]
    # edges (i, j), i < j: vertex j is vertex i with one more bit set
    up = vertices[:, None] | walls
    pos = np.searchsorted(vertices, up)
    found = vertices[np.minimum(pos, len(vertices) - 1)] == up
    src, k = np.nonzero(found & ~bits.view(bool))
    graph = SimpleGraph._trusted(names, src, pos[src, k])
    cert = MedianGraphCert(graph, bits)
    corr = dict(sorted((k, widx) for widx, k in enumerate(cert.wall_bits)))
    # each value holds by construction (see the docstring)
    checks: dict[str, bool | str] = {
        "embedding_injective": True, "vertices_consistent": True,
        "embedding_isometric": True, "median_closure": "checked",
        "distance_vs_hamming": "exhaustive", "wall_bijection": "certified"}

    at = np.searchsorted(vertices, sigma)
    embedding = dict(zip(w.points, map(names.__getitem__, at.tolist())))
    vertex_bits = dict(zip(names, ordered))
    return CubulationResult(graph, embedding, vertex_bits, corr, cert, checks)


def graph_wall_space(cert: MedianGraphCert) -> WallSpace:
    """A median graph as a space with walls (its edge halfspaces), holding
    the graph's id record and the certificate's wall record, which is the
    one the constructor builds."""
    out = WallSpace.__new__(WallSpace)
    out._ids = cert.graph._ids
    out.codes = cert.codes
    return out


def extend_morphism(f: Mapping[Point, Point], w1: WallSpace, w2: WallSpace,
                    cub1: CubulationResult | None = None) -> dict:
    """Extend a wall morphism to the unique median morphism between the
    cubulations, as a vertex map (need not be a graph morphism).  Without
    ``cub1``, w1 is cubulated under the vertex cap alone.

    Wall k2 of w2 is read off the pullback (:func:`_pullback`): bit k2 of
    a vertex's image is bit k1 of the vertex XOR the flip bit, or the flip
    bit alone when the pullback is constant.  At the vertex of a point p
    that is the sigma of f(p), so the extension agrees with the point map.
    A median morphism maps consistent orientations to consistent ones, so
    every image is a vertex of w2's cubulation (``extend_morphism_oracle``
    in the tests checks both).  The images are named as ``cubulate`` names
    vertices, by the ``intervals`` bit codecs.
    """
    rules = _pullback(w1, w2, total_image(f, w1, w2))
    if None in rules:
        raise InputError("map is not a wall morphism")
    cub1 = cub1 or cubulate(w1, max_walls=w1.wall_count)
    flips = sum(flip << k2 for k2, (_, flip) in enumerate(rules))
    moved = [(k1, k2) for k2, (k1, _) in enumerate(rules) if k1 is not None]
    images = [flips ^ sum((bits >> k1 & 1) << k2 for k1, k2 in moved)
              for bits in cub1.vertex_bits.values()]
    names = intervals.digit_strings(intervals.bit_rows(images, max(w2.wall_count, 1))[:, ::-1])
    return dict(zip(cub1.vertex_bits, names))
