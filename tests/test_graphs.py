import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (EagerCertificate, between_oracle, bfs_coordinates_oracle,
                      bfs_distance_check, bipartition, coordinate_int, fill_cubes_oracle,
                      graph_to_json, halfspace_list, majority_closure_check,
                      random_crossing_wall_space, simple_graph_oracle,
                      subsets_bruteforce_halfspaces)
from mediankit import (FiniteMetric, InputError, InternalCheckError, MedianMetric,
                       NotMedianError, SimpleGraph, certify_median_graph, classify,
                       cubulate, fill_cubes, formats, intervals)
from mediankit.corpus import (complete_bipartite_graph, cycle_graph,
                              grid_graph, hypercube_graph, path_graph,
                              random_tree, star_graph)
from mediankit.graphs import MedianGraphCert, _bfs_coordinates, _lemma_holds
from mediankit.intervals import bit_rows
from mediankit.metric import _exact_dtype
from mediankit.walls import CubulationResult


def to_networkx(g: SimpleGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out


def induced_hypercubes_oracle(g: SimpleGraph, k: int) -> set[frozenset]:
    """Generic subgraph-isomorphism search for induced k-cube vertex sets."""
    pattern = to_networkx(hypercube_graph(k))
    host = to_networkx(g)
    matcher = nx.algorithms.isomorphism.GraphMatcher(host, pattern)
    return {frozenset(mapping) for mapping in
            (dict(m) for m in matcher.subgraph_isomorphisms_iter())}


# ---------------------------------------------------------------- validation

def test_graph_validation():
    with pytest.raises(InputError, match="loop"):
        SimpleGraph(["a"], [("a", "a")])
    with pytest.raises(InputError, match="connected"):
        SimpleGraph(["a", "b", "c"], [("a", "b")])
    with pytest.raises(InputError, match="unknown"):
        SimpleGraph(["a", "b"], [("a", "z")])
    g = SimpleGraph(["a", "b"], [("a", "b"), ("b", "a")])   # dedupe
    assert len(g.edges) == 1


def outcome(build, vertices, edges):
    """What a graph constructor gives: its vertices, edge indices and
    adjacency lists, or its InputError message."""
    try:
        g = build(vertices, edges)
    except InputError as exc:
        return str(exc)
    return g.vertices, g.edge_indices, g._adj


@st.composite
def edge_lists(draw):
    """Vertex ids, ints and strings, and an edge list over them: a spanning
    path in random order and orientation, with duplicates, reversed pairs,
    and sometimes a loop or an unknown id, in mixed order."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations([*range(n // 2), *map(str, range(n // 2, n))]))
    edges = [(ids[i], ids[i + 1]) for i in range(n - 1)]
    edges += draw(st.lists(st.sampled_from(edges), max_size=6)) if edges else []
    edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=6))
              ] if edges else []
    edges += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                           max_size=3))
    edges += draw(st.lists(st.sampled_from([("x", ids[0]), (ids[-1], 99), ("x", "x")]),
                           max_size=1))
    return ids, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_constructor_matches_the_set_loop_oracle(graph):
    vertices, edges = graph
    assert outcome(SimpleGraph, vertices, edges) == \
        outcome(simple_graph_oracle, vertices, edges)


@pytest.mark.parametrize("edges, message", [
    ([("a", "b"), ("a",), ("a", "a")], "edge ('a',) must have exactly two endpoints"),
    ([("a", "b", "a"), ("a", "z")], "edge ('a', 'b', 'a') must have exactly two endpoints"),
    ([("a", "a"), ("a",)], "loop at 'a'"),
    ([("a", "z"), 5], "edge ('a','z') references an unknown vertex"),
    ([5, ("a", "z")], "edge 5 must have exactly two endpoints"),
    ([("a", ["b"]), ("a", "a")], "edge ('a',['b']) references an unknown vertex"),
    ([("a", "b"), ({}, "a")], "edge ({},'a') references an unknown vertex"),
], ids=["short", "long", "loop-first", "unknown-first", "not-iterable", "unhashable",
        "unhashable-first-end"])
def test_constructor_reports_the_first_bad_edge_as_an_input_error(edges, message):
    with pytest.raises(InputError) as exc:
        SimpleGraph(["a", "b"], edges)
    assert str(exc.value) == message


def test_constructor_takes_any_pair_iterables():
    g = SimpleGraph(["a", "b", "c"], (e for e in [iter(("c", "b")), ["a", "b"], "ab"]))
    assert g.edge_indices == [(0, 1), (1, 2)] and g._adj == [[1], [0, 2], [1]]


def test_bfs_distances():
    g = path_graph(4)
    assert g.bfs_distances(0) == [0, 1, 2, 3]
    assert g.all_pairs()[0, 3] == 3


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 1-40 vertices plus random chords."""
    n = draw(st.integers(1, 40))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 1:
        edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] != e[1]), max_size=2 * n))
    order = draw(st.permutations(range(n)))
    return SimpleGraph(order, edges)


def bfs_table(g):
    return [g.bfs_distances(i) for i in range(len(g))]


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_all_pairs_matches_a_bfs_from_every_vertex(g):
    assert g.all_pairs().tolist() == bfs_table(g)


@pytest.mark.parametrize("g", [path_graph(1), path_graph(130), complete_bipartite_graph(3, 200)],
                         ids=["single-vertex", "path130", "k3-200"])
def test_all_pairs_on_one_vertex_and_multiword_balls(g):
    dist = g.all_pairs()
    assert dist.tolist() == bfs_table(g)
    assert g.all_pairs() is dist
    assert dist.dtype == _exact_dtype(0, len(g))
    with pytest.raises(ValueError):
        dist[0, 0] = 1


def seeded_cubulation(seed: int) -> CubulationResult:
    """The cubulation of a seeded random crossing wall space."""
    rng = random.Random(seed)
    while True:
        try:
            return cubulate(random_crossing_wall_space(rng, rng.randint(2, 7),
                                                       rng.randint(1, 8)))
        except InputError:
            continue


@st.composite
def bfs_graphs(draw):
    """A tree, grid, cube, cycle, K_{m,n}, random connected graph or
    cubulation graph, its vertices in random order unless it is a
    cubulation's."""
    kind = draw(st.sampled_from(["tree", "grid", "cube", "cycle", "kmn", "random",
                                 "cubulation"]))
    if kind == "random":
        return draw(connected_graphs())
    if kind == "cubulation":
        return seeded_cubulation(draw(st.integers(0, 10 ** 6))).graph
    g = {"tree": lambda: random_tree(draw(st.integers(1, 40)), draw(st.integers(0, 99))),
         "grid": lambda: grid_graph(draw(st.integers(1, 6)), draw(st.integers(1, 6))),
         "cube": lambda: hypercube_graph(draw(st.integers(0, 5))),
         "cycle": lambda: cycle_graph(draw(st.integers(3, 12))),
         "kmn": lambda: complete_bipartite_graph(draw(st.integers(1, 4)), draw(st.integers(1, 6))),
         }[kind]()
    return SimpleGraph(draw(st.permutations(g.vertices)), draw(st.permutations(g.edges)))


@settings(max_examples=200, deadline=None)
@given(bfs_graphs())
def test_bfs_coordinates_read_the_graph_bfs_as_the_queue_oracle_does(g):
    if "edge_indices" not in vars(g):       # a cubulation's: its BFS is built here
        assert "_bfs" not in vars(g)
    assert _bfs_coordinates(g) == bfs_coordinates_oracle(g)


def trusted_copy(g: SimpleGraph) -> SimpleGraph:
    """``g`` rebuilt through ``_trusted`` from its sorted index pairs."""
    pairs = sorted({tuple(sorted((g.index(u), g.index(v)))) for u, v in g.edges})
    src = np.array([i for i, _ in pairs], dtype=np.intp)
    dst = np.array([j for _, j in pairs], dtype=np.intp)
    return SimpleGraph._trusted(list(g.vertices), src, dst)


@settings(max_examples=100, deadline=None)
@given(bfs_graphs())
def test_trusted_and_constructed_graphs_agree_on_every_view(g):
    built = SimpleGraph(g.vertices, g.edges)
    trusted = trusted_copy(built)
    assert not {"edge_indices", "_adj", "_bfs"} & vars(trusted).keys()
    assert "positions" not in vars(trusted._ids)
    assert (trusted.edge_src.tolist(), trusted.edge_dst.tolist()) == \
        (built.edge_src.tolist(), built.edge_dst.tolist())
    assert trusted.edge_indices == built.edge_indices
    assert all(type(i) is int for pair in trusted.edge_indices for i in pair)
    assert trusted._adj == built._adj
    assert [trusted.index(v) for v in g.vertices] == [built.index(v) for v in g.vertices]
    assert [trusted.neighbors(v) for v in g.vertices] == [built.neighbors(v) for v in g.vertices]
    assert trusted.edges == built.edges
    assert trusted._bfs == built._bfs
    assert trusted.all_pairs().tolist() == built.all_pairs().tolist()
    assert formats.graph_text(trusted, {"n": 1}) == formats.graph_text(built, {"n": 1}) == \
        formats.dumps(graph_to_json(built, {"n": 1}))


@st.composite
def median_certificates(draw):
    """The certificate of a tree, grid or cube, its vertices in random
    order, or the one a cubulation builds on its ``SimpleGraph._trusted``
    graph."""
    kind = draw(st.sampled_from(["tree", "grid", "cube", "cubulation"]))
    if kind == "cubulation":
        return seeded_cubulation(draw(st.integers(0, 10 ** 6))).cert
    g = {"tree": lambda: random_tree(draw(st.integers(1, 40)), draw(st.integers(0, 99))),
         "grid": lambda: grid_graph(draw(st.integers(1, 6)), draw(st.integers(1, 6))),
         "cube": lambda: hypercube_graph(draw(st.integers(0, 5))),
         }[kind]()
    g = SimpleGraph(draw(st.permutations(g.vertices)), draw(st.permutations(g.edges)))
    return certify_median_graph(g)


@settings(max_examples=100, deadline=None)
@given(median_certificates())
def test_certificate_distances_are_the_bfs_distances(cert):
    g = cert.graph
    got = [[cert.dist(u, v) for v in g.vertices] for u in g.vertices]
    assert "_dist_array" not in vars(g)
    assert got == [g.bfs_distances(i) for i in range(len(g))]


def test_a_1024_vertex_tree_is_certified_with_1023_walls():
    cert = certify_median_graph(random_tree(1024, 11))
    assert len(cert.wall_bits) == 1023
    assert coordinate_int(cert, cert.vertices[5]).bit_count() == \
        cert.graph.bfs_distances(0)[5]


def test_path_metric_passes_full_validation(corpus_graphs):
    # path_metric skips the metric checks, which BFS distances pass by construction
    for inst in corpus_graphs.values():
        g = inst.payload
        checked = FiniteMetric(g.vertices, g.all_pairs().tolist())
        trusted = g.path_metric()
        assert (trusted.points, trusted.scale, trusted._d.tolist()) == \
            (checked.points, checked.scale, checked._d.tolist())
        assert trusted._d.dtype == checked._d.dtype


# ---------------------------------------------------------------- certify

def test_trees_certify():
    for seed in (2, 4, 6):
        cert = certify_median_graph(random_tree(12, seed))
        assert len(cert.walls) == 11      # one wall per tree edge


def test_cube_certifies_with_three_walls_and_hamming_metric():
    cert = certify_median_graph(hypercube_graph(3))
    assert len(cert.walls) == 3
    for u in cert.vertices:
        for v in cert.vertices:
            hamming = sum(a != b for a, b in zip(u, v))
            assert cert.dist(u, v) == hamming


def test_k23_rejected_with_witness():
    with pytest.raises(NotMedianError) as err:
        certify_median_graph(complete_bipartite_graph(2, 3))
    assert err.value.witness.kind == "modular"


def test_odd_cycle_rejected():
    with pytest.raises(NotMedianError):
        certify_median_graph(cycle_graph(5))


def test_certificate_is_bipartite():
    cert = certify_median_graph(grid_graph(3, 3))
    even, odd = bipartition(cert)
    assert even | odd == frozenset(cert.vertices)
    for u, v in cert.graph.edges:
        assert (u in even) != (v in even)


# ------------------------------------------------- wall certificate vs classify

def cube_subgraph(k, chosen):
    """The subgraph of Q_k induced on ``chosen``, cut down to the component
    of its smallest member."""
    chosen = set(chosen)
    start = min(chosen)
    comp, stack = {start}, [start]
    while stack:
        a = stack.pop()
        for b in range(k):
            nb = a ^ 1 << b
            if nb in chosen and nb not in comp:
                comp.add(nb)
                stack.append(nb)
    names = {a: format(a, f"0{k}b") for a in comp}
    edges = [(names[a], names[a ^ 1 << b]) for a in comp for b in range(k)
             if a < a ^ 1 << b and a ^ 1 << b in comp]
    return SimpleGraph([names[a] for a in sorted(comp)], edges)


@st.composite
def down_closed_cube_subgraphs(draw):
    """Order ideals of Q_k: partial cubes, median only when closed under
    majority (Q3 minus its top vertex is not)."""
    k = draw(st.integers(1, 4))
    gens = draw(st.sets(st.integers(0, (1 << k) - 1), min_size=1, max_size=4))
    return cube_subgraph(k, [a for a in range(1 << k) if any(a & ~c == 0 for c in gens)])


@st.composite
def cube_subgraphs(draw):
    """Connected induced subgraphs of Q_k, isometric or not."""
    k = draw(st.integers(2, 4))
    return cube_subgraph(k, draw(st.sets(st.integers(0, (1 << k) - 1), min_size=1)))


@st.composite
def random_graphs(draw):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(1, 9))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += [e for e in draw(st.lists(pair, max_size=8)) if e[0] != e[1]]
    return SimpleGraph(list(range(n)), edges)


def q3_minus_a_vertex():
    return cube_subgraph(3, range(7))


graphs = st.one_of(
    st.builds(random_tree, st.integers(1, 14), st.integers(0, 10 ** 6)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda rc: grid_graph(*rc)),
    down_closed_cube_subgraphs(),
    cube_subgraphs(),
    st.integers(3, 12).map(cycle_graph),
    st.just(q3_minus_a_vertex()),
    st.tuples(st.integers(1, 4), st.integers(1, 5)).map(
        lambda mn: complete_bipartite_graph(*mn)),
    random_graphs(),
)


def check_against_classify(g):
    verdict = classify(g.path_metric())
    try:
        cert = certify_median_graph(g)
    except NotMedianError as err:
        assert not verdict.is_median
        assert err.witness == verdict           # kind, witness triple, common points
        return
    assert verdict.is_median
    index = g.index
    got = [(w.side_mask, tuple((index(u), index(v)) for u, v in w.crossing_edges))
           for w in cert.walls]
    assert got == halfspace_list(cert.metric._between())
    for w in cert.walls:
        assert w.side | w.complement == frozenset(g.vertices)
        assert w.side == frozenset(v for v in g.vertices if w.side_mask >> index(v) & 1)
    if len(g.vertices) <= 12:
        oracle = MedianMetric.certify(g.path_metric())
        for u, v, w in itertools.product(g.vertices, repeat=3):
            assert cert.median(u, v, w) == oracle.median_point(u, v, w)


@settings(max_examples=300, deadline=None)
@given(graphs)
def test_wall_certificate_agrees_with_classify(g):
    check_against_classify(g)


@pytest.mark.parametrize("g", [
    cycle_graph(6), cycle_graph(8), q3_minus_a_vertex(),        # partial cubes, not median
    complete_bipartite_graph(2, 3), complete_bipartite_graph(3, 4),   # bipartite, not partial cubes
    cycle_graph(3), cycle_graph(7),                              # not bipartite
    hypercube_graph(4), grid_graph(4, 4), random_tree(14, 3),      # median
], ids=["c6", "c8", "q3-v", "k23", "k34", "c3", "c7", "q4", "grid4x4", "tree14"])
def test_each_rejection_path_gives_the_classify_witness(g):
    check_against_classify(g)


def test_the_three_wall_paths_agree_on_the_corpus_median_graphs(median_certs):
    for cert in median_certs.values():
        g = cert.graph
        index = g.index
        got = [(w.side_mask, tuple((index(u), index(v)) for u, v in w.crossing_edges))
               for w in cert.walls]
        m = g.path_metric()
        assert got == halfspace_list(m._between())
        alg = m.to_algebra()
        assert halfspace_list(alg._s.packed) == got
        walls = [(h.side, h.complement) for h in alg.halfspaces() if h.complement]
        assert walls == [(w.side, w.complement) for w in cert.walls]


def test_certificate_scans_no_triples(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("classify ran on a median graph")
    monkeypatch.setattr("mediankit.metric.classify", forbidden)
    cert = certify_median_graph(grid_graph(5, 6))
    assert cert.metric.measured_walls == (cert.codes, [1] * 9)
    assert cert.median("0,0", "4,5", "0,5") == "0,5"
    assert cert.metric.median_point("0,0", "4,5", "0,5") == "0,5"
    assert cert.metric._betw is None        # the metric's medians build no table


def test_a_wall_test_failing_on_a_median_graph_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(intervals, "is_median_closed", lambda *args: False)
    with pytest.raises(InternalCheckError, match="no witness"):
        certify_median_graph(grid_graph(2, 3))


# ---------------------------------------------------------------- the lemma

def induced_cube_graph(bits):
    """The subgraph of the hypercube induced on ``bits``, vertex i = bits[i]."""
    edges = [(i, j) for i, j in itertools.combinations(range(len(bits)), 2)
             if (bits[i] ^ bits[j]).bit_count() == 1]
    return SimpleGraph(list(range(len(bits))), edges)


@st.composite
def connected_cube_subsets(draw):
    width = draw(st.integers(1, 6))
    chosen = draw(st.sets(st.integers(0, (1 << width) - 1), min_size=1, max_size=40))
    start = min(chosen)
    seen, stack = {start}, [start]
    while stack:                       # keep the component of the first vertex
        b = stack.pop()
        for nb in (b ^ 1 << k for k in range(width)):
            if nb in chosen and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return width, sorted(seen)


@settings(max_examples=300, deadline=None)
@given(connected_cube_subsets())
def test_lemma_holds_exactly_on_isometric_majority_closed_subsets(case):
    width, bits = case
    g = induced_cube_graph(bits)
    expected = bfs_distance_check(bits, g._adj) and majority_closure_check(bits, bits)
    assert (_lemma_holds(g, bits, width) is not None) == expected
    if not expected:
        return
    cert = certify_median_graph(g)
    varying = sum(1 for k in range(width) if len({b >> k & 1 for b in bits}) == 2)
    assert len(cert.walls) == varying
    if varying == width:               # every bit is a wall: same certificate
        direct = MedianGraphCert(g, bit_rows(bits, width))
        assert direct.walls == cert.walls and direct.codes.ints == cert.codes.ints


def test_certificate_matches_the_eager_oracle_at_every_width():
    graphs = [SimpleGraph(["v"], []), path_graph(2), cycle_graph(4), hypercube_graph(4),
              grid_graph(5, 7), star_graph(9), random_tree(40, 2),
              random_tree(100, 5), grid_graph(3, 40)]      # 99 and 41 walls
    for g in graphs:
        coords, width = _bfs_coordinates(g)
        for shift in (0, 3):                # re-basing: vertex 0's coordinates need not be 0
            shifted = [c ^ shift & ((1 << width) - 1) for c in coords]
            cert = MedianGraphCert(g, bit_rows(shifted, width))
            want = EagerCertificate(g, shifted, width)
            assert cert.wall_bits == want.wall_bits and cert.codes.ints == want.ints
            assert "walls" not in vars(cert)               # built on first use
            assert cert.wall_coordinates() == want.wall_coordinates()
            base = g.vertices[-1]
            assert cert.wall_coordinates(base) == want.wall_coordinates(base)
            assert cert.walls == want.walls


@pytest.mark.parametrize("coords, edges, width, median", [
    ([0b0, 0b1, 0b0], [(0, 1), (1, 2)], 1, True),                 # duplicate coordinate
    ([0b00, 0b11], [(0, 1)], 2, True),                            # edge flips two bits
    ([0b00, 0b01, 0b11, 0b10], [(0, 1), (1, 2), (2, 3)], 2, True),  # Q2 minus an edge
    ([0b000, 0b001, 0b011, 0b111, 0b110, 0b100],                  # C6 in Q3: isometric,
     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], 3, False), # not majority-closed
], ids=["duplicate", "two-bit-edge", "q2-minus-edge", "c6-in-q3"])
def test_lemma_rejections(coords, edges, width, median):
    g = SimpleGraph(list(range(len(coords))), edges)
    assert _lemma_holds(g, coords, width) is None
    if median:                           # a path, whose own coordinates pass
        assert len(certify_median_graph(g).walls) == len(edges)
    else:
        with pytest.raises(NotMedianError):
            certify_median_graph(g)


def test_certificate_metric_and_bipartition_are_built_on_demand():
    # the bipartition is read off the code ints, built on first use too
    cert = certify_median_graph(grid_graph(3, 4))
    assert "metric" not in vars(cert) and "ints" not in vars(cert.codes)
    assert cert.metric is cert.metric
    assert cert.metric.median_point("0,0", "2,3", "0,3") == "0,3"


# ---------------------------------------------------------------- halfspaces

def separating_wall_count_oracle(cert, u, v):
    return sum((u in w.side) != (v in w.side) for w in cert.walls)


def test_edge_graph_has_one_wall():
    cert = certify_median_graph(path_graph(2))
    assert len(cert.walls) == 1


def test_four_cycle_has_two_walls():
    cert = certify_median_graph(cycle_graph(4))
    assert len(cert.walls) == 2


def test_path4_three_walls_and_distance_equals_separation():
    cert = certify_median_graph(path_graph(4))
    assert len(cert.walls) == 3
    ends = (cert.vertices[0], cert.vertices[-1])
    assert cert.dist(*ends) == 3 == separating_wall_count_oracle(cert, *ends)


def test_wall_sides_are_convex_by_direct_oracle():
    cert = certify_median_graph(grid_graph(2, 3))
    m = cert.metric
    for wall in cert.walls:
        for side in (wall.side, wall.complement):
            for a in side:
                for b in side:
                    assert m.geodesic_interval(a, b) <= side


def test_distance_equals_wall_separation_everywhere():
    for g in (random_tree(10, 8), grid_graph(3, 3), hypercube_graph(3)):
        cert = certify_median_graph(g)
        for u in cert.vertices:
            for v in cert.vertices:
                assert cert.dist(u, v) == separating_wall_count_oracle(cert, u, v)


def test_every_proper_halfspace_comes_from_an_edge_small():
    for g in (grid_graph(3, 3), hypercube_graph(3)):
        cert = certify_median_graph(g)
        full = (1 << len(cert.vertices)) - 1
        walls = {frozenset((w.side_mask, full & ~w.side_mask)) for w in cert.walls}
        oracle = subsets_bruteforce_halfspaces(between_oracle(cert.metric))
        assert walls | {frozenset((full, 0))} == oracle
        crossing = [e for w in cert.walls for e in w.crossing_edges]
        assert sorted(crossing) == sorted(cert.graph.edges)


# ---------------------------------------------------------------- coordinates

def test_wall_coordinates_base_is_zero():
    cert = certify_median_graph(grid_graph(2, 3))
    base = cert.vertices[3]
    coords = cert.wall_coordinates(base)
    assert coords[base] == (0,) * len(cert.walls)


def test_wall_coordinates_hamming_equals_distance():
    for g in (path_graph(4), hypercube_graph(3), grid_graph(3, 3)):
        cert = certify_median_graph(g)
        coords = cert.wall_coordinates()
        for u in cert.vertices:
            for v in cert.vertices:
                hamming = sum(a != b for a, b in zip(coords[u], coords[v]))
                assert hamming == cert.dist(u, v)


def test_cube_coordinates_reproduce_labels_up_to_wall_order():
    cert = certify_median_graph(hypercube_graph(3))
    coords = cert.wall_coordinates(base="000")
    realized = {tuple(bits) for bits in coords.values()}
    assert realized == set(itertools.product((0, 1), repeat=3))
    for name, bits in coords.items():
        assert sorted(bits) == sorted(int(c) for c in name)


def test_path_coordinates_are_nested():
    cert = certify_median_graph(path_graph(4))
    coords = cert.wall_coordinates(base=cert.vertices[0])
    weights = sorted(sum(bits) for bits in coords.values())
    assert weights == [0, 1, 2, 3]


# ---------------------------------------------------------------- cubes

def test_tree_has_no_cubes_above_dimension_one():
    cc = fill_cubes(certify_median_graph(random_tree(15, 3)))
    assert cc.counts() == {1: 14}


def test_four_cycle_has_exactly_one_square():
    cc = fill_cubes(certify_median_graph(cycle_graph(4)))
    assert cc.counts() == {1: 4, 2: 1}


def test_cube3_counts():
    cc = fill_cubes(certify_median_graph(hypercube_graph(3)))
    assert cc.counts() == {1: 12, 2: 6, 3: 1}


def test_grid_squares():
    cc = fill_cubes(certify_median_graph(grid_graph(3, 3)))
    assert cc.counts() == {1: 12, 2: 4}


def test_max_dim_truncates():
    cc = fill_cubes(certify_median_graph(hypercube_graph(3)), max_dim=2)
    assert cc.counts() == {1: 12, 2: 6}
    with pytest.raises(InputError):
        fill_cubes(certify_median_graph(cycle_graph(4)), max_dim=0)


def test_cube_sets_match_generic_subgraph_oracle():
    for g in (cycle_graph(4), hypercube_graph(3), grid_graph(3, 3),
              star_graph(4), grid_graph(2, 4)):
        cert = certify_median_graph(g)
        cc = fill_cubes(cert)
        for k in (2, 3):
            found = set(cc.cubes.get(k, []))
            assert found == induced_hypercubes_oracle(g, k)


def test_filling_rule_no_missing_top_cube():
    """If every vertex of a (k+1)-cube is present, it is listed."""
    cc = fill_cubes(certify_median_graph(hypercube_graph(4)))
    assert cc.counts() == {1: 32, 2: 24, 3: 8, 4: 1}


def test_cubes_induce_hypercubes():
    cert = certify_median_graph(grid_graph(3, 3))
    cc = fill_cubes(cert)
    host = to_networkx(cert.graph)
    for k, cubes in cc.cubes.items():
        pattern = to_networkx(hypercube_graph(k))
        for cube in cubes:
            sub = host.subgraph(cube)
            assert nx.is_isomorphic(sub, pattern)


def assert_cubes_match_oracle(cert, max_dim):
    cc = fill_cubes(cert, max_dim)
    want = fill_cubes_oracle(cert, max_dim)
    assert list(cc.counts().items()) == list(want.counts().items())
    assert cc.dimension == want.dimension
    assert "cubes" not in vars(cc)          # counting builds no vertex set
    assert list(cc.cubes) == list(want.cubes)
    for k, cubes in want.cubes.items():
        assert cc.cubes[k] == cubes         # list order included


# ids 1 and "1" print alike, so all three edges tie under sorted(map(str, cube))
ODD_IDS_PATH = SimpleGraph([1, 2, "1", "2"], [(1, 2), (2, "1"), ("1", "2")])
# the 2x3 grid 2-0-"2" over 3-1-"3": its two squares tie, and both extend the
# key of edge 0-1, whose wall is wall 0
TIED_SQUARES = SimpleGraph([0, 2, "2", 1, 3, "3"],
                           [(0, 1), (0, 2), (0, "2"), (1, 3), (1, "3"), (2, 3), ("2", "3")])


@pytest.mark.parametrize("max_dim", [None, 1, 2])
@pytest.mark.parametrize("g", [
    path_graph(1), ODD_IDS_PATH, TIED_SQUARES, grid_graph(3, 3), grid_graph(2, 5), grid_graph(4, 4),
    random_tree(20, 1), random_tree(40, 2), star_graph(5), hypercube_graph(3),
    hypercube_graph(4), hypercube_graph(5), hypercube_graph(6),
], ids=["single-vertex", "odd-ids", "tied-squares", "grid3x3", "grid2x5", "grid4x4", "tree20", "tree40",
        "star5", "q3", "q4", "q5", "q6"])
def test_fill_cubes_matches_the_all_walls_oracle(g, max_dim):
    assert_cubes_match_oracle(certify_median_graph(g), max_dim)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), max_dim=st.sampled_from([None, 1, 2]))
def test_fill_cubes_matches_the_oracle_on_cubulations(seed, max_dim):
    rng = random.Random(seed)
    try:
        w = random_crossing_wall_space(rng, rng.randint(2, 7), rng.randint(1, 9))
    except InputError:                      # two points no wall separates
        return
    assert_cubes_match_oracle(cubulate(w).cert, max_dim)


def test_tied_cubes_keep_their_key_order():
    cc = fill_cubes(certify_median_graph(ODD_IDS_PATH))
    assert cc.cubes == {1: [frozenset({1, 2}), frozenset({2, "1"}), frozenset({"1", "2"})]}
    cc = fill_cubes(certify_median_graph(TIED_SQUARES))
    assert cc.cubes[2] == [frozenset({0, 1, "2", "3"}), frozenset({0, 1, 2, 3})]


def test_counts_and_dimension_build_no_cubes():
    cc = fill_cubes(certify_median_graph(hypercube_graph(4)), max_dim=3)
    assert (cc.counts(), cc.dimension) == ({1: 32, 2: 24, 3: 8}, 3)
    assert "cubes" not in vars(cc)
    assert cc.cubes is cc.cubes             # built once, on first use
