import itertools

import networkx as nx
import pytest

from conftest import subsets_bruteforce_halfspaces
from mediankit import (FiniteMetric, InputError, NotMedianError, SimpleGraph,
                       certify_median_graph, fill_cubes)
from mediankit.corpus import (complete_bipartite_graph, cycle_graph,
                              grid_graph, hypercube_graph, path_graph,
                              random_tree, star_graph)


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


def test_bfs_distances():
    g = path_graph(4)
    assert g.bfs_distances(0) == [0, 1, 2, 3]
    assert g.all_pairs()[0][3] == 3


def test_path_metric_passes_full_validation(corpus_graphs):
    # path_metric skips the metric checks, which BFS distances pass by construction
    for inst in corpus_graphs.values():
        g = inst.payload
        checked = FiniteMetric(g.vertices, g.all_pairs())
        trusted = g.path_metric()
        assert (trusted.points, trusted.scale, trusted._di) == \
            (checked.points, checked.scale, checked._di)


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
    even, odd = cert.bipartition
    assert even | odd == frozenset(cert.vertices)
    for u, v in cert.graph.edges:
        assert (u in even) != (v in even)


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
        oracle = subsets_bruteforce_halfspaces(cert.metric._between())
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
