"""Packed betweenness tables, the triple-meet kernel, interval-mask axiom
checks and one-BFS wall coordinates, each against its Python oracle."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (between_oracle, classify_oracle, count_closure,
                      edge_halfspace_certificate, interval_structure_oracle, pack_table,
                      random_shortest_path_metric, validate_axioms_oracle)
from mediankit import (FiniteMedianAlgebra, FiniteMetric, InputError, IntervalStructure,
                       MedianMetric, NotMedianError, SimpleGraph, certify_median_graph,
                       classify, cubulate, intervals, metric, validate_axioms)
from mediankit.corpus import (asymmetric_interval_fixture, complete_bipartite_graph,
                              cycle_graph, graph_instances, grid_graph, hypercube_graph,
                              path_graph, random_tree, random_wall_space, star_graph)
from mediankit.graphs import _bfs_coordinates, _lemma_holds
from mediankit.metric import _exact_array


def graphs_on(n):
    out = [path_graph(n), random_tree(n, n)]
    if n >= 2:
        out += [star_graph(n - 1), complete_bipartite_graph(1 + n // 3, n - 1 - n // 3)]
    if n >= 3:
        out.append(cycle_graph(n))
    return out


def check_tables(m):
    n = len(m.points)
    assert m._between().shape == (n, n, intervals.words(n))
    betw = between_oracle(m)
    assert [[m.between_mask(i, j) for j in range(n)] for i in range(n)] == betw
    assert pack_table(betw).tobytes() == m._between().tobytes()
    assert classify(m) == classify_oracle(m)


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 130])
def test_tables_and_classify_match_the_oracles_across_word_boundaries(n):
    for g in graphs_on(n):
        check_tables(g.path_metric())


def scaled(m, factor):
    return FiniteMetric(m.points, [[m.dist(x, y) * factor for y in m.points]
                                   for x in m.points])


@pytest.mark.parametrize("g", [cycle_graph(6), complete_bipartite_graph(3, 4),
                               grid_graph(3, 3), cycle_graph(65)],
                         ids=["c6", "k34", "grid3x3", "c65"])
def test_metrics_past_two_to_the_61_take_the_object_path(g):
    # the largest entry on each side of 2^14, 2^30 and 2^61: int16, int32,
    # int64, then Python ints
    base = g.path_metric()
    diameter = int(base._d.max())
    dtypes = [(1 << 14, np.int16), (1 << 30, np.int32), (1 << 61, np.int64)]
    factors = [2 ** 62]
    for bound, _ in dtypes:
        factors += [(bound - 1) // diameter, -(-bound // diameter)]
    for factor in factors:
        m = scaled(base, factor)
        peak = diameter * factor
        assert m._d.dtype == next((dt for b, dt in dtypes if peak < b), object)
        assert _exact_array(m._d.tolist()).dtype == m._d.dtype
        check_tables(m)
        assert classify(m) == classify(base)


def test_path_metrics_hand_their_array_to_certify(monkeypatch):
    def rebuilt(di):
        raise AssertionError("the exact array was rebuilt from the lists")

    monkeypatch.setattr(metric, "_exact_array", rebuilt)
    g = grid_graph(3, 4)
    pm = g.path_metric()
    assert pm._d is g.all_pairs() and pm._d.dtype == np.int16
    mm = MedianMetric.certify(pm)
    assert mm._d is pm._d
    assert certify_median_graph(g).metric._d is g.all_pairs()
    with pytest.raises(NotMedianError):
        certify_median_graph(cycle_graph(60))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10 ** 6), st.sampled_from([1, 2 ** 61 + 1]))
def test_rational_metrics_match_the_oracles_on_both_paths(n, seed, factor):
    check_tables(scaled(random_shortest_path_metric(random.Random(seed), n), factor))


def multi_row_then_empty_row_graph():
    """An 8-vertex graph whose triples through vertex 0 are all nonempty,
    one of them with several points, and which has an empty triple among
    the others."""
    edges = [(0, 1), (0, 2), (0, 6), (1, 3), (1, 7), (2, 7), (3, 4), (3, 5), (3, 6),
             (4, 7), (5, 7)]
    return SimpleGraph(list(range(8)), edges)


def test_a_multi_median_block_before_an_empty_block_gives_the_empty_witness(monkeypatch):
    m = multi_row_then_empty_row_graph().path_metric()
    betw = between_oracle(m)
    counts = {t: (betw[t[0]][t[1]] & betw[t[1]][t[2]] & betw[t[2]][t[0]]).bit_count()
              for t in itertools.combinations(range(8), 3)}
    assert min(c for t, c in counts.items() if t[0] == 0) == 1
    assert max(c for t, c in counts.items() if t[0] == 0) > 1
    expected = classify_oracle(m)
    assert expected.kind == "neither" and expected.witness[0] > 0
    monkeypatch.setattr(intervals, "BLOCK", 1)          # one row i per block
    blocks = [a for a, _, _ in intervals.meet_counts(m._between(), ordered=False)]
    assert blocks == list(range(8))
    assert classify(m) == expected


def test_ordered_meet_counts_match_a_direct_count_on_an_asymmetric_table():
    rng = random.Random(7)
    for n in (1, 2, 5, 65):
        table = [[rng.getrandbits(n) for _ in range(n)] for _ in range(n)]
        got = {}
        for a, lo, counts in intervals.meet_counts(pack_table(table), ordered=True):
            for (i, j, k), c in zip(itertools.product(range(a, a + len(counts)),
                                                      range(lo, n), range(lo, n)),
                                    counts.ravel()):
                got[i, j, k] = int(c)
        assert got == {(i, j, k): (table[i][j] & table[j][k] & table[k][i]).bit_count()
                       for i, j, k in itertools.product(range(n), repeat=3)}


# ---------------------------------------------------------------- algebra axioms

@st.composite
def perturbed_structures(draw):
    """The interval structure of a small path metric with a few intervals
    gaining or losing members, so that any axiom may fail."""
    g = draw(st.sampled_from([path_graph(4), cycle_graph(4), cycle_graph(6),
                              complete_bipartite_graph(2, 3), grid_graph(2, 3),
                              star_graph(3)]))
    s = g.path_metric().interval_structure()
    pts = s.points
    table = {(x, y): set(s.interval(x, y)) for x in pts for y in pts}
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from(sorted(table, key=repr)))
        table[key] ^= {draw(st.sampled_from(pts))}
    return IntervalStructure(pts, table)


@settings(max_examples=150, deadline=None)
@given(perturbed_structures())
def test_validate_axioms_matches_the_frozenset_scan(s):
    assert validate_axioms(s) == validate_axioms_oracle(s)


def past_the_first_word():
    """The 66-point path's interval structure with a failure of every
    axiom at a point past index 63: [65,65] holds 64, and [1,3] holds 65,
    so [1,65] is not inside it and [1,3] != [3,1]."""
    s = path_graph(66).path_metric().interval_structure()
    pts = s.points
    table = {(x, y): set(s.interval(x, y)) for x in pts for y in pts}
    table[pts[65], pts[65]].add(pts[64])
    table[pts[1], pts[3]].add(pts[65])
    return IntervalStructure(pts, table)


def test_validate_axioms_matches_the_frozenset_scan_on_fixtures():
    structures = [asymmetric_interval_fixture(), past_the_first_word()]
    structures += [g.path_metric().interval_structure()
                   for g in (grid_graph(4, 4), cycle_graph(6), hypercube_graph(3),
                             complete_bipartite_graph(3, 3), path_graph(1), path_graph(66))]
    for s in structures:
        assert validate_axioms(s) == validate_axioms_oracle(s)
        assert validate_axioms(s).as_dict() == validate_axioms_oracle(s).as_dict()


# ---------------------------------------------------------------- interval structures

@st.composite
def raw_interval_maps(draw):
    """Points (ints and strings) and a raw interval map over them, keys
    in a seeded order, members as lists, sets or tuples, some repeated,
    with a few unknown endpoints, stray members or missing pairs
    inserted; n runs past 64, so masks span two words."""
    n = draw(st.integers(1, 70) | st.sampled_from([63, 64, 65, 70]))
    rng = random.Random(draw(st.integers(0, 10 ** 9)))
    pts = [i if i % 3 else f"p{i}" for i in range(n)]
    items = []
    for x in pts:
        for y in pts:
            members = rng.sample(pts, rng.randint(0, min(n, 6))) + [x, y][:rng.randint(0, 2)]
            if members and rng.random() < 0.2:
                members.append(members[0])
            items.append(((x, y), members))
    rng.shuffle(items)
    for _ in range(min(draw(st.integers(0, 2)), len(items) - 1)):
        del items[rng.randrange(len(items))]
    for _ in range(draw(st.integers(0, 1))):
        key = [rng.choice(pts), rng.choice(["q", -1])]
        rng.shuffle(key)
        items.insert(rng.randrange(len(items) + 1), (tuple(key), [pts[0]]))
    for _ in range(draw(st.integers(0, 1))):
        key, members = items[rng.randrange(len(items))]
        members += rng.sample(["s", "t", 100, 101], rng.randint(1, 3))
    kinds = draw(st.sampled_from([(list,), (set,), (tuple,), (list, set, tuple)]))
    return pts, {key: rng.choice(kinds)(members) for key, members in items}


def outcome(build, pts, mapping):
    try:
        return build(pts, mapping)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(raw_interval_maps())
def test_interval_structure_matches_the_frozenset_constructor(raw):
    pts, mapping = raw
    got, want = outcome(IntervalStructure, *raw), outcome(interval_structure_oracle, *raw)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.packed.shape == want.packed.shape and got.packed.dtype == want.packed.dtype
    assert got.packed.tobytes() == want.packed.tobytes()
    assert all(got.interval(x, y) == frozenset(mapping[(x, y)]) for x in pts for y in pts)


def test_interval_structure_wraps_the_metric_table(monkeypatch):
    def forbidden(*args):
        raise AssertionError("an interval was read off the table")
    m = grid_graph(4, 4).path_metric()
    monkeypatch.setattr(FiniteMetric, "between_mask", forbidden)
    monkeypatch.setattr(FiniteMetric, "geodesic_interval", forbidden)
    assert m.interval_structure().packed is m._between()
    assert m.to_algebra()._s.packed is m._between()


def oracle_structure(m):
    """The interval structure of a metric built by the frozenset
    constructor from the Python betweenness oracle."""
    betw, pts = between_oracle(m), m.points
    return interval_structure_oracle(pts, {(x, pts[j]): [pts[t] for t in intervals.members(mask)]
                                           for x, row in zip(pts, betw)
                                           for j, mask in enumerate(row)})


@pytest.mark.parametrize("g", [inst.payload for inst in graph_instances()] + [path_graph(66)],
                         ids=[inst.name for inst in graph_instances()] + ["path66"])
def test_metric_algebras_match_the_oracle_built_structures(g):
    m = g.path_metric()
    s, want = m.interval_structure(), oracle_structure(m)
    assert s.packed.tobytes() == want.packed.tobytes()
    report = validate_axioms(want)
    assert validate_axioms(s) == report
    if not report.passed:
        with pytest.raises(InputError, match="axioms failing"):
            m.to_algebra()
        return
    a = m.to_algebra()
    assert a.report == report
    assert a.halfspaces() == FiniteMedianAlgebra.promote(want).halfspaces()


# ---------------------------------------------------------------- one-BFS coordinates

def shuffled(g, seed):
    """The same graph with its vertices and edges listed in a seeded order."""
    rng = random.Random(seed)
    vs = list(g.vertices)
    rng.shuffle(vs)
    es = list(g.edges)
    rng.shuffle(es)
    return SimpleGraph(vs, es)


def median_graphs():
    out = [shuffled(g, seed) for seed in range(3)
           for g in (grid_graph(4, 5), grid_graph(1, 6), random_tree(20, 5),
                     hypercube_graph(4), star_graph(5), path_graph(1))]
    out += [cubulate(random_wall_space(seed)).graph for seed in range(6)]
    return out


@pytest.mark.parametrize("g", median_graphs())
def test_one_bfs_walls_match_the_edge_halfspace_certificate(g):
    cert = certify_median_graph(g)
    oracle = edge_halfspace_certificate(g)
    assert oracle is not None
    assert cert.walls == oracle.walls             # sides, crossing edges, masks
    assert cert.wall_coordinates() == oracle.wall_coordinates()


def theta_graph(*lengths):
    """Internally disjoint paths of the given lengths between s and t."""
    vs, es = ["s", "t"], []
    for p, length in enumerate(lengths):
        prev = "s"
        for i in range(1, length):
            vs.append(f"p{p}.{i}")
            es.append((prev, vs[-1]))
            prev = vs[-1]
        es.append((prev, "t"))
    return SimpleGraph(vs, es)


def cube_subgraph(keep):
    keep = sorted(keep)
    return SimpleGraph(keep, [(a, b) for a, b in itertools.combinations(keep, 2)
                              if (a ^ b).bit_count() == 1])


def lemma_checks(g):
    """Which hypotheses of the lemma the one-BFS coordinates meet."""
    coords, width = _bfs_coordinates(g)
    n = len(coords)
    present = set(coords)
    return {
        "distinct": len(present) == n,
        "one_bit": all((coords[i] ^ coords[j]).bit_count() == 1 for i, j in g.edge_indices),
        "pairs": sum((c ^ 1 << k) in present for c in coords for k in range(width)
                     if c >> k & 1) == len(g.edge_indices),
        "closure": count_closure(coords, width, n) == n,
    }


@pytest.mark.parametrize("g, passing", [
    (cycle_graph(6), {"distinct"}),
    (complete_bipartite_graph(2, 3), {"distinct"}),
    (theta_graph(3, 3, 3), {"distinct"}),
    (theta_graph(2, 2, 4), {"distinct"}),
    (theta_graph(1, 2, 3), {"distinct", "closure"}),
    (cube_subgraph(range(7)), {"distinct", "one_bit", "pairs"}),
], ids=["c6", "k23", "theta333", "theta224", "theta123", "q3-v"])
def test_non_median_graphs_passing_some_checks_give_the_classify_witness(g, passing):
    assert {name for name, ok in lemma_checks(g).items() if ok} == passing
    coords, width = _bfs_coordinates(g)
    assert _lemma_holds(g, coords, width) is None
    with pytest.raises(NotMedianError) as err:
        certify_median_graph(g)
    assert err.value.witness == classify_oracle(g.path_metric())


def test_a_median_theta_graph_is_certified():
    g = theta_graph(1, 3, 3)              # the 2x3 grid
    assert all(lemma_checks(g).values())
    assert len(certify_median_graph(g).walls) == 3


def test_acceptance_runs_one_bfs_and_no_distance_table(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a BFS table was built for a median graph")
    g = shuffled(grid_graph(6, 7), 1)
    monkeypatch.setattr(SimpleGraph, "bfs_distances", forbidden)
    cert = certify_median_graph(g)
    assert len(cert.walls) == 11
    dist = [[cert.dist(u, v) for v in g.vertices] for u in g.vertices]
    assert "_dist_array" not in vars(g)
    assert dist == g.all_pairs().tolist()
