import functools
import itertools
import json
import random
from collections import deque
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediankit import (FiniteMetric, InputError, IntervalStructure, MedianMetric,
                       ResourceLimitError, SimpleGraph, WallSpace, certify_median_graph, cubulate,
                       extend_morphism, gns_embed, graph_wall_space, is_wall_morphism)
from mediankit.actions import apply_word
from mediankit.corpus import (cycle_graph, grid_graph, hypercube_graph,
                              nested_wall_space, path_graph, random_tree,
                              random_wall_space, wall_instances)
from mediankit import cli, formats, intervals, walls
from mediankit.errors import InternalCheckError
from mediankit.intervals import bit_rows
from mediankit.walls import _clause_tables, _orientation_array

from conftest import (Orientation, bfs_distance_check, check_upward_closure,
                      consistent_orientations_bruteforce, count_closure, cubulate_oracle,
                      graph_to_json,
                      majority_closure, majority_closure_check, principal_orientation,
                      extend_morphism_oracle, pullback_case, random_crossing_wall_space,
                      reaches_vertex_0, side_masks, side_tables_oracle, steps_toward_all,
                      wall_metric_recount, wall_morphism_oracle)


def two_point_space():
    return WallSpace(["a", "b"], [(["a"], ["b"])])


def tripod_space():
    pts = ["a", "b", "c"]
    return WallSpace(pts, [(["a"], ["b", "c"]), (["b"], ["a", "c"]),
                           (["c"], ["a", "b"])])


def star_space(k):
    """k points, each cut off from the rest: the cubulation is a star
    whose centre is no point."""
    pts = [f"l{i}" for i in range(k)]
    return WallSpace(pts, [([p], [q for q in pts if q != p]) for p in pts])


def c4_wall_space():
    return graph_wall_space(certify_median_graph(cycle_graph(4)))


def to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out


# ---------------------------------------------------------------- validation

def test_wall_space_validation():
    with pytest.raises(InputError, match="partition"):
        WallSpace(["a", "b"], [(["a"], ["a", "b"])])
    with pytest.raises(InputError, match="separated by no wall"):
        WallSpace(["a", "b", "c"], [(["a"], ["b", "c"])])
    # the trivial wall alone never separates a pair
    with pytest.raises(InputError, match="separated"):
        WallSpace(["a", "b"], [([], ["a", "b"])])


def test_five_points_with_three_nested_cuts_is_rejected():
    # two of the five points end up wall-equivalent, which the definition forbids
    pts = [f"p{i}" for i in range(5)]
    walls = [(pts[:1], pts[1:]), (pts[:2], pts[2:]), (pts[:3], pts[3:])]
    with pytest.raises(InputError, match="separated"):
        WallSpace(pts, walls)


def first_unseparated_pair(points, walls):
    """Oracle: the first pair in combinations order that no wall splits."""
    for x, y in itertools.combinations(points, 2):
        if not any((x in a) != (y in a) for a, _ in walls):
            return x, y
    return None


def test_unseparated_pair_reported_is_the_first_in_combinations_order():
    clashes = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        pts = [f"p{i}" for i in range(n)]
        walls = []
        for _ in range(rng.randint(0, 4)):
            side = rng.sample(pts, rng.randint(1, n - 1))
            walls.append((side, [p for p in pts if p not in side]))
        want = first_unseparated_pair(pts, walls)
        if want is None:
            w = WallSpace(pts, walls)
            assert len({w.sigma_bits(p) for p in pts}) == n
            continue
        clashes += 1
        with pytest.raises(InputError) as err:
            WallSpace(pts, walls)
        assert str(err.value) == f"points {want[0]!r} and {want[1]!r} are separated by no wall"
    assert clashes > 100


def test_sigma_bits_mark_the_non_canonical_sides():
    for seed in range(20):
        w = random_wall_space(seed)
        for i, x in enumerate(w.points):
            want = sum(1 << k for k in range(w.wall_count)
                       if not side_masks(w, k)[0] >> i & 1)
            assert w.sigma_bits(x) == want


def test_duplicate_walls_are_merged():
    w = WallSpace(["a", "b"], [(["a"], ["b"]), (["b"], ["a"])])
    assert w.wall_count == 1


def test_single_point_space_has_only_the_trivial_wall():
    w = WallSpace(["a"], [])
    assert w.wall_count == 0
    assert w.wall_metric("a", "a") == 0


# ---------------------------------------------------------------- wall metric

def test_wall_metric_basics():
    w = two_point_space()
    assert w.wall_metric("a", "a") == 0
    assert w.wall_metric("a", "b") == 1


def test_c4_wall_space_opposite_vertices_distance_two():
    w = c4_wall_space()
    cert = certify_median_graph(cycle_graph(4))
    for u in w.points:
        for v in w.points:
            assert w.wall_metric(u, v) == cert.dist(u, v)
    v = w.points
    assert w.wall_metric(v[0], v[2]) == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_wall_metric_is_a_metric(seed):
    w = random_wall_space(seed)
    pts = w.points
    for x in pts:
        assert w.wall_metric(x, x) == 0
    for x, y in itertools.combinations(pts, 2):
        assert w.wall_metric(x, y) == w.wall_metric(y, x) > 0
    for x, y, z in itertools.combinations(pts, 3):
        assert w.wall_metric(x, z) <= w.wall_metric(x, y) + w.wall_metric(y, z)


# ---------------------------------------------------------------- orientations

def test_principal_orientation_chooses_sides_containing_the_point():
    w = c4_wall_space()
    for x in w.points:
        o = principal_orientation(w, x)
        for k in range(w.wall_count):
            side = o.side_mask(k)
            assert side >> w.index(x) & 1
        assert o.is_consistent()
        assert check_upward_closure(o)


def test_two_point_space_sigma():
    w = two_point_space()
    assert principal_orientation(w, "a").chosen_sides() == [frozenset({"a"})]


def test_upward_closure_matches_consistency_on_all_orientations():
    w = tripod_space()
    for bits in range(1 << w.wall_count):
        o = Orientation(w, bits)
        assert o.is_consistent() == check_upward_closure(o)


# ---------------------------------------------------------------- morphisms

def test_identity_and_constant_are_wall_morphisms():
    w = c4_wall_space()
    assert is_wall_morphism({p: p for p in w.points}, w, w)
    single = WallSpace(["z"], [])
    assert is_wall_morphism({p: "z" for p in w.points}, w, single)


def test_non_morphism_fixture():
    # collapsing one side of a wall so a preimage is not a halfspace
    w1 = nested_wall_space(3)            # p0 | p1 p2  and  p0 p1 | p2
    w2 = two_point_space()
    bad = {"p0": "a", "p1": "b", "p2": "a"}
    assert not is_wall_morphism(bad, w1, w2)
    good = {"p0": "a", "p1": "b", "p2": "b"}
    assert is_wall_morphism(good, w1, w2)


def test_wall_morphism_requires_total_map():
    w = two_point_space()
    with pytest.raises(InputError, match="total"):
        is_wall_morphism({"a": "a"}, w, w)


# ---------------------------------------------------------------- cubulation

def test_two_points_one_wall_gives_an_edge():
    res = cubulate(two_point_space())
    assert res.vertex_count == 2
    assert len(res.graph.edges) == 1


def test_nested_walls_cubulate_to_paths():
    for n in (4, 5):
        res = cubulate(nested_wall_space(n))
        assert res.vertex_count == n
        assert nx.is_isomorphic(to_networkx(res.graph),
                                to_networkx(path_graph(n)))
        # the embedding hits every vertex: the points were already a path
        assert len(set(res.embedding.values())) == n


def test_tripod_gains_a_steiner_vertex():
    res = cubulate(tripod_space())
    assert res.vertex_count == 4
    deg = {v: len(res.graph.neighbors(v)) for v in res.graph.vertices}
    assert sorted(deg.values()) == [1, 1, 1, 3]
    assert len(set(res.embedding.values())) == 3


def test_median_graph_round_trip_is_isomorphic():
    for g in (path_graph(4), cycle_graph(4), hypercube_graph(3),
              grid_graph(3, 3), random_tree(12, 5)):
        cert = certify_median_graph(g)
        res = cubulate(graph_wall_space(cert))
        assert res.vertex_count == len(g.vertices)
        assert nx.is_isomorphic(to_networkx(res.graph), to_networkx(g))
        assert res.checks["median_closure"] == "checked"
        assert res.checks["wall_bijection"] == "certified"


def _meets(bits, side, force, value):
    """Entry (i, k): whether side ``side[i, k]`` of wall k meets every side
    that orientation ``bits[i]`` chooses on another wall."""
    return (bits[:, None] & np.where(side, force[1], force[0])) \
        == np.where(side, value[1], value[0])


def mask_consistent(w, orientations) -> list[bool]:
    """cubulate's mask test on the clause tables it reads
    (``intervals._clauses`` on the wall record's codes), taken whole, with
    every wall j != k below each wall k, on every wall: per orientation,
    whether no chosen side misses another."""
    W = w.wall_count
    columns, ones, m, _ = intervals._clause_inputs(w.codes.bits)
    tables = intervals._clauses(columns, ones, m, ~np.eye(W, dtype=bool), 0, W)
    force, value = (_orientation_array(intervals.word_ints(t.reshape(len(t), 2 * W).T), W)
                    .reshape(2, W) for t in tables)
    walls = _orientation_array([1 << k for k in range(W)], W)
    v = _orientation_array(orientations, W)
    return _meets(v, (v[:, None] & walls) != 0, force, value).all(axis=1).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_consistency_mask_test_matches_pairwise_oracle(seed):
    w = random_wall_space(seed, max_walls=7)
    every = range(1 << w.wall_count)
    assert mask_consistent(w, every) == [Orientation(w, b).is_consistent() for b in every]


def test_consistency_mask_test_rejects_a_tampered_vertex():
    w = tripod_space()
    res = cubulate(w)
    assert all(mask_consistent(w, list(res.vertex_bits.values())))
    for bits in res.vertex_bits.values():
        assert Orientation(w, bits).is_consistent()
    centre = next(b for b in res.vertex_bits.values()
                  if b not in {res.vertex_bits[v] for v in res.embedding.values()})
    outsider = centre ^ ((1 << w.wall_count) - 1)   # every point on the far side of its wall
    assert not Orientation(w, outsider).is_consistent()
    assert mask_consistent(w, [outsider]) == [False]


def assert_same_outcome(w, **caps):
    """cubulate and its oracle raise the same cap error, or build the same
    cubulation."""
    outcomes = []
    for build in (cubulate, cubulate_oracle):
        try:
            outcomes.append(build(w, **caps))
        except ResourceLimitError as exc:
            outcomes.append((str(exc), exc.cap))
    got, want = outcomes
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_cubulation(got, want)


def assert_same_cubulation(res, want):
    assert res.graph.vertices == want.graph.vertices
    assert res.graph.edge_indices == want.graph.edge_indices
    assert res.graph._adj == want.graph._adj
    assert list(res.embedding.items()) == list(want.embedding.items())
    assert list(res.vertex_bits.items()) == list(want.vertex_bits.items())
    assert list(res.wall_correspondence.items()) == list(want.wall_correspondence.items())
    assert list(res.checks.items()) == list(want.checks.items())
    assert res.cert.wall_bits == want.cert.wall_bits
    assert res.cert.codes.ints == want.cert.ints
    assert res.cert.wall_coordinates() == want.cert.wall_coordinates()
    assert res.cert.walls == want.cert.walls           # built on first use


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_cubulate_matches_the_flip_bfs_oracle(seed):
    rng = random.Random(seed)
    spaces = [random_wall_space(seed, max_points=rng.randint(4, 12), max_walls=12)]
    try:
        spaces.append(random_crossing_wall_space(rng, rng.randint(2, 8), rng.randint(1, 10)))
    except InputError:
        pass
    for w in spaces:
        res = cubulate(w)
        assert_same_cubulation(res, cubulate_oracle(w))
        # the vertex cap: both raise the same error, or neither does
        image = len(set(res.embedding.values()))
        for cap in {0, image - 1, image, res.vertex_count - 1, res.vertex_count}:
            if cap >= 0:
                assert_same_outcome(w, max_vertices=cap)


def test_cubulate_matches_the_oracle_without_walls_and_beyond_64_walls():
    spaces = [WallSpace(["a"], []),                                    # W = 0
              nested_wall_space(66),                                  # W = 65
              graph_wall_space(certify_median_graph(random_tree(70, 3))),
              graph_wall_space(certify_median_graph(grid_graph(3, 30))),
              star_space(70)]                                         # a Steiner centre
    assert [w.wall_count for w in spaces] == [0, 65, 69, 31, 70]
    for w in spaces:
        assert_same_cubulation(cubulate(w, max_walls=80), cubulate_oracle(w, max_walls=80))
    wide = spaces[1]
    with pytest.raises(ResourceLimitError):
        cubulate(wide, max_walls=64)
    assert_same_outcome(wide, max_walls=64)
    assert_same_outcome(wide, max_walls=80, max_vertices=0)   # no flip adds a vertex
    assert_same_outcome(spaces[3], max_walls=80, max_vertices=89)
    with pytest.raises(ResourceLimitError, match="exceeded 70 vertices"):
        cubulate(spaces[4], max_walls=80, max_vertices=70)
    assert_same_outcome(spaces[4], max_walls=80, max_vertices=70)


def box_wall_space(*dims, spread=None):
    """The grid [0,d1) x ... x [0,dk) with its axis-parallel cuts; it
    cubulates to the grid graph itself.  With ``spread``, only the points
    with at most that many nonzero coordinates are kept: for spread >= 2
    any two sides with a common grid point still share a kept point, so
    the cubulation is the same grid."""
    pts = [",".join(map(str, p)) for p in itertools.product(*map(range, dims))
           if spread is None or sum(map(bool, p)) <= spread]
    coords = {p: tuple(map(int, p.split(","))) for p in pts}
    walls = [([p for p in pts if coords[p][axis] < cut],
              [p for p in pts if coords[p][axis] >= cut])
             for axis, d in enumerate(dims) for cut in range(1, d)]
    return WallSpace(pts, walls)


def bench_box_space(dims, seed):
    """The box wall spaces of the benchmark's cubulate ladder: the corners,
    the points on each axis and one seeded interior point, in seeded
    order, with every axis-parallel cut.  It cubulates to the full grid."""
    rng = random.Random(seed)
    pts = set(itertools.product(*[(0, m - 1) for m in dims]))
    for k, m in enumerate(dims):
        pts.update(tuple(i if t == k else 0 for t in range(len(dims))) for i in range(m))
    pts.add(tuple(rng.randrange(m) for m in dims))
    order = sorted(pts)
    rng.shuffle(order)
    names = ["_".join(map(str, p)) for p in order]
    cuts = [([q for q, p in zip(names, order) if p[k] < cut],
             [q for q, p in zip(names, order) if p[k] >= cut])
            for k, m in enumerate(dims) for cut in range(1, m)]
    return WallSpace(names, cuts)


BENCH_BOXES = [(2, 3, 4), (3, 4, 5), (4, 4, 4), (2, 5, 6), (3, 3, 7), (2, 4, 8), (4, 4, 4, 5),
               (5, 5, 5, 5), (7, 9, 10), (4, 4, 5, 8), (3, 6, 6, 6)]
BEYOND_64 = {"nested66": lambda: nested_wall_space(66),
             "tree70": lambda: graph_wall_space(certify_median_graph(random_tree(70, 3))),
             "star70": lambda: star_space(70)}
RUNG_SPACES = {**{f"tree{n}": (lambda n=n: graph_wall_space(certify_median_graph(random_tree(n, n))))
                  for n in (8, 12, 20, 24)},
               **{"box" + "x".join(map(str, d)): (lambda d=d: bench_box_space(d, len(d)))
                  for d in BENCH_BOXES},
               **BEYOND_64}


@pytest.mark.parametrize("name", list(RUNG_SPACES))
def test_cubulate_matches_the_oracle_on_every_bench_rung_shape(name):
    w = RUNG_SPACES[name]()
    res = cubulate(w, max_walls=80)
    assert_same_cubulation(res, cubulate_oracle(w, max_walls=80))
    # the vertex cap: the image alone never trips it
    image = len(set(res.embedding.values()))
    for cap in sorted({image - 1, image, res.vertex_count - 1, res.vertex_count}):
        if cap >= 0:
            assert_same_outcome(w, max_walls=80, max_vertices=cap)
    if res.vertex_count > image:
        with pytest.raises(ResourceLimitError, match=f"exceeded {res.vertex_count - 1} vertices"):
            cubulate(w, max_walls=80, max_vertices=res.vertex_count - 1)


def test_dropping_a_clause_is_caught_by_the_oracles(monkeypatch):
    # a - b - c cut twice: {a} and {c} are the sides of walls 0 and 1 that
    # miss each other, so side 1 of wall 1 fixes wall 0 to its side 1;
    # dropped from the clause tables, the expansion admits the inconsistent
    # orientation that takes both, and the oracles, which no table feeds,
    # build the path without it
    w = nested_wall_space(3)
    assert [side_masks(w, k) for k in range(2)] == [(0b001, 0b110), (0b011, 0b100)]
    tables = intervals._clauses

    def dropped(*args):
        force, value = tables(*args)
        assert force[0, 1, 1] == value[0, 1, 1] == 1     # word 0, side 1, wall 1: wall 0 is on side 1
        force, value = force.copy(), value.copy()
        force[0, 1, 1] = value[0, 1, 1] = 0
        return force, value

    want = cubulate_oracle(w)
    assert set(want.vertex_bits.values()) == consistent_orientations_bruteforce(w) == {0, 1, 3}
    assert set(cubulate(w).vertex_bits.values()) == {0, 1, 3}
    monkeypatch.setattr(intervals, "_clauses", dropped)
    got = cubulate(w)
    assert set(got.vertex_bits.values()) == {0, 1, 2, 3}
    with pytest.raises(AssertionError):
        assert_same_cubulation(got, want)


def spread_wall_space(rng, width):
    """A wall space of exactly ``width`` nontrivial walls: the path of
    width + 1 points below 7 walls, else 8 points with the 7 cuts of one
    point off the rest and width - 7 further random cuts among the 120
    others."""
    if width < 7:
        return nested_wall_space(width + 1)
    pts = [f"p{i}" for i in range(8)]
    singles = [1 << i for i in range(7)]
    offs = singles + rng.sample([m for m in range(1, 128) if m not in singles], width - 7)
    return WallSpace(pts, [([p for i, p in enumerate(pts[1:]) if m >> i & 1],
                            [pts[0]] + [p for i, p in enumerate(pts[1:]) if not m >> i & 1])
                           for m in offs])


@st.composite
def table_spaces(draw):
    """A wall space of 0-70 walls (63, 64 and 65 among them), a random
    crossing one, a corpus one, or a bench rung shape."""
    kind = draw(st.sampled_from(["width", "random", "corpus", "rung"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "rung":
        return RUNG_SPACES[draw(st.sampled_from(list(RUNG_SPACES)))]()
    if kind == "corpus":
        return draw(st.sampled_from(CORPUS_WALL_SPACES))
    if kind == "width":
        return spread_wall_space(rng, draw(st.sampled_from([0, 1, 63, 64, 65]) | st.integers(0, 70)))
    try:
        return random_crossing_wall_space(rng, rng.randint(2, 9), rng.randint(1, 80))
    except InputError:
        return nested_wall_space(rng.randint(1, 9))


def assert_tables_are_the_oracle_tables_below_each_wall(w):
    W = w.wall_count
    walls = _orientation_array([1 << k for k in range(W)], W)
    want = side_tables_oracle(_orientation_array(w.codes.ints, W), walls, (1 << W) - 1)
    for got, t in zip(_clause_tables(w.codes.bits), want):
        assert got.dtype == t.dtype == (np.uint64 if W <= 64 else object)
        assert got.tolist() == (t & (walls - 1)).tolist()


@settings(max_examples=80, deadline=None)
@given(table_spaces())
def test_cubulation_tables_are_the_oracle_tables_below_each_wall(w):
    assert_tables_are_the_oracle_tables_below_each_wall(w)


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 70])
def test_cubulation_tables_at_the_word_edges(width):
    path = nested_wall_space(width + 1)
    for w in (path, spread_wall_space(random.Random(width), width)):
        assert w.wall_count == width
        assert_tables_are_the_oracle_tables_below_each_wall(w)
    assert_same_cubulation(cubulate(path, max_walls=80), cubulate_oracle(path, max_walls=80))


def test_the_one_and_two_point_cubulations_are_pinned():
    res = cubulate(WallSpace(["a"], []))
    assert res.graph.vertices == ["0"] and res.graph.edges == []
    assert res.embedding == {"a": "0"} and res.vertex_bits == {"0": 0}
    assert res.wall_correspondence == {} and res.cert.codes.bits.shape == (1, 0)
    res = cubulate(two_point_space())
    assert res.graph.vertices == ["0", "1"] and res.graph.edges == [("0", "1")]
    assert res.embedding == {"a": "0", "b": "1"} and res.vertex_bits == {"0": 0, "1": 1}
    assert res.wall_correspondence == {0: 0} and res.cert.codes.bits.tolist() == [[0], [1]]
    for r in (res, cubulate(WallSpace(["a"], []))):
        assert r.checks == {
            "embedding_injective": True, "vertices_consistent": True,
            "embedding_isometric": True, "median_closure": "checked",
            "distance_vs_hamming": "exhaustive", "wall_bijection": "certified"}


def assert_passes_the_construction_oracles(res):
    """What ``cubulate`` keeps by construction, checked by oracles that it
    does not call: every edge flips one bit, every vertex but vertex 0
    (the empty orientation) has a neighbour one bit nearer it
    (``reaches_vertex_0``, so the graph is connected), and the vertex set
    is majority-stable and the median closure of the embedded points
    (``majority_closure_check``)."""
    ordered = list(res.vertex_bits.values())
    src, dst = res.graph.edge_src, res.graph.edge_dst
    flips = [ordered[i] ^ ordered[j] for i, j in zip(src.tolist(), dst.tolist())]
    assert all(f.bit_count() == 1 for f in flips)
    k = np.array([f.bit_length() - 1 for f in flips], dtype=np.intp)
    assert ordered[0] == 0
    assert reaches_vertex_0(bit_rows(ordered, len(res.wall_correspondence)), src, dst, k)
    image = [res.vertex_bits[v] for v in res.embedding.values()]
    assert majority_closure_check(ordered, image)


@functools.cache
def rung_passes_the_construction_oracles(name):
    """The oracles on a bench rung shape, run once per shape: the 600-vertex
    boxes take seconds each."""
    assert_passes_the_construction_oracles(cubulate(RUNG_SPACES[name](), max_walls=80))


CORPUS_WALL_SPACES = [inst.payload for inst in wall_instances()]


@st.composite
def wall_space_draws(draw):
    """A random crossing wall space, a corpus wall space, or the name of a
    bench rung shape (beyond 64 walls among them)."""
    kind = draw(st.sampled_from(["random", "corpus", "rung"]))
    if kind == "rung":
        return draw(st.sampled_from(list(RUNG_SPACES)))
    if kind == "corpus":
        return draw(st.sampled_from(CORPUS_WALL_SPACES))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    try:
        return random_crossing_wall_space(rng, rng.randint(2, 8), rng.randint(1, 10))
    except InputError:
        return nested_wall_space(rng.randint(1, 9))


@settings(max_examples=60, deadline=None)
@given(wall_space_draws())
def test_every_cubulation_passes_the_construction_oracles(w):
    if isinstance(w, str):
        rung_passes_the_construction_oracles(w)
    else:
        assert_passes_the_construction_oracles(cubulate(w, max_walls=w.wall_count))


def test_the_shapes_beyond_64_walls_pass_the_construction_oracles():
    for name in BEYOND_64:
        rung_passes_the_construction_oracles(name)


def test_connectivity_proof_rejects_two_antipodal_vertices():
    bits = bit_rows([0b000, 0b111], 3)
    none = np.zeros(0, dtype=np.intp)
    assert not reaches_vertex_0(bits, none, none, none)
    path = bit_rows([0b000, 0b001, 0b011, 0b111], 3)
    assert reaches_vertex_0(path, np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([0, 1, 2]))
    # every vertex is one step from vertex 0, except vertex 3, which has no edge down
    assert not reaches_vertex_0(path, np.array([0, 1]), np.array([1, 2]), np.array([0, 1]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda w: st.tuples(
    st.just(w), st.sets(st.integers(0, (1 << w) - 1), min_size=1))))
def test_connectivity_proof_matches_the_one_step_oracle(case):
    width, chosen = case
    ordered = sorted(chosen)
    index = {b: i for i, b in enumerate(ordered)}
    edges = np.array([(index[b], index[b | 1 << t], t) for b in ordered for t in range(width)
                      if not b >> t & 1 and b | 1 << t in index], dtype=np.intp).reshape(-1, 3)
    got = reaches_vertex_0(bit_rows(ordered, width), *edges.T)
    # the proof holds iff BFS distance from vertex 0 is Hamming distance to it
    adj = cube_adjacency(ordered)
    dist, queue = {0: 0}, deque([0])
    while queue:
        u = queue.popleft()
        for j in adj[u]:
            if j not in dist:
                dist[j] = dist[u] + 1
                queue.append(j)
    assert got == all(dist.get(i) == (b ^ ordered[0]).bit_count() for i, b in enumerate(ordered))


def test_checks_run_exhaustively_beyond_the_old_sampling_size():
    w = box_wall_space(8, 8, 8, 5, spread=2)    # 257 points, 25 walls
    res = cubulate(w, max_walls=25)
    assert res.vertex_count == 2560
    assert res.checks == {"embedding_injective": True, "vertices_consistent": True,
                          "embedding_isometric": True, "median_closure": "checked",
                          "distance_vs_hamming": "exhaustive",
                          "wall_bijection": "certified"}
    assert len(res.cert.walls) == 25


def test_certificate_beyond_the_old_certify_size_matches_certification():
    w = box_wall_space(4, 4, 4, 5)         # 320 vertices
    res = cubulate(w)
    assert res.vertex_count == 320 and res.checks["wall_bijection"] == "certified"
    oracle = certify_median_graph(res.graph)
    assert res.cert.walls == oracle.walls
    assert res.cert.codes.ints == oracle.codes.ints
    bits = [res.vertex_bits[v] for v in res.graph.vertices]
    assert steps_toward_all(bits, res.graph._adj)
    base = bits[0]
    for k in range(w.wall_count):
        near = frozenset(v for v, b in zip(res.graph.vertices, bits)
                         if (b ^ base) >> k & 1 == 0)
        assert oracle.walls[res.wall_correspondence[k]].side == near
    assert sorted(res.wall_correspondence.values()) == list(range(w.wall_count))


def test_flip_reachable_equals_bruteforce_oracle():
    for seed in range(8):
        w = random_wall_space(seed)
        res = cubulate(w)
        assert set(res.vertex_bits.values()) == consistent_orientations_bruteforce(w)


def test_embedding_is_isometric_for_the_wall_metric():
    for seed in (3, 14):
        w = random_wall_space(seed)
        res = cubulate(w)
        dist = res.graph.all_pairs()
        for x in w.points:
            for y in w.points:
                ix = res.graph.index(res.embedding[x])
                iy = res.graph.index(res.embedding[y])
                assert dist[ix][iy] == w.wall_metric(x, y)


def test_separating_walls_sigma_halfspaces_and_hamming_agree():
    # cubulate takes this by definition: principal bits are sigma bits
    spaces = [inst.payload for inst in wall_instances()]
    for seed in range(60):
        rng = random.Random(seed)
        try:
            spaces.append(random_crossing_wall_space(rng, rng.randint(2, 7),
                                                     rng.randint(1, 9)))
        except InputError:
            continue
    assert len(spaces) > 40
    for w in spaces:
        res = cubulate(w)
        assert res.checks["embedding_isometric"] is True
        assert wall_metric_recount(w, res)


def test_graph_wall_spaces_hold_the_constructor_record(median_certs):
    """A median graph's wall space shares its certificate's record, and it
    is the record the constructor builds from the walls' sides."""
    certs = list(median_certs.values())
    certs += [certify_median_graph(random_tree(n, n)) for n in (1, 2, 65, 130, 400)]
    for cert in certs:
        w = graph_wall_space(cert)
        vs = cert.vertices
        full = (1 << len(vs)) - 1
        want = WallSpace(vs, [(intervals.unmask(vs, side), intervals.unmask(vs, full ^ side))
                              for side in cert.codes.sides])
        assert w.codes is cert.codes
        assert w.points == want.points and w._ids.positions == want._ids.positions
        assert (w.codes.bits == want.codes.bits).all()
        assert w.codes.sides == want.codes.sides and w.codes.ints == want.codes.ints


def test_cubulation_idempotence():
    for seed in (0, 6):
        w = random_wall_space(seed)
        first = cubulate(w)
        again = cubulate(graph_wall_space(first.cert))
        assert nx.is_isomorphic(to_networkx(first.graph), to_networkx(again.graph))


def test_wall_correspondence_is_a_bijection():
    w = c4_wall_space()
    res = cubulate(w)
    assert len(res.wall_correspondence) == w.wall_count == len(res.cert.walls)
    assert len(set(res.wall_correspondence.values())) == len(res.cert.walls)


def test_wall_cap_raises_resource_error():
    w = graph_wall_space(certify_median_graph(random_tree(30, 1)))
    with pytest.raises(ResourceLimitError):
        cubulate(w, max_walls=10)
    res = cubulate(w, max_walls=64)
    assert res.vertex_count == 30


def test_cubulate_beyond_sixty_three_walls():
    w = graph_wall_space(certify_median_graph(path_graph(66)))
    res = cubulate(w, max_walls=80)
    assert res.vertex_count == 66
    assert res.checks["median_closure"] == "checked"
    assert res.checks["distance_vs_hamming"] == "exhaustive"


def test_verification_agrees_with_former_checks():
    for seed in range(8):
        w = random_wall_space(seed)
        res = cubulate(w)
        bits = [res.vertex_bits[v] for v in res.graph.vertices]
        image = set(res.vertex_bits[v] for v in res.embedding.values())
        assert majority_closure_check(bits, image)
        assert bfs_distance_check(bits, res.graph._adj)


def test_bruteforce_oracle_cap():
    w = graph_wall_space(certify_median_graph(random_tree(30, 1)))
    with pytest.raises(ResourceLimitError):
        consistent_orientations_bruteforce(w, max_walls=12)


# ---------------------------------------------------------------- extensions

def graph_interval(graph, dist, u, v):
    iu, iv = graph.index(u), graph.index(v)
    return {w for w in graph.vertices
            if dist[iu][graph.index(w)] + dist[graph.index(w)][iv] == dist[iu][iv]}


def assert_median_morphism_of_graphs(fmap, res1, res2):
    d1 = res1.graph.all_pairs()
    d2 = res2.graph.all_pairs()
    for u in res1.graph.vertices:
        for v in res1.graph.vertices:
            target = graph_interval(res2.graph, d2, fmap[u], fmap[v])
            for t in graph_interval(res1.graph, d1, u, v):
                assert fmap[t] in target


def test_identity_extends_to_identity():
    w = c4_wall_space()
    res = cubulate(w)
    ext = extend_morphism({p: p for p in w.points}, w, w, res)
    assert all(ext[v] == v for v in res.graph.vertices)


def test_constant_extends_to_constant():
    w = c4_wall_space()
    single = WallSpace(["z"], [])
    ext = extend_morphism({p: "z" for p in w.points}, w, single)
    assert len(set(ext.values())) == 1


def test_quotient_extension_is_a_median_morphism():
    w1 = nested_wall_space(3)
    w2 = two_point_space()
    f = {"p0": "a", "p1": "b", "p2": "b"}
    res1, res2 = cubulate(w1), cubulate(w2)
    ext = extend_morphism(f, w1, w2, res1)
    for p in w1.points:
        assert ext[res1.embedding[p]] == res2.embedding[f[p]]
    assert_median_morphism_of_graphs(ext, res1, res2)


def test_extension_of_random_wall_morphisms_is_median_morphic():
    # retraction of the tripod cubulation onto one leg
    w1 = tripod_space()
    w2 = two_point_space()
    f = {"a": "a", "b": "b", "c": "b"}
    if is_wall_morphism(f, w1, w2):
        res1, res2 = cubulate(w1), cubulate(w2)
        ext = extend_morphism(f, w1, w2, res1)
        assert_median_morphism_of_graphs(ext, res1, res2)


def test_extension_needs_no_target_cubulation():
    # 29 walls, over the default cap of 24: only the source is cubulated,
    # under its vertex cap alone
    w = graph_wall_space(certify_median_graph(random_tree(30, 1)))
    assert w.wall_count == 29
    ext = extend_morphism({p: p for p in w.points}, w, w)
    assert len(ext) == 30 and all(name == image for name, image in ext.items())


def test_extension_still_caps_the_source_vertices():
    # 17 pairwise crossing walls: every one of the 2^17 orientations is a vertex
    k = 17
    codes = [0, *(1 << i for i in range(k)),
             *(1 << i | 1 << j for i, j in itertools.combinations(range(k), 2))]
    pts = [f"p{c}" for c in codes]
    w = WallSpace(pts, [([p for p, c in zip(pts, codes) if c >> i & 1],
                         [p for p, c in zip(pts, codes) if not c >> i & 1]) for i in range(k)])
    with pytest.raises(ResourceLimitError, match="65536 vertices"):
        extend_morphism({p: p for p in pts}, w, w)


def test_extend_rejects_non_morphisms():
    w1 = nested_wall_space(3)
    w2 = two_point_space()
    with pytest.raises(InputError, match="morphism"):
        extend_morphism({"p0": "a", "p1": "b", "p2": "a"}, w1, w2)


# ---------------------------------------------------------------- the pullback

def outcome(call):
    """The value of ``call()``, or the type and message of its error."""
    try:
        return "ok", call()
    except (InputError, InternalCheckError) as exc:
        return type(exc), str(exc)


PULLBACK_KINDS = st.sampled_from(["random", "cube", "cycle", "tree", "point"])


def cubulation(w):
    return cubulate(w, max_walls=max(24, w.wall_count))


@settings(max_examples=150, deadline=None)
@given(PULLBACK_KINDS, PULLBACK_KINDS, st.integers(0, 10**6), st.integers(0, 10**6),
       st.sampled_from(["random", "constant", "quotient", "automorphism",
                        "permutation", "partial", "unknown"]))
def test_pullback_matches_point_by_point_oracles(kind1, kind2, seed1, seed2, how):
    """``is_wall_morphism`` and ``extend_morphism`` agree with their
    point-by-point forms, whose extension re-checks the point map, on
    random maps, constant maps, quotients onto one wall, automorphisms
    and permutations; a map that is not total or leaves w2 raises the same
    error."""
    rng = random.Random(seed1 ^ seed2)
    w1, autos = pullback_case(kind1, seed1)
    w2 = pullback_case(kind2, seed2)[0]
    pts = w1.points
    if how == "constant":
        f = dict.fromkeys(pts, rng.choice(w2.points))
    elif how == "quotient" and w1.wall_count:
        w2 = two_point_space()
        a, _ = w1.wall_sides(rng.randrange(w1.wall_count))
        f = {p: "a" if p in a else "b" for p in pts}
    elif how == "automorphism":
        w2, f = w1, rng.choice(autos)
    elif how == "permutation":
        w2, f = w1, dict(zip(pts, rng.sample(pts, len(pts))))
    else:
        f = {p: rng.choice(w2.points) for p in pts}
        if how == "partial":
            del f[rng.choice(pts)]
        elif how == "unknown":
            f[rng.choice(pts)] = "nowhere"
    got = outcome(lambda: is_wall_morphism(f, w1, w2))
    assert got == outcome(lambda: wall_morphism_oracle(f, w1, w2))
    if how in ("constant", "quotient", "automorphism"):
        assert got == ("ok", True)
    if got == ("ok", True):
        res1, res2 = cubulation(w1), cubulation(w2)
        # both constructors give distinct sigmas: the embedding is injective
        assert len(set(res1.embedding.values())) == len(w1)
        ext = outcome(lambda: extend_morphism(f, w1, w2, res1))
        assert ext[0] == "ok"
        assert ext == outcome(lambda: extend_morphism_oracle(f, w1, w2, res1, res2))
    elif got == ("ok", False):
        assert outcome(lambda: extend_morphism(f, w1, w2)) == (
            InputError, "map is not a wall morphism")


def test_pullback_reads_walls_flips_and_constants():
    w1 = nested_wall_space(3)            # p0 | p1 p2  and  p0 p1 | p2
    w2 = two_point_space()
    image = [w2.index(q) for q in ("a", "b", "b")]
    # the side {b} pulls back to {p1, p2}: wall 0's other side, no flip
    assert walls._pullback(w1, w2, image) == [(0, 0)]
    image = [w2.index(q) for q in ("b", "a", "a")]
    assert walls._pullback(w1, w2, image) == [(0, 1)]
    assert walls._pullback(w1, w2, [0, 0, 0]) == [(None, 0)]
    assert walls._pullback(w1, w2, [1, 1, 1]) == [(None, 1)]
    assert walls._pullback(w1, w2, [0, 1, 0]) == [None]


# ---------------------------------------------------------------- verification kernels

def cube_adjacency(bits):
    """Adjacency lists of the subgraph of the hypercube induced on bits."""
    return [[j for j, b in enumerate(bits) if (a ^ b).bit_count() == 1] for a in bits]


@st.composite
def images(draw):
    width = draw(st.integers(0, 7))
    image = draw(st.sets(st.integers(0, (1 << width) - 1), min_size=1, max_size=12))
    if width and draw(st.booleans()):           # make one coordinate constant
        k = draw(st.integers(0, width - 1))
        image = {b | 1 << k for b in image} if draw(st.booleans()) else \
            {b & ~(1 << k) for b in image}
    return width, sorted(image)


@settings(max_examples=150, deadline=None)
@given(images(), st.integers(0, 130))
def test_closure_count_matches_majority_closure(case, limit):
    width, image = case
    size = len(majority_closure(image))
    assert count_closure(image, width, 1 << width) == size
    assert count_closure(image, width, limit) == min(size, limit + 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda w: st.tuples(
    st.just(w), st.sets(st.integers(0, (1 << w) - 1), min_size=1))), st.booleans())
def test_one_step_test_matches_bfs(case, down_close):
    width, chosen = case
    if down_close:       # order ideals of the cube induce isometric subgraphs
        chosen = {s for s in range(1 << width) if any(s & ~c == 0 for c in chosen)}
    bits = sorted(chosen)
    adj = cube_adjacency(bits)
    assert steps_toward_all(bits, adj) == bfs_distance_check(bits, adj)
    if down_close:
        assert steps_toward_all(bits, adj)


def test_one_step_test_rejects_an_edge_flipping_two_walls():
    assert not steps_toward_all([0b00, 0b11], [[1], [0]])


def test_checks_fire_on_tampered_vertex_sets():
    # the tripod cubulates to a star: three image leaves around a Steiner centre
    w = tripod_space()
    res = cubulate(w)
    bits = sorted(res.vertex_bits.values())
    image = sorted(res.vertex_bits[v] for v in res.embedding.values())
    centre = next(b for b in bits if b not in image)
    outsider = centre ^ ((1 << w.wall_count) - 1)   # inconsistent, adjacent to no vertex
    assert outsider not in consistent_orientations_bruteforce(w)
    for tampered in ([b for b in bits if b != centre], sorted(bits + [outsider])):
        adj = cube_adjacency(tampered)
        assert not majority_closure_check(tampered, image)
        assert count_closure(image, w.wall_count, len(tampered)) != len(tampered)
        assert not bfs_distance_check(tampered, adj)
        assert not steps_toward_all(tampered, adj)
    adj = cube_adjacency(bits)
    assert count_closure(image, w.wall_count, len(bits)) == len(bits)
    assert steps_toward_all(bits, adj)


@pytest.mark.parametrize("call", [
    lambda w: w.index([1]),
    lambda w: path_graph(2).path_metric().index({}),
    lambda w: path_graph(2).index(["a"]),
    lambda w: path_graph(2).path_metric().interval_structure().index([0]),
    lambda w: path_graph(2).path_metric().to_algebra().index([0]),
    lambda w: is_wall_morphism({"a": ["x"], "b": "b"}, w, w),
    lambda w: extend_morphism({"a": "a", "b": ["b"]}, w, w),
    lambda w: WallSpace(["a", "b"], [(["a"], [["b"]])]),
], ids=["WallSpace", "FiniteMetric", "SimpleGraph", "IntervalStructure",
        "FiniteMedianAlgebra", "is_wall_morphism", "extend_morphism", "WallSpace-side"])
def test_an_unhashable_id_is_an_unknown_point(call):
    with pytest.raises(InputError, match=r"^(wall references )?unknown (point|vertex) "):
        call(WallSpace(["a", "b"], [(["a"], ["b"])]))


@pytest.mark.parametrize("call", [
    lambda: FiniteMetric([["a"], "b"], [[0, 1], [1, 0]]),
    lambda: FiniteMetric.from_upper_triangle([["a"], "b"], [[1]]),
    lambda: SimpleGraph([["a"], "b"], []),
    lambda: WallSpace([["a"], "b"], []),
    lambda: IntervalStructure(["a"], SimpleNamespace(items=lambda: [(("a", ["a"]), ["a"])])),
    lambda: apply_word({"g": {"a": "a"}}, ["g", ["g"]], ["a"]),
], ids=["FiniteMetric", "from_upper_triangle", "SimpleGraph", "WallSpace", "IntervalStructure",
        "apply_word"])
def test_unhashable_ids_are_input_errors(call):
    with pytest.raises(InputError, match=r"^(point id \['a'\] is not hashable|vertex id \['a'\] "
                                         r"is not hashable|interval \('a', \['a'\]\) references "
                                         r"an unknown point|unknown generator \['g'\])$"):
        call()


def square(ids: list) -> list[list[int]]:
    return [[int(x is not y) for y in ids] for x in ids]


# each entry point builds a valid structure on distinct, hashable ids
ID_ENTRY_POINTS = {
    "FiniteMetric": (lambda ids: FiniteMetric(ids, square(ids)), "a metric space", "point"),
    "from_upper_triangle": (lambda ids: FiniteMetric.from_upper_triangle(
        ids, [[1] * (len(ids) - 1 - i) for i in range(len(ids) - 1)]), "a metric space", "point"),
    "IntervalStructure": (lambda ids: IntervalStructure(ids, SimpleNamespace(
        items=lambda: [((x, y), [x, y]) for x in ids for y in ids])),
        "an interval structure", "point"),
    "WallSpace": (lambda ids: WallSpace(ids, ([[p], [q for q in ids if q is not p]]
                                              for p in ids)), "a wall space", "point"),
    "SimpleGraph": (lambda ids: SimpleGraph(ids, zip(ids, ids[1:])), "a graph", "vertex"),
}


@pytest.mark.parametrize("entry", ID_ENTRY_POINTS)
@pytest.mark.parametrize("ids, message", [
    ([], "{owner} needs at least one {noun}"),
    (["a", ["b"], "c"], "{noun} id ['b'] is not hashable"),
    (["a", "b", "a"], "duplicate {noun} identifiers"),
    # the checks run in that order
    (["a", "a", ["b"]], "{noun} id ['b'] is not hashable"),
], ids=["empty", "unhashable", "duplicate", "unhashable-first"])
def test_id_errors_have_one_text_at_every_entry_point(entry, ids, message):
    build, owner, noun = ID_ENTRY_POINTS[entry]
    with pytest.raises(InputError) as info:
        build(ids)
    assert str(info.value) == message.format(owner=owner, noun=noun)
    structure = build(["a", "b", "c"])
    assert [structure.index(p) for p in "abc"] == [0, 1, 2]
    for p in ("z", ["a"], 0):
        with pytest.raises(InputError) as info:
            structure.index(p)
        assert str(info.value) == f"unknown {noun} {p!r}"


def test_derived_structures_hold_their_source_id_record():
    """A structure made from another holds the other's id record, and a
    trusted record builds no index on the way."""
    g = cubulate(graph_wall_space(certify_median_graph(grid_graph(3, 4)))).graph
    ids = g._ids
    metric = g.path_metric()
    cert = certify_median_graph(g)
    certified = MedianMetric.certify(metric)
    derived = [metric, certified, cert.metric, graph_wall_space(cert),
               MedianMetric._proven(metric, certified.measured_walls),
               metric.interval_structure(), certified.interval_structure(),
               gns_embed(metric)]
    assert all(s._ids is ids for s in derived)
    assert metric.to_algebra()._s._ids is ids
    assert "positions" not in vars(ids)
    # the index is built on the first lookup, then shared
    assert metric.index(g.vertices[5]) == 5
    assert vars(ids)["positions"] is derived[3]._ids.positions


def graph_views(g: SimpleGraph) -> set:
    """The views a graph has built: its edge tuples, adjacency lists and
    BFS, and its id record's index."""
    return ({"edge_indices", "_adj", "_bfs"} & vars(g).keys()) | (
        {"positions"} & vars(g._ids).keys())


@pytest.mark.parametrize("inst", wall_instances(0), ids=lambda inst: inst.name)
def test_cubulate_and_its_cli_build_no_graph_view(inst, tmp_path, monkeypatch, capsys):
    """A cubulation's graph keeps the edge arrays it was built from: neither
    ``cubulate`` nor ``cubulate --out`` builds its adjacency lists, id
    index, edge tuples or BFS."""
    assert not graph_views(cubulate(inst.payload).graph)
    results = []

    def spy(*args, **kwargs):
        results.append(cubulate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "cubulate", spy)
    infile, outfile = tmp_path / "walls.json", tmp_path / "graph.json"
    infile.write_text(formats.dumps(formats.walls_to_json(inst.payload)))
    assert cli.main(["cubulate", "--in", str(infile), "--out", str(outfile)]) == 0
    g = results[0].graph
    assert not graph_views(g)
    assert json.loads(capsys.readouterr().out)["edges"] == len(g.edge_src)
    assert outfile.read_text() == formats.dumps(graph_to_json(g))


def test_cubulate_indexes_its_vertices_on_the_first_lookup():
    res = cubulate(nested_wall_space(70), max_walls=69)
    g = res.graph
    assert "positions" not in vars(g._ids) and not graph_views(g)
    assert [g.index(res.embedding[p]) for p in res.embedding] == list(range(70))
    assert vars(g._ids)["positions"] == {v: i for i, v in enumerate(g.vertices)}
    with pytest.raises(InputError) as info:
        g.index("2")
    assert str(info.value) == "unknown vertex '2'"
