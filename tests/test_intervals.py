"""The packed interval kernel against the Python kernels and the 2^n
subset oracle, for n <= 12, and against the Python kernels across the
64-bit word boundary; the median-closedness test against the majority
fixpoint."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from conftest import (between_oracle, boolean_median_algebra, certificate_order_oracle,
                      count_closure, halfspace_list, halfspaces_oracle, interval_masks,
                      is_convex_oracle,
                      majority_closure, majority_closure_check, random_crossing_wall_space,
                      row_ints_oracle,
                      subsets_bruteforce_halfspaces, wall_space_order_oracle)
from mediankit import (FiniteMetric, InputError, MedianGraphCert, MedianMetric, SimpleGraph,
                       WallSpace, certify_median_graph, cubulate, graph_wall_space, product)
from mediankit.corpus import grid_graph, hypercube_graph, path_graph, random_tree
from mediankit import intervals
from mediankit.graphs import _bfs_coordinates
from mediankit.intervals import (WallCodes, bit_rows, digit_strings, halfspaces, is_convex,
                                 is_median_closed, members, row_ints)


def closed(values, width):
    """``is_median_closed`` on int bitvectors, through their bit matrix."""
    return is_median_closed(bit_rows(values, width))


def closed_oracle(values):
    """Whether a set of int bitvectors is its own majority closure,
    ``majority_closure(values) == set(values)``, with majority stability
    decided first, so that no closure of a grown set is built."""
    return majority_closure_check(values, values)


def rational_tree_metric(n, seed):
    """A random tree with rational edge weights; vertex i > 0 hangs below
    a parent with a smaller index."""
    rng = random.Random(seed)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        parent = rng.randrange(i)
        weight = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for j in range(i):
            dist[i][j] = dist[j][i] = dist[parent][j] + weight
    return FiniteMetric(list(range(n)), dist)


def metric_tables(m):
    """A metric's packed table and its betweenness table by the Python loop."""
    return m._between(), between_oracle(m)


def algebra_tables(a):
    """An algebra's packed table and its intervals as int masks."""
    return a._s.packed, interval_masks(a)


GRIDS = [(r, c) for r in range(1, 4) for c in range(r, 7) if r * c <= 12]

tables = st.one_of(
    st.builds(rational_tree_metric, st.integers(1, 12), st.integers(0, 10 ** 6)).map(
        metric_tables),
    st.sampled_from(GRIDS).map(lambda rc: metric_tables(grid_graph(*rc).path_metric())),
    st.integers(1, 3).map(lambda k: algebra_tables(boolean_median_algebra(k))),
)


def check_against_oracle(betw, within):
    got = halfspaces_oracle(betw, within)
    sides = [side for side, _ in got]
    assert sides == sorted(set(sides), key=members)
    first = within & -within
    assert all(side & first and side != within for side in sides)
    walls = {frozenset((side, within & ~side)) for side in sides}
    assert walls | {frozenset((within, 0))} == subsets_bruteforce_halfspaces(betw, within)
    inside = members(within)
    covering = [(x, y) for x in inside for y in inside
                if x < y and betw[x][y] == (1 << x) | (1 << y)]
    assert sorted(pair for _, pairs in got for pair in pairs) == covering
    for side, pairs in got:
        assert all((side >> x ^ side >> y) & 1 for x, y in pairs)


@settings(max_examples=40, deadline=None)
@given(tables)
def test_halfspaces_match_the_subset_oracle_within_every_halfspace(case):
    packed, betw = case
    got = halfspace_list(packed)
    assert got == halfspaces_oracle(betw)
    full = (1 << len(betw)) - 1
    check_against_oracle(betw, full)
    for side, _ in got:
        check_against_oracle(betw, side)
        check_against_oracle(betw, full & ~side)


@settings(max_examples=60, deadline=None)
@given(tables, st.data())
def test_is_convex_matches_the_ordered_pair_scan(case, data):
    packed, betw = case
    n = len(betw)
    mask = data.draw(st.integers(0, (1 << n) - 1))
    inside = [t for t in range(n) if mask >> t & 1]
    assert is_convex(packed, mask) == is_convex_oracle(betw, mask) == \
        all(not betw[a][b] & ~mask for a in inside for b in inside)


def test_single_point_and_empty_masks_have_no_proper_halfspace():
    packed, betw = metric_tables(grid_graph(2, 2).path_metric())
    assert halfspaces_oracle(betw, within=0b0100) == []
    assert halfspaces_oracle(betw, within=0) == []
    assert is_convex(packed, 0) and is_convex_oracle(betw, 0)


def certified_tree(n, seed):
    return MedianMetric.certify(rational_tree_metric(n, seed))


WIDE = {
    **{f"path{n}": path_graph(n).path_metric() for n in (1, 2, 63, 64, 65, 130)},
    **{f"tree{n}": rational_tree_metric(n, n) for n in (2, 63, 64, 65, 130)},
    "grid9x8": grid_graph(9, 8).path_metric(),
    "tree13xtree10": product(certified_tree(13, 1), certified_tree(10, 2)),
}


@pytest.mark.parametrize("name", list(WIDE))
def test_packed_kernels_match_the_python_kernels_across_word_boundaries(name):
    m = WIDE[name]
    n = len(m.points)
    packed, betw = metric_tables(m)
    assert [[m.between_mask(i, j) for j in range(n)] for i in range(n)] == betw
    walls = halfspace_list(packed)
    assert walls == halfspaces_oracle(betw)
    # convex sets (intervals, sides) and near misses of each, then random sets
    rng = random.Random(n)
    full = (1 << n) - 1
    masks = [0, full] + [rng.getrandbits(n) for _ in range(20)]
    for _ in range(20):
        i, j = rng.randrange(n), rng.randrange(n)
        masks += [betw[i][j], betw[i][j] | 1 << rng.randrange(n),
                  betw[i][j] & ~(1 << rng.choice(members(betw[i][j])))]
    for side, _ in walls:
        masks += [side, full & ~side, side ^ 1 << rng.randrange(n)]
    for mask in masks:
        assert is_convex(packed, mask) == is_convex_oracle(betw, mask)
    assert any(is_convex(packed, mask) for mask in masks[22:])
    assert n < 3 or not all(is_convex(packed, mask) for mask in masks)


# ---------------------------------------------------------------- median closure

@st.composite
def widened_images(draw):
    """An image of up to 7 bits, its median closure by the majority
    fixpoint, and both carried into a width of 0-7, 63, 64, 65 or 130
    bits by a map that copies, complements or fixes bits.  Each source bit
    is copied at least once, so the map is an injective median morphism
    and carries the closure onto the closure."""
    small = draw(st.integers(0, 7))
    image = draw(st.sets(st.integers(0, (1 << small) - 1), min_size=1, max_size=12))
    width = draw(st.sampled_from([small, small, 63, 64, 65, 130]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    sources = list(range(small))
    sources += [rng.choice(sources + [None]) for _ in range(width - small)]
    if width > small:
        rng.shuffle(sources)
    plan = [(src, rng.randrange(2) if width > small else 0) for src in sources]

    def carry(x):
        return sum(((x >> src & 1 if src is not None else 0) ^ flip) << j
                   for j, (src, flip) in enumerate(plan))

    return width, sorted(map(carry, image)), sorted(map(carry, majority_closure(image)))


@settings(max_examples=150, deadline=None)
@given(widened_images(), st.data())
def test_median_closure_test_matches_the_oracles(case, data):
    width, image, closure = case
    assert count_closure(image, width, len(closure)) == len(closure)
    assert closed(closure, width)
    assert closed(image, width) == closed_oracle(image) == (image == closure)
    # dropping an element can leave the set closed (an end of a path)
    drop = data.draw(st.sampled_from(closure))
    dropped = [v for v in closure if v != drop]
    assert closed(dropped, width) == closed_oracle(dropped)
    if len(closure) < 1 << width:
        outsider = data.draw(st.integers(0, (1 << width) - 1).filter(
            lambda v: v not in closure))
        grown = sorted(closure + [outsider])
        assert closed(grown, width) == closed_oracle(grown)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda w: st.tuples(
    st.just(w), st.sets(st.integers(0, (1 << w) - 1), max_size=20))))
def test_median_closure_test_holds_for_any_vertex_set(case):
    width, values = case
    assert closed(sorted(values), width) == closed_oracle(values)


def test_median_closure_of_nothing_is_empty():
    """The empty set is its own median closure, and so is one point."""
    assert closed([], 0) and closed([], 3)
    assert closed([0], 0) and closed([0b101], 3)


def test_the_tripod_without_its_centre_is_no_median_closure():
    w = WallSpace(["a", "b", "c"], [(["a"], ["b", "c"]), (["b"], ["a", "c"]),
                                    (["c"], ["a", "b"])])
    res = cubulate(w)
    bits = sorted(res.vertex_bits.values())
    image = sorted(res.vertex_bits[v] for v in res.embedding.values())
    assert len(bits) == 4 and len(image) == 3
    assert closed(bits, w.wall_count) and closed_oracle(bits)
    assert not closed(image, w.wall_count) and not closed_oracle(image)


def test_cube_coordinates_build_no_clause_table(monkeypatch):
    """Every branch of a cube's bit trie is present, so no block builds
    the clause tables; a tree's coordinates miss branches and do."""
    def forbidden(*args):
        raise AssertionError("a clause table was built")
    monkeypatch.setattr(intervals, "_clauses", forbidden)
    for k in range(1, 7):
        coords, width = _bfs_coordinates(hypercube_graph(k))
        assert width == k and closed(coords, width)
    coords, width = _bfs_coordinates(random_tree(12, 1))
    with pytest.raises(AssertionError, match="clause table"):
        closed(coords, width)


# ---------------------------------------------------------------- side order

@st.composite
def bit_matrices(draw):
    """A 0/1 matrix of n rows (1 to 130) and 0 to 130 columns, 63, 64 and
    65 among them, of a drawn density; some columns are copies of another
    cut off after a row and 1 from there on, so that the rows with a 0
    in one column are a prefix of those in another."""
    n = draw(st.one_of(st.sampled_from([1, 7, 9, 63, 65, 127, 129]), st.integers(1, 130)))
    width = draw(st.one_of(st.sampled_from([0, 1, 63, 64, 65]), st.integers(0, 130)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    bits = (rng.random((n, width)) < draw(st.sampled_from([0.05, 0.5, 0.95]))).astype(np.uint8)
    if width > 1 and draw(st.booleans()):
        for col in rng.integers(0, width, size=width // 2):
            src = rng.integers(0, width)
            cut = rng.integers(0, n + 1)
            bits[:cut, col] = bits[:cut, src]
            bits[cut:, col] = bits[0, src] ^ 1
    return bits


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65])
def test_digit_strings_match_format(width):
    rng = random.Random(width)
    values = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(20)]
    numerals = [format(v, f"0{width}b") if width else "" for v in values]
    bits = bit_rows(values, width)
    assert digit_strings(bits[:, ::-1]) == numerals
    assert digit_strings(bits) == [s[::-1] for s in numerals]


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
def test_certificate_order_matches_the_sorted_index_lists(bits):
    cert = MedianGraphCert(path_graph(len(bits)), bits)
    assert (cert.wall_bits, cert.codes.ints) == certificate_order_oracle(bits)
    assert row_ints(bits) == row_ints_oracle(bits)


@settings(max_examples=200, deadline=None)
@given(bit_matrices(), st.integers(0, 2 ** 32))
def test_wall_space_order_matches_the_sorted_member_tuples(bits, seed):
    rng = np.random.default_rng(seed)
    n = len(bits)
    points = list(range(n))
    columns = (bits ^ bits[0]).T                   # [wall, point], point 0 at 0
    walls = []
    for col in columns:
        side = [p for p in points if not col[p]]
        rest = [p for p in points if col[p]]
        walls.append((side, rest) if rng.random() < 0.5 else (rest, side))
    canonical = list(dict.fromkeys(row_ints_oracle(columns ^ 1)))
    full = (1 << n) - 1
    sides, sigma = wall_space_order_oracle(n, [m for m in canonical if m != full])
    if len(set(sigma)) != n:
        with pytest.raises(InputError, match="separated by no wall"):
            WallSpace(points, walls)
        return
    w = WallSpace(points, walls)
    assert w.codes.sides == sides
    assert w.codes.ints == sigma


# ---------------------------------------------------------------- the one wall record

RECORD_FAMILIES = ["tree", "grid", "cube", "product", "cubulation"]


def record_graph(family: str, seed: int) -> tuple[SimpleGraph, list]:
    """A seeded median graph of one family, with the records built with it:
    a random tree, a grid, a cube, the covering graph of a product of two
    tree metrics, or the cubulation of a random crossing wall space, with
    its certificate's record."""
    rng = random.Random(seed)
    if family == "tree":
        return random_tree(rng.randint(1, 30), seed), []
    if family == "grid":
        return grid_graph(rng.randint(1, 5), rng.randint(1, 6)), []
    if family == "cube":
        return hypercube_graph(rng.randint(0, 5)), []
    if family == "product":
        m = product(*(MedianMetric.certify(random_tree(rng.randint(1, 6), seed + t).path_metric())
                      for t in (0, 1)))
        return SimpleGraph(m.points, [(p, q) for p, q in itertools.combinations(m.points, 2)
                                      if m.dist(p, q) == 1]), []
    while True:
        try:
            w = random_crossing_wall_space(rng, rng.randint(2, 7), rng.randint(1, 8))
        except InputError:
            continue
        res = cubulate(w)
        return res.graph, [res.cert.codes]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RECORD_FAMILIES), st.integers(0, 10 ** 6))
def test_certificates_wall_spaces_and_halfspaces_build_one_record(family, seed):
    """The codes of a median graph's certificate, of its wall space and of
    the halfspaces of its path metric are one matrix, with the same ints
    and sides; the median algebra's halfspaces are those sides and the
    trivial one."""
    g, built = record_graph(family, seed)
    cert = certify_median_graph(g)
    m = g.path_metric()
    codes, pairs = halfspaces(m._between())
    for other in [graph_wall_space(cert).codes, codes, *built]:
        assert other.bits.shape == cert.codes.bits.shape
        assert (other.bits == cert.codes.bits).all()
        assert other.ints == cert.codes.ints and other.sides == cert.codes.sides
    assert not cert.codes.bits[0].any()
    assert len(pairs) == cert.codes.bits.shape[1]
    want = sorted([*map(frozenset, map(members, cert.codes.sides)), frozenset(range(len(g)))],
                  key=sorted)
    got = m.to_algebra().halfspaces()
    assert [frozenset(map(g.index, h.side)) for h in got] == want
    assert all(h.complement == frozenset(g.vertices) - h.side for h in got)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RECORD_FAMILIES), st.integers(0, 10 ** 6))
def test_halfspaces_seed_the_sides_a_fresh_record_packs(family, seed):
    """``halfspaces`` sets its record's sides from the off-masks it packed
    to group the pairs; they are the sides a record built on the same
    matrix reads off its columns."""
    g, _ = record_graph(family, seed)
    codes, _ = halfspaces(g.path_metric()._between())
    assert "sides" in vars(codes)
    assert codes.sides == WallCodes(codes.bits).sides
