"""The interval kernel against the 2^n subset oracle, for n <= 12."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boolean_median_algebra, subsets_bruteforce_halfspaces
from mediankit import FiniteMetric
from mediankit.corpus import grid_graph
from mediankit.intervals import halfspaces, is_convex, members


def rational_tree_table(n, seed):
    """Betweenness table of a random tree with rational edge weights;
    vertex i > 0 hangs below a parent with a smaller index."""
    rng = random.Random(seed)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        parent = rng.randrange(i)
        weight = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for j in range(i):
            dist[i][j] = dist[j][i] = dist[parent][j] + weight
    return FiniteMetric(list(range(n)), dist)._between()


GRIDS = [(r, c) for r in range(1, 4) for c in range(r, 7) if r * c <= 12]

tables = st.one_of(
    st.builds(rational_tree_table, st.integers(1, 12), st.integers(0, 10 ** 6)),
    st.sampled_from(GRIDS).map(lambda rc: grid_graph(*rc).path_metric()._between()),
    st.integers(1, 3).map(lambda k: boolean_median_algebra(k)._s.masks),
)


def check_against_oracle(betw, within):
    got = halfspaces(betw, within)
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
def test_halfspaces_match_the_subset_oracle_within_every_halfspace(betw):
    full = (1 << len(betw)) - 1
    check_against_oracle(betw, full)
    for side, _ in halfspaces(betw):
        check_against_oracle(betw, side)
        check_against_oracle(betw, full & ~side)


@settings(max_examples=60, deadline=None)
@given(tables, st.data())
def test_is_convex_matches_the_ordered_pair_scan(betw, data):
    n = len(betw)
    mask = data.draw(st.integers(0, (1 << n) - 1))
    inside = [t for t in range(n) if mask >> t & 1]
    assert is_convex(betw, mask) == all(not betw[a][b] & ~mask
                                        for a in inside for b in inside)


def test_single_point_and_empty_masks_have_no_proper_halfspace():
    betw = grid_graph(2, 2).path_metric()._between()
    assert halfspaces(betw, within=0b0100) == []
    assert halfspaces(betw, within=0) == []
    assert is_convex(betw, 0)
