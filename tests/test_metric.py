import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediankit import (FiniteMetric, InputError, MedianMetric, NotMedianError,
                       check_colinear_lemma, check_median_lipschitz, classify,
                       find_rectangles, intervals, product)
from mediankit.corpus import (complete_bipartite_graph, cycle_graph,
                              grid_graph, hypercube_graph, path_graph,
                              random_tree)

from conftest import (fraction_metric_oracle, is_metric_oracle, scaled_rows_oracle,
                      upper_triangle_oracle)
from mediankit.metric import _exact_array, _is_metric, _scaled_rows


def triple_intersections_oracle(metric):
    """Direct scan from the distance matrix, independent of the library's
    bitmask machinery."""
    pts = metric.points
    d = {(x, y): metric.dist(x, y) for x in pts for y in pts}

    def interval(x, y):
        return {t for t in pts if d[x, t] + d[t, y] == d[x, y]}

    out = {}
    for x, y, z in itertools.combinations(pts, 3):
        out[(x, y, z)] = interval(x, y) & interval(y, z) & interval(z, x)
    return out


# ---------------------------------------------------------------- validation

def test_construction_validates_the_axioms():
    with pytest.raises(InputError, match="asymmetric"):
        FiniteMetric(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(InputError, match="self-distance"):
        FiniteMetric(["a", "b"], [[1, 1], [1, 0]])
    with pytest.raises(InputError, match="non-positive"):
        FiniteMetric(["a", "b"], [[0, 0], [0, 0]])
    with pytest.raises(InputError, match="triangle"):
        FiniteMetric(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(InputError, match="float"):
        FiniteMetric(["a", "b"], [[0, 0.5], [0.5, 0]])


def test_rational_strings_and_exact_dist():
    m = FiniteMetric(["a", "b", "c"],
                     [[0, "1/2", "3/4"], ["1/2", 0, "1/4"], ["3/4", "1/4", 0]])
    assert m.dist("a", "b") == Fraction(1, 2)
    assert m.dist("a", "c") == Fraction(3, 4)
    assert m.scale == 4


def test_upper_triangle_round_trip():
    m = FiniteMetric.from_upper_triangle(["a", "b", "c"], [["1/2", "3/4"], ["1/4"]])
    assert m.dist("b", "c") == Fraction(1, 4)
    assert m.upper_triangle() == [[Fraction(1, 2), Fraction(3, 4)], [Fraction(1, 4)]]


BIG = 1 << 62            # entries from here on take the exact object path

JUNK = st.one_of(st.floats(allow_nan=True), st.booleans(), st.none(),
                 st.lists(st.integers(0, 3), max_size=2),
                 st.sampled_from(["abc", "1/0", "", "1//2", "0x10", "nan", "inf",
                                  "-3", "0", "0/7", "2**3"]),
                 st.integers(-3, 3), st.integers(2 ** 63, 2 ** 70))


@st.composite
def spellings(draw, value: Fraction):
    """One of the input spellings of a rational accepted by _to_fraction."""
    forms = [value, str(value), f" {value} ",
             f"{value.numerator * 3}/{value.denominator * 3}"]
    if value.denominator == 1:
        v = value.numerator
        forms += [v, f"{v:_}", f"{v}e0", f"{v}.0"] + [True] * (v == 1)
    if value.denominator == 2:
        forms.append(f"{value.numerator // 2}.5")
    return draw(st.sampled_from(forms))


@st.composite
def raw_metrics(draw):
    """A points list and a square matrix of raw entries: valid metrics in
    every spelling, with seeded faults (junk entries, asymmetry, zero or
    negative distances, nonzero diagonals, triangle violations, ragged
    rows, repeated points) and magnitudes past 2^62."""
    n = draw(st.integers(1, 6))
    unit = draw(st.sampled_from([1, 1, BIG, 1 << 70]))
    lo = draw(st.integers(1, 8))
    hi = draw(st.sampled_from([lo, 2 * lo, 5 * lo]))   # lo..2lo keeps triangles
    den = draw(st.sampled_from([1, 1, 2, 3, 6]))
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(st.sampled_from([0, "0", Fraction(0), False, "0/5", " 0 "]))
        for j in range(i + 1, n):
            v = Fraction(draw(st.integers(lo, hi)) * unit, den)
            m[i][j] = draw(spellings(v))
            m[j][i] = draw(spellings(v))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            m[i][j] = draw(JUNK)
        else:                                      # a symmetric change
            k = draw(st.one_of(st.integers(-1, 0), st.integers(1, 6 * hi)))
            v = Fraction(k * unit, den)
            m[i][j], m[j][i] = draw(spellings(v)), draw(spellings(v))
    if n > 1 and draw(st.integers(0, 9)) == 0:
        m[draw(st.integers(0, n - 1))].pop()
    pts = list(range(n))
    if n > 1 and draw(st.integers(0, 9)) == 0:
        pts[-1] = 0
    return pts, m


def outcome(build, *args):
    try:
        got = build(*args)
    except Exception as exc:       # the exception is the outcome
        return type(exc), str(exc)
    return got if isinstance(got, tuple) else (got.scale, got._di)


@settings(max_examples=200, deadline=None)
@given(raw_metrics())
def test_construction_matches_the_fraction_oracle(raw):
    pts, m = raw
    got = outcome(FiniteMetric, pts, m)
    assert got == outcome(fraction_metric_oracle, pts, m)
    if not isinstance(got[0], type):
        assert all(type(v) is int for row in got[1] for v in row)


@settings(max_examples=150, deadline=None)
@given(raw_metrics(), st.booleans(), st.integers(-1, 5))
def test_upper_triangle_matches_the_fraction_oracle(raw, trailing_row, cut):
    pts, m = raw
    n = len(pts)
    rows = [row[i + 1:] for i, row in enumerate(m[:n - 1])]
    if trailing_row:
        rows.append([])
    if 0 <= cut < len(rows) and rows[cut]:
        rows[cut] = rows[cut][1:]                  # a short row
    assert outcome(FiniteMetric.from_upper_triangle, pts, rows) == \
        outcome(upper_triangle_oracle, pts, rows)


def test_ingestion_edge_cases_match_the_oracle():
    big = 1 << 70
    cases = [
        (["a", "b"], [[0, "1e400"], ["1e400", 0]]),
        (["a", "b"], [[0, " 1 "], ["1_000", 0]]),
        (["a", "b"], [[0, "1_000"], ["1000", 0]]),
        (["a", "b"], [[0, "1.5"], ["3/2", 0]]),
        (["a", "b"], [[0, True], [1, 0]]),
        (["a", "b"], [[0, 1.0], [1, 0]]),
        (["a", "b"], [[0, "1/0"], ["1/0", 0]]),
        (["a", "b", "c"], [[0, 2, 2], [2, 0, 2], [2, 2, 1]]),
        (["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]]),
        (["a", "b", "c"], [[0, big, big], [big, 0, big], [big, big, 0]]),
        (["a", "b", "c"], [[0, big, 3 * big], [big, 0, big], [3 * big, big, 0]]),
        (["a", "b", "c"], [[0, -big, big], [-big, 0, big], [big, big, 0]]),
        (["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
    ]
    for middle in range(4):                 # one violated triangle, each middle point
        for unit in (1, big):
            d = [[0 if i == j else 2 * unit for j in range(4)] for i in range(4)]
            i, j = (t for t in range(4) if t != middle and t != (middle + 1) % 4)
            d[i][middle] = d[middle][i] = d[j][middle] = d[middle][j] = unit
            d[i][j] = d[j][i] = 3 * unit
            cases.append((["a", "b", "c", "d"], d))
    for pts, m in cases:
        assert outcome(FiniteMetric, pts, m) == outcome(fraction_metric_oracle, pts, m)
    m = FiniteMetric(["a", "b"], [[0, "1e400"], ["1e400", 0]])
    assert m.dist_int(0, 1) == 10 ** 400 and m.scale == 1


# ------------------------------------------------------------ ingest kernels

GOOD_ENTRIES = [0, 1, 3, 1 << 70, "2", "1/2", "2/4", " 7 ", "1e3", "0.25", "-3",
                Fraction(1, 3), Fraction(4, 2)]
BAD_ENTRIES = ["abc", "1/0", "", "x/y", True, False, 1.5, float("nan"), None, [1]]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.one_of(st.sampled_from(GOOD_ENTRIES),
                                   st.sampled_from(GOOD_ENTRIES),
                                   st.sampled_from(GOOD_ENTRIES),
                                   st.sampled_from(BAD_ENTRIES)), max_size=6), max_size=6))
def test_table_ingest_matches_the_row_scan(rows):
    got = outcome(_scaled_rows, rows)
    assert got == outcome(scaled_rows_oracle, rows)
    if not isinstance(got[0], type):
        assert all(type(v) is int for row in got[0] for v in row)


@pytest.mark.parametrize("late", ["x/y", True, 1.5, "1/0"])
def test_ingest_reports_the_first_bad_entry_in_row_major_order(late):
    # the table parses distinct entries in set order; the report must not
    for rows in ([[0, "1", late], ["bad", 0, "1/2"], [Fraction(1, 3), 2, 0]],
                 [[0, "1", "bad"], [late, 0, "1/2"], [Fraction(1, 3), 2, late]]):
        got = outcome(_scaled_rows, rows)
        assert got[0] is InputError
        assert got == outcome(scaled_rows_oracle, rows)
    assert outcome(_scaled_rows, [[0, "bad"], [late, 0]])[1].startswith("bad rational 'bad'")


def test_ingest_maps_equal_entries_of_different_types_to_one_value():
    rows = [[0, 1, "1", Fraction(1)], ["2/2", Fraction(1, 2), "1/2", "0.5"]]
    assert _scaled_rows(rows) == ([[0, 2, 2, 2], [2, 1, 1, 1]], 2) == scaled_rows_oracle(rows)


def _one_short_cut(n: int, k: int, unit: int) -> list[list[int]]:
    """Distances 4 * unit, except unit from k to two other points i < j, so
    the only failed triangle is d(i,k) + d(k,j) < d(i,j), through k."""
    d = [[0 if a == b else 4 * unit for b in range(n)] for a in range(n)]
    i, j = [t for t in range(n) if t != k][:2]
    d[i][k] = d[k][i] = d[j][k] = d[k][j] = unit
    return d


@pytest.mark.parametrize("n, unit", [(3, 1), (28, 1), (49, 1), (60, 1), (100, 1),
                                     (3, BIG), (49, BIG)])
def test_blocked_triangle_check_finds_a_short_cut_through_every_middle_point(n, unit):
    step = max(1, intervals.BLOCK // (n * n))      # middle points per block of BIG entries
    middles = range(n) if unit == 1 else sorted({0, step - 1, step, n - 1} & set(range(n)))
    for k in middles:
        d = _one_short_cut(n, k, unit)
        assert _is_metric(_exact_array(d)) is False
        assert is_metric_oracle(d) is False
        i, j = [t for t in range(n) if t != k][:2]
        d[i][j] = d[j][i] = 2 * unit               # the triangle now holds
        assert _is_metric(_exact_array(d)) is True
        assert is_metric_oracle(d) is True


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 70), st.integers(0, 10 ** 6), st.sampled_from([1, BIG]))
def test_metric_check_matches_the_per_point_oracle(n, seed, unit):
    rng = random.Random(seed)
    dim = rng.randint(1, 3)                        # l1 metrics: many tight triangles
    pts: set = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(0, 200 // dim ** 2) for _ in range(dim)))
    d = [[unit * sum(abs(a - b) for a, b in zip(p, q)) for q in pts] for p in pts]
    assert _is_metric(_exact_array(d)) is True
    for _ in range(rng.randint(1, 3)):             # symmetric changes of one entry
        i, j = rng.sample(range(n), 2)
        d[i][j] = d[j][i] = rng.randint(0, 3 * max(d[i])) * rng.choice([1, 1, -1])
    assert _is_metric(_exact_array(d)) == is_metric_oracle(d)


# ---------------------------------------------------------------- intervals

def test_interval_of_a_point_with_itself():
    m = path_graph(3).path_metric()
    for p in m.points:
        assert m.geodesic_interval(p, p) == frozenset({p})


def test_path_interval_is_everything_between():
    m = path_graph(3).path_metric()
    v0, v1, v2 = m.points
    assert m.geodesic_interval(v0, v2) == frozenset({v0, v1, v2})


def test_six_cycle_interval():
    m = cycle_graph(6).path_metric()
    v = m.points
    assert m.geodesic_interval(v[0], v[2]) == frozenset({v[0], v[1], v[2]})


# ---------------------------------------------------------------- classify

def test_tree_metrics_are_median():
    for seed in (1, 5, 9):
        m = random_tree(10, seed).path_metric()
        assert classify(m).kind == "median"


def test_six_cycle_is_neither_with_an_empty_triple():
    m = cycle_graph(6).path_metric()
    c = classify(m)
    assert c.kind == "neither"
    assert c.intersection == frozenset()
    x, y, z = c.witness
    oracle = triple_intersections_oracle(m)
    key = tuple(sorted((x, y, z), key=m.points.index))
    assert oracle[key] == set()


def test_k23_is_modular_not_median():
    m = complete_bipartite_graph(2, 3).path_metric()
    c = classify(m)
    assert c.kind == "modular"
    assert len(c.intersection) > 1
    oracle = triple_intersections_oracle(m)
    assert all(len(v) >= 1 for v in oracle.values())
    assert any(len(v) > 1 for v in oracle.values())


def test_classify_matches_oracle_on_mixed_instances():
    for g in (path_graph(5), cycle_graph(4), cycle_graph(5), hypercube_graph(3)):
        m = g.path_metric()
        oracle = triple_intersections_oracle(m)
        sizes = [len(v) for v in oracle.values()]
        if all(s == 1 for s in sizes):
            expect = "median"
        elif all(s >= 1 for s in sizes):
            expect = "modular"
        else:
            expect = "neither"
        assert classify(m).kind == expect


def test_classify_stops_at_the_first_empty_triple(monkeypatch):
    m = cycle_graph(60).path_metric()
    betw = m._between()
    triples = list(itertools.combinations(range(60), 3))
    scanned = 1 + next(k for k, (i, j, l) in enumerate(triples)
                       if not betw[i][j] & betw[j][l] & betw[l][i])
    assert scanned < 100 < len(triples)
    full = classify(m)
    assert full.kind == "neither"
    assert full.witness == tuple(m.points[t] for t in triples[scanned - 1])
    rows = []
    kernel = intervals.meet_counts

    def counting(*args, **kwargs):
        for block in kernel(*args, **kwargs):
            rows.append(block[0])
            yield block
    monkeypatch.setattr(intervals, "meet_counts", counting)
    assert classify(m) == full
    assert rows == [0]          # the witness lies in the first block of rows


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10 ** 6))
def test_classify_witness_matches_the_oracle_scan(n, seed):
    import random
    from conftest import random_shortest_path_metric
    m = random_shortest_path_metric(random.Random(seed), n)
    oracle = triple_intersections_oracle(m)
    empty = [t for t, common in oracle.items() if not common]
    multi = [t for t, common in oracle.items() if len(common) > 1]
    got = classify(m)
    if empty:
        assert (got.kind, got.witness, got.intersection) == ("neither", empty[0], frozenset())
    elif multi:
        assert (got.kind, got.witness, got.intersection) == \
            ("modular", multi[0], frozenset(oracle[multi[0]]))
    else:
        assert got.kind == "median"


# ---------------------------------------------------------------- medians

def test_median_point_degenerate_triple():
    m = MedianMetric.certify(path_graph(3).path_metric())
    for x in m.points:
        for y in m.points:
            assert m.median_point(x, x, y) == x


def test_four_cycle_median_and_leg_value():
    m = MedianMetric.certify(cycle_graph(4).path_metric())
    v = m.points
    assert m.median_point(v[0], v[1], v[2]) == v[1]
    legs = (m.dist(v[0], v[1]) + m.dist(v[0], v[2]) - m.dist(v[1], v[2])) / 2
    assert m.dist(v[0], m.median_point(v[0], v[1], v[2])) == legs == 1


def test_cube_median_is_bitwise_majority():
    m = MedianMetric.certify(hypercube_graph(3).path_metric())
    assert m.median_point("000", "011", "101") == "001"
    assert m.dist("000", "001") == 1
    for x, y, z in itertools.combinations(m.points, 3):
        maj = "".join("1" if (a + b + c).count("1") >= 2 else "0"
                      for a, b, c in zip(x, y, z))
        assert m.median_point(x, y, z) == maj


def test_median_table_fills_on_demand():
    grid = grid_graph(3, 3).path_metric()
    m = MedianMetric(grid.points, [[grid.dist(x, y) for y in grid.points]
                                   for x in grid.points])
    assert m._med == {}                  # certification keeps no table
    for x, y, z in itertools.combinations(m.points, 3):
        m.median_point(x, y, z)
    assert len(m._med) == 84


def test_leg_identity_exact_on_all_triples():
    for g in (path_graph(4), cycle_graph(4), hypercube_graph(3), grid_graph(3, 3)):
        m = MedianMetric.certify(g.path_metric())
        for x, y, z in itertools.combinations(m.points, 3):
            md = m.median_point(x, y, z)
            assert m.dist(x, md) == (m.dist(x, y) + m.dist(x, z) - m.dist(y, z)) / 2
            assert m.dist(y, md) == (m.dist(y, x) + m.dist(y, z) - m.dist(x, z)) / 2
            assert m.dist(z, md) == (m.dist(z, x) + m.dist(z, y) - m.dist(x, y)) / 2


def test_certify_rejects_non_median_with_witness():
    with pytest.raises(NotMedianError) as err:
        MedianMetric.certify(cycle_graph(6).path_metric())
    assert err.value.witness.kind == "neither"


# ---------------------------------------------------------------- products

def test_product_with_a_point_is_isometric():
    single = MedianMetric.certify(FiniteMetric(["o"], [[0]]))
    m = MedianMetric.certify(path_graph(4).path_metric())
    prod = product(single, m)
    for x in m.points:
        for y in m.points:
            assert prod.dist(("o", x), ("o", y)) == m.dist(x, y)


def test_edge_times_edge_is_the_unit_square():
    edge = MedianMetric.certify(path_graph(2).path_metric())
    square = product(edge, edge)
    c4 = MedianMetric.certify(cycle_graph(4).path_metric())
    v = c4.points
    ident = {("v0", "v0"): v[0], ("v0", "v1"): v[1],
             ("v1", "v1"): v[2], ("v1", "v0"): v[3]}
    for p in square.points:
        for q in square.points:
            assert square.dist(p, q) == c4.dist(ident[p], ident[q])


def assert_product_median_is_componentwise(m1, m2):
    prod = product(m1, m2)
    assert classify(prod).kind == "median"
    assert len(prod.points) == len(m1.points) * len(m2.points)
    for a, b, c in itertools.combinations(prod.points, 3):
        want = (m1.median_point(a[0], b[0], c[0]), m2.median_point(a[1], b[1], c[1]))
        assert prod.median_point(a, b, c) == want


def test_product_median_is_componentwise_on_p3_grid():
    # product() runs no triple scan, so the medians are checked here
    p3 = MedianMetric.certify(path_graph(3).path_metric())
    assert_product_median_is_componentwise(p3, p3)
    weighted = MedianMetric.certify(FiniteMetric(
        ["a", "b", "c", "d"],
        [[0, "1/2", "7/2", "5/2"], ["1/2", 0, 3, 2], ["7/2", 3, 0, 5], ["5/2", 2, 5, 0]]))
    assert_product_median_is_componentwise(weighted, p3)


# ---------------------------------------------------------------- lemmas

def test_colinear_lemma_holds_on_fixtures():
    for g in (random_tree(8, 3), cycle_graph(4), hypercube_graph(3)):
        m = MedianMetric.certify(g.path_metric())
        rep = check_colinear_lemma(m)
        assert rep.passed and rep.mode == "exhaustive"
        assert rep.checked > 0


def test_lipschitz_lemmas_hold_on_four_cycle_exhaustively():
    m = MedianMetric.certify(cycle_graph(4).path_metric())
    rep = check_median_lipschitz(m)
    assert rep.passed
    assert rep.near_median.mode == "exhaustive"
    assert rep.median_map.mode == "exhaustive"


def test_lipschitz_sampling_mode_above_cap():
    m = MedianMetric.certify(random_tree(14, 2).path_metric())
    rep = check_median_lipschitz(m, pair_cap=12, samples=2000, seed=5)
    assert rep.passed
    assert rep.median_map.mode == "sampled"
    assert rep.median_map.seed is not None


def test_lipschitz_part_two_oracle_small():
    """Direct ordered-sextuple scan must agree with the multiset reduction."""
    m = MedianMetric.certify(path_graph(3).path_metric())
    pts = m.points
    for tup in itertools.product(pts, repeat=6):
        x, y, z, x2, y2, z2 = tup
        lhs = m.dist(m.median_point(x, y, z), m.median_point(x2, y2, z2))
        rhs = m.dist(x, x2) + m.dist(y, y2) + m.dist(z, z2)
        assert lhs <= rhs
    assert check_median_lipschitz(m).passed


# ---------------------------------------------------------------- rectangles

def test_degenerate_rectangles_always_present():
    m = MedianMetric.certify(path_graph(4).path_metric())
    rects = find_rectangles(m)
    for x in m.points:
        for z in m.points:
            assert (x, x, z, z) in rects


def test_four_cycle_is_a_rectangle():
    m = MedianMetric.certify(cycle_graph(4).path_metric())
    v = m.points
    rects = find_rectangles(m)
    assert (v[0], v[1], v[2], v[3]) in rects


def test_trees_have_only_flat_rectangles():
    m = MedianMetric.certify(path_graph(4).path_metric())
    for x, y, z, t in find_rectangles(m):
        assert len({x, y, z, t}) <= 2


def test_rectangle_opposite_sides_equal():
    m = MedianMetric.certify(grid_graph(2, 3).path_metric())
    for x, y, z, t in find_rectangles(m):
        assert m.dist(x, y) == m.dist(z, t)
        assert m.dist(y, z) == m.dist(t, x)


# ---------------------------------------------------------------- l1 medians

def test_l1_vector_median_is_coordinatewise():
    vectors = [(i, j) for i in range(3) for j in range(3)]
    names = [f"{i}{j}" for i, j in vectors]
    rows = [[sum(abs(a - b) for a, b in zip(u, v)) for v in vectors]
            for u in vectors]
    m = MedianMetric.certify(FiniteMetric(names, rows))
    coord = dict(zip(names, vectors))
    for x, y, z in itertools.combinations(names, 3):
        med = m.median_point(x, y, z)
        want = tuple(sorted((coord[x][k], coord[y][k], coord[z][k]))[1]
                     for k in range(2))
        assert coord[med] == want


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_trees_certify_and_legs_hold(seed):
    m = MedianMetric.certify(random_tree(9, seed).path_metric())
    pts = m.points
    x, y, z = pts[0], pts[len(pts) // 2], pts[-1]
    md = m.median_point(x, y, z)
    assert m.dist(x, md) == (m.dist(x, y) + m.dist(x, z) - m.dist(y, z)) / 2
