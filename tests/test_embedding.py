import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bareiss_rows_oracle, centered_gram, convex_sets_oracle, coordinate_int,
                      distance_form_oracle, eigh_gns_oracle, hamming,
                      fraction_negdef_oracle, fraction_psd_eliminate, helly_witness_oracle,
                      hypermetric_oracle, random_shortest_path_metric,
                      retraction_oracle, zero_sum_sampling_oracle)
from mediankit import (FiniteMetric, InputError, MedianMetric,
                       ResourceLimitError, certify_hypermetric,
                       certify_median_graph, certify_negative_definite,
                       check_helly, gns_embed, l1_embed,
                       product, retraction_decomposition)
from mediankit.corpus import (complete_bipartite_graph, cycle_graph,
                              graph_instances, grid_graph, hypercube_graph,
                              path_graph, random_tree)
from mediankit import cli, embedding, formats, intervals
from mediankit.embedding import (_integer_gram, _psd_eliminate, _zero_sum, convex_sets,
                                 distance_form)
from mediankit.metric import _exact_array


def random_zero_sum(rng, n, span=6):
    vec = [Fraction(rng.randint(-span, span), rng.randint(1, 4))
           for _ in range(n)]
    vec[-1] -= sum(vec)
    return vec


# ------------------------------------------------------ negative definiteness

def test_p3_spot_value_and_certificate():
    m = path_graph(3).path_metric()
    cert = certify_negative_definite(m)
    assert cert.negative_definite
    assert cert.witness is None
    assert distance_form(m, [1, -2, 1]) == -4
    assert all(p >= 0 for p in cert.pivots)


def test_tiny_metrics_are_negative_definite():
    one = FiniteMetric(["a"], [[0]])
    assert certify_negative_definite(one).negative_definite
    two = FiniteMetric(["a", "b"], [[0, "7/3"], ["7/3", 0]])
    cert = certify_negative_definite(two)
    assert cert.negative_definite
    # zero-sum pairs give -2 a^2 d
    assert distance_form(two, [1, -1]) == Fraction(-14, 3)


def test_five_cycle_decided_and_oracle_agrees():
    m = cycle_graph(5).path_metric()
    cert = certify_negative_definite(m)
    assert cert.negative_definite
    assert zero_sum_sampling_oracle(m, samples=10_000, seed=3) <= 0


def test_k23_is_not_negative_definite_with_witness():
    m = complete_bipartite_graph(2, 3).path_metric()
    cert = certify_negative_definite(m)
    assert not cert.negative_definite
    alpha = cert.witness
    assert sum(alpha) == 0
    assert cert.form_value(alpha) > 0
    # the classical violating vector
    assert distance_form(m, [3, 3, -2, -2, -2]) == 12


def test_median_instances_are_negative_definite():
    for g in (path_graph(6), cycle_graph(4), hypercube_graph(3),
              grid_graph(3, 3), random_tree(20, 4)):
        cert = certify_negative_definite(g.path_metric())
        assert cert.negative_definite


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_centered_form_matches_distance_form_on_zero_sums(seed):
    rng = random.Random(seed)
    m = cycle_graph(4).path_metric()
    cert = certify_negative_definite(m)
    g, scale = _integer_gram(cert.metric)
    b = [[Fraction(v, scale) for v in row] for row in g.tolist()]
    assert b == centered_gram(m)
    alpha = random_zero_sum(rng, len(m.points))
    via_b = sum(alpha[i] * alpha[j] * b[i][j]
                for i in range(4) for j in range(4))
    assert via_b == -distance_form(m, alpha) / 2
    assert distance_form(m, alpha) == sum(
        alpha[i] * alpha[j] * m.dist(x, y)
        for i, x in enumerate(m.points) for j, y in enumerate(m.points))


@st.composite
def form_cases(draw):
    """A metric with entries in [B, 2B] (so every triangle holds): integer,
    or rational with denominators D * k; and coefficients that are
    Fractions with large denominators, or integers whose largest puts
    n^2 max|a|^2 max D within a few units of the 2^62 switch to Python ints."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(1, 12))
    big = draw(st.sampled_from([1, 2 ** 10, 2 ** 20, 2 ** 30, 2 ** 40]))
    den = draw(st.sampled_from([1, 1, 3, 2 ** 16, 10 ** 12]))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k = rng.choice((1, 2, 3, 5, 7)) if den > 1 else 1
            rows[i][j] = rows[j][i] = big * (1 + Fraction(rng.randint(0, den), den * k))
    m = FiniteMetric(list(range(n)), rows)
    if draw(st.booleans()):
        coeffs = [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 15))
                  for _ in range(n)]
    else:
        top = max(1, math.isqrt((1 << 62) // (n * n * max(int(m._d.max()), 1)))
                  + draw(st.integers(-2, 2)))
        coeffs = [rng.randint(-top, top) for _ in range(n)]
        coeffs[rng.randrange(n)] = rng.choice((-top, top))
    return m, coeffs


@settings(max_examples=300, deadline=None)
@given(form_cases())
def test_distance_form_matches_the_generator_oracle(case):
    m, coeffs = case
    assert distance_form(m, coeffs) == distance_form_oracle(m, coeffs)


def one_two_metric(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice((1, 2))
    return FiniteMetric(list(range(n)), rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(("shortest-path", "one-two", "grid")))
def test_certificate_matches_rational_elimination(seed, family):
    rng = random.Random(seed)
    if family == "shortest-path":
        m = random_shortest_path_metric(rng, rng.randint(1, 9))
    elif family == "one-two":
        m = one_two_metric(rng, rng.randint(2, 12))
    else:
        m = grid_graph(rng.randint(1, 4), rng.randint(1, 4)).path_metric()
    assert_certificate_matches_the_oracle(m)


def assert_certificate_matches_the_oracle(m):
    cert = certify_negative_definite(m)
    assert (cert.negative_definite, cert.pivots, cert.witness) == \
        fraction_negdef_oracle(m)
    if cert.witness is not None:
        assert sum(cert.witness) == 0
        assert cert.witness_value == distance_form(m, cert.witness) > 0
    return cert


def random_weighted_tree_metric(rng, n) -> FiniteMetric:
    """Path metric of a random tree with rational edge weights."""
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        parent, weight = rng.randrange(i), Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for j in range(i):
            dist[i][j] = dist[j][i] = dist[parent][j] + weight
    return FiniteMetric(list(range(n)), dist)


def test_certificate_matches_rational_elimination_at_bench_sizes():
    rng = random.Random(12)
    metrics = [random_l1_metric(rng, n, dim, span)
               for n, dim, span in ((24, 3, 6), (32, 3, 7), (40, 4, 6))]
    metrics += [random_weighted_tree_metric(rng, n) for n in (24, 30)]
    metrics += [one_two_metric(rng, 48) for _ in range(2)]
    verdicts = [assert_certificate_matches_the_oracle(m).negative_definite for m in metrics]
    assert verdicts == [True] * 5 + [False] * 2


@st.composite
def symmetric_integer_matrices(draw):
    n = draw(st.integers(1, 6))
    small = st.integers(-2, 2)
    hollow = draw(st.booleans())    # a zero diagonal reaches the zero-diagonal exit
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + hollow, n):
            a[i][j] = a[j][i] = draw(small)
    # adding a PSD part sum_r x_r x_r^T keeps the elimination going for a while
    xs = draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=n))
    return [[a[i][j] + sum(x[i] * x[j] for x in xs) for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(symmetric_integer_matrices())
def test_integer_elimination_matches_rational_elimination(g):
    got = _psd_eliminate(g)
    assert got[:3] == fraction_psd_eliminate(g)
    assert_bareiss_multiples(got, g)
    n = len(g)
    if not got.psd:
        v = got.witness
        assert sum(v[i] * g[i][j] * v[j] for i in range(n) for j in range(n)) < 0
    else:
        assert ldl_product(got, n) == [[Fraction(v) for v in row] for row in g]


def ldl_product(got, n) -> list[list[Fraction]]:
    """L diag(pivots) L^T from the factor of an elimination, in Fractions."""
    lower = [[Fraction(col[i], col[q]) for q, col in zip(got.order, got.columns)]
             for i in range(n)]
    return [[sum((a * d * b for a, d, b in zip(lower[i], got.pivots, lower[j])), Fraction(0))
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("g, pivots, witness", [
    # a negative diagonal, at once and after one pivot
    ([[-1]], [], [1]),
    ([[1, 2], [2, 1]], [1], [-2, 1]),
    # a zero diagonal with a nonzero off-diagonal entry, at once and after a pivot
    ([[0, 1], [1, 0]], [], [1, -1]),
    ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], [1], [0, 1, -1]),
    ([[0, -3], [-3, 0]], [], [1, 1]),
    # all zeros left: the pivots are padded with zeros
    ([[0, 0], [0, 0]], [0, 0], None),
    ([[4, 2, 0], [2, 1, 0], [0, 0, 0]], [4, 0, 0], None),
])
def test_each_exit_of_the_integer_elimination(g, pivots, witness):
    got = _psd_eliminate(g)
    assert got[:3] == (witness is None, pivots, witness)
    assert got[:3] == fraction_psd_eliminate(g)
    assert len(got.order) == len(got.columns) == sum(p > 0 for p in pivots)


def assert_same_factor(got, want) -> list[Fraction]:
    """got and want agree exactly on the verdict, the pivots, the witness
    and the pivot order, and on the factor L: each of want's columns is a
    positive multiple of got's.  Returns those multiples, in pivot order."""
    assert got[:4] == want[:4]
    ratios = []
    for q, a, b in zip(got.order, got.columns, want.columns):
        r = Fraction(b[q], a[q])
        assert r > 0 and [r * v for v in a] == b
        ratios.append(r)
    return ratios


def assert_bareiss_multiples(got, g) -> None:
    """got factors g as Bareiss elimination (the row oracle) does, and
    every Bareiss column is an integer multiple of got's."""
    ratios = assert_same_factor(got, bareiss_rows_oracle(g))
    assert all(r.denominator == 1 for r in ratios)


WORD = 1 << 31


def word_steps(g, reduced: bool = True) -> tuple[int, list[list[int]]]:
    """Full-matrix elimination with greedy diagonal pivoting in Python
    ints.  Returns how many pivots it takes while every entry is below
    2^31 in size (the steps that may run on int64 words), and the columns
    of all its positive pivots.  ``reduced`` divides g and each step by
    the gcd of the entries; otherwise each step is divided by the last
    pivot, as Bareiss does."""
    n = len(g)
    w = [[int(v) for v in row] for row in g]
    content = math.gcd(*itertools.chain.from_iterable(w)) if reduced else 1
    w = [[v // (content or 1) for v in row] for row in w]
    last, steps, columns = 1, None, []
    while len(columns) < n:
        if steps is None and not all(-WORD < v < WORD for row in w for v in row):
            steps = len(columns)
        t = max(range(n), key=lambda i: w[i][i])
        p = w[t][t]
        if p <= 0:
            break
        c = w[t][:]
        columns.append(c)
        w = [[p * w[i][j] - c[i] * c[j] for j in range(n)] for i in range(n)]
        div = (math.gcd(*itertools.chain.from_iterable(w)) or 1) if reduced else last
        w = [[v // div for v in row] for row in w]
        last = p
    return len(columns) if steps is None else steps, columns


def gram_crossing_at(step: int, n: int = 7, rank: int = 5) -> list[list[int]]:
    """A seeded Gram matrix X X^T, X an integer n x rank matrix, whose
    elimination outgrows 2^31 after exactly ``step`` pivots."""
    for seed in range(100):
        for bits in range(1, 40):
            rng = random.Random(seed * 100 + bits)
            x = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(rank)] for _ in range(n)]
            g = [[sum(a * b for a, b in zip(u, v)) for v in x] for u in x]
            got = word_steps(g)[0]
            if got == step:
                return g
            if got < step:
                break
    raise AssertionError(f"no Gram matrix crosses 2^31 after {step} steps")


@pytest.mark.parametrize("step", range(5))
def test_word_steps_hand_over_to_python_ints_at_each_step(step):
    g = gram_crossing_at(step)
    steps, columns = word_steps(g)
    assert steps == step
    assert step >= word_steps(g, reduced=False)[0]
    got = _psd_eliminate(g)
    assert got.columns == columns
    assert_bareiss_multiples(got, g)
    assert got[:3] == fraction_psd_eliminate(g)
    assert got.psd and len(got.order) == 5          # rank 5 of 7
    assert _psd_eliminate(np.array(g, dtype=object)) == got


@pytest.mark.parametrize("step", range(4))
@pytest.mark.parametrize("exit_case", [
    [[1, 2], [2, 1]],                               # a negative diagonal
    [[0, 1], [1, 0]],                               # zero diagonal, nonzero off-diagonal
    [[1, 1, 1], [1, 1, 2], [1, 2, 1]],              # the same after a pivot
    [[4, 2, 0], [2, 1, 0], [0, 0, 0]],              # PSD, zeros left
], ids=["negative", "hollow", "hollow-after-pivot", "psd"])
def test_each_exit_after_the_hand_over(step, exit_case):
    # a block of large pivots first: the small block's exit comes in Python ints
    big = gram_crossing_at(step)
    k, e = len(big), len(exit_case)
    g = [row + [0] * e for row in big] + [[0] * k + row for row in exit_case]
    got = _psd_eliminate(g)
    assert_bareiss_multiples(got, g)
    assert got[:3] == fraction_psd_eliminate(g)
    assert got.psd == _psd_eliminate(exit_case).psd == (exit_case[0][0] == 4)


def l1_grid_metric(rng, n: int, dim: int, unit: int) -> FiniteMetric:
    pts: set = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(0, 4) for _ in range(dim)))
    di = [[unit * sum(abs(a - b) for a, b in zip(p, q)) for q in pts] for p in pts]
    return FiniteMetric._trusted(intervals.PointIndex(list(range(n))), _exact_array(di))


@pytest.mark.parametrize("unit", [1, 1 << 8, 1 << 20, 1 << 40, 1 << 50, 1 << 54, 1 << 60])
def test_centered_gram_and_the_h_divisor_on_both_phases(unit):
    rng = random.Random(unit)
    for n, dim in ((6, 2), (12, 3), (20, 3)):
        m = l1_grid_metric(rng, n, dim, unit)
        g, scale = _integer_gram(m)
        peak = int(m._d.max())
        assert g.dtype == (np.int64 if 4 * n * n * peak < 1 << 62 else object)
        assert [[Fraction(v, scale) for v in row] for row in g.tolist()] == centered_gram(m)
        got = _psd_eliminate(g)
        # Bareiss divided by the known factor n^(2k-3) of the k x k minors
        assert_same_factor(got, bareiss_rows_oracle(g.tolist(), n))
        assert got.psd and len(got.order) <= dim * 4
        steps, columns = word_steps(g.tolist())
        assert columns == got.columns
        assert steps >= word_steps(g.tolist(), reduced=False)[0]


@st.composite
def wide_symmetric_matrices(draw):
    """Symmetric integer matrices with a PSD part, entries up to 2^44: the
    elimination starts in int64 words or in Python ints."""
    n = draw(st.integers(1, 7))
    size = draw(st.sampled_from([2, 1 << 10, 1 << 20]))
    entry = st.integers(-size, size)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + draw(st.booleans()), n):
            a[i][j] = a[j][i] = draw(entry)
    xs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
    return [[a[i][j] + sum(x[i] * x[j] for x in xs) for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(wide_symmetric_matrices(), st.sampled_from([1, 2, 7]), st.integers(0, 31))
def test_elimination_matches_the_row_oracle_at_every_word_bound(g, h, bits):
    # scaled by h^2, each k x k minor carries h^(2k), more than the
    # h^(2k-3) the oracle's divisor h needs
    g = [[v * h * h for v in row] for row in g]
    got = _psd_eliminate(g)
    assert_same_factor(got, bareiss_rows_oracle(g, h))
    with mock.patch.object(embedding, "_WORD", 1 << bits):   # hand over at any step
        assert _psd_eliminate(g) == got
    assert word_steps(g)[0] >= word_steps(g, reduced=False)[0]


@st.composite
def exit_matrices(draw):
    """P (X X^T + B) P^T with a PSD part X X^T of low rank, whose rows of
    X repeat (ties on the diagonal, zero blocks left over), and an exit
    block B: a negative diagonal entry, a zero diagonal with a nonzero
    off-diagonal entry, or zeros, each placed at random indices by the
    permutation P."""
    rank = draw(st.integers(0, 3))
    pool = draw(st.lists(st.lists(st.integers(-40, 40), min_size=rank, max_size=rank),
                         min_size=1, max_size=4))
    x = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    exit_block = draw(st.sampled_from([[[-1]], [[-3, 1], [1, 2]], [[0, 2], [2, 0]],
                                       [[0, 0, -1], [0, 0, 0], [-1, 0, 0]], [[0]], []]))
    k, e = len(x), len(exit_block)
    g = [[sum(a * b for a, b in zip(u, v)) for v in x] + [0] * e for u in x]
    g += [[0] * k + row for row in exit_block]
    perm = draw(st.permutations(range(k + e)))
    return [[g[i][j] for j in perm] for i in perm]


@settings(max_examples=200, deadline=None)
@given(exit_matrices(), st.sampled_from([1 << 5, 1 << 40, 3 ** 7, 3 ** 30, 10 ** 12]),
       st.integers(0, 31))
def test_content_reduction_is_blind_to_scale_and_hand_over(g, scale, bits):
    got = _psd_eliminate(g)
    assert got[:3] == fraction_psd_eliminate(g)
    assert_bareiss_multiples(got, g)
    # g and scale * g have one primitive part: the same columns and witness
    big = [[v * scale for v in row] for row in g]
    scaled = _psd_eliminate(big)
    assert (scaled.witness, scaled.order, scaled.columns) == \
        (got.witness, got.order, got.columns)
    assert scaled.pivots == [p * scale for p in got.pivots]
    assert word_steps(big)[0] >= word_steps(big, reduced=False)[0]
    with mock.patch.object(embedding, "_WORD", 1 << bits):
        for matrix, want in ((g, got), (big, scaled)):
            assert _psd_eliminate(matrix) == want
            assert _psd_eliminate(np.array(matrix, dtype=object)) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(max_denominator=12).filter(lambda f: abs(f) < 50),
                min_size=1, max_size=7))
def test_witness_projection_matches_the_fraction_projection(raw):
    mean = sum(raw) / len(raw)
    alpha = [v - mean for v in raw]
    den = math.lcm(*(a.denominator for a in alpha))
    assert _zero_sum(raw) == tuple(a * den for a in alpha)


def test_witness_survives_rescaling():
    # scaling preserves the sign of the form, so the verdict is unchanged
    rows = [[0, 2, 1, 1, 1], [2, 0, 1, 1, 1], [1, 1, 0, 2, 2],
            [1, 1, 2, 0, 2], [1, 1, 2, 2, 0]]
    half = [[Fraction(v, 2) for v in row] for row in rows]
    m = FiniteMetric(["a1", "a2", "b1", "b2", "b3"], half)
    cert = certify_negative_definite(m)
    assert not cert.negative_definite
    assert cert.form_value(cert.witness) == cert.witness_value > 0


# ---------------------------------------------------------------- hypermetric

def test_p3_hypermetric_spot_values():
    m = path_graph(3).path_metric()
    rep = certify_hypermetric(m, bound=2)
    assert rep.holds and rep.max_value == 0
    assert distance_form(m, [1, 1, -1]) == -4


def test_unit_vectors_reach_zero():
    m = path_graph(2).path_metric()
    rep = certify_hypermetric(m, bound=1)
    assert rep.max_value == 0
    assert sum(rep.argmax) == 1


def test_six_cycle_hypermetric_at_bound_two():
    rep = certify_hypermetric(cycle_graph(6).path_metric(), bound=2)
    assert rep.holds


def test_k23_violates_hypermetric():
    rep = certify_hypermetric(complete_bipartite_graph(2, 3).path_metric(),
                              bound=2)
    assert not rep.holds
    assert rep.max_value > 0
    m = complete_bipartite_graph(2, 3).path_metric()
    assert distance_form(m, rep.argmax) == rep.max_value
    assert sum(rep.argmax) == 1


def test_hypermetric_enumeration_count_matches_oracle():
    m = path_graph(3).path_metric()
    rep = certify_hypermetric(m, bound=2)
    count = sum(1 for t in itertools.product(range(-2, 3), repeat=3)
                if sum(t) == 1)
    assert rep.vectors_checked == count
    best = max(distance_form(m, t)
               for t in itertools.product(range(-2, 3), repeat=3)
               if sum(t) == 1)
    assert rep.max_value == best


def test_hypermetric_budget():
    m = random_tree(30, 2).path_metric()
    with pytest.raises(ResourceLimitError):
        certify_hypermetric(m, bound=2, budget=1000)


def random_integer_metric(rng, n, span):
    """Metric closure of a random integer-weighted complete graph."""
    w = [[0 if i == j else rng.randint(1, span) for j in range(n)] for i in range(n)]
    w = [[max(w[i][j], w[j][i]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                w[i][j] = min(w[i][j], w[i][k] + w[k][j])
    return FiniteMetric(list(range(n)), w)


def scaled(m, factor):
    n = len(m.points)
    return FiniteMetric(m.points, [[m.dist_int(i, j) * factor for j in range(n)]
                                   for i in range(n)])


def hypermetric_triple(m, bound):
    rep = certify_hypermetric(m, bound=bound)
    assert rep.holds == (rep.max_value <= 0)
    return rep.max_value, rep.argmax, rep.vectors_checked


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8), st.integers(1, 3),
       st.sampled_from(("shortest-path", "integer", "graph")))
def test_hypermetric_matches_the_recursive_oracle(seed, n, bound, family):
    rng = random.Random(seed)
    n = min(n, {1: 8, 2: 8, 3: 6}[bound])
    if family == "shortest-path":
        m = random_shortest_path_metric(rng, n)
    elif family == "integer":
        m = random_integer_metric(rng, n, rng.choice((2, 3, 7)))
    else:
        m = rng.choice((cycle_graph(max(n, 3)), complete_bipartite_graph(2, 3),
                        random_tree(n, seed), path_graph(n))).path_metric()
    assert hypermetric_triple(m, bound) == hypermetric_oracle(m, bound)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_hypermetric_row_blocks_keep_the_first_maximiser(monkeypatch, block):
    # small blocks split every sum class, so ties cross block boundaries
    monkeypatch.setattr(embedding, "_BLOCK", block)
    rng = random.Random(block)
    for m in (path_graph(6).path_metric(), complete_bipartite_graph(2, 3).path_metric(),
              random_shortest_path_metric(rng, 6), random_integer_metric(rng, 7, 2)):
        for bound in (1, 2):
            assert hypermetric_triple(m, bound) == hypermetric_oracle(m, bound)


def test_hypermetric_on_one_point():
    m = FiniteMetric(["a"], [[0]])
    for bound in (1, 2, 3):
        assert hypermetric_triple(m, bound) == hypermetric_oracle(m, bound) \
            == (0, (1,), 1)


def test_hypermetric_beyond_int64_matches_the_oracle():
    rng = random.Random(20)
    for n, bound in ((5, 2), (6, 2), (7, 1), (4, 3)):
        base = random_integer_metric(rng, n, 5)
        big = scaled(base, 10 ** 20)
        got = hypermetric_triple(big, bound)
        assert got == hypermetric_oracle(big, bound)
        value, argmax, checked = hypermetric_triple(base, bound)
        assert got == (value * 10 ** 20, argmax, checked)


def test_hypermetric_at_the_int64_threshold():
    # int64 holds the form while (n*bound)^2 * max d' < 2^62; check both sides
    rng = random.Random(21)
    n, bound = 6, 2
    base = random_integer_metric(rng, n, 9)
    peak = int(base._d.max())
    limit = 2 ** 62 // (n * bound) ** 2
    for factor in (limit // peak, limit // peak + 1):
        m = scaled(base, factor)
        assert hypermetric_triple(m, bound) == hypermetric_oracle(m, bound)


def test_hypermetric_budget_boundary():
    m = cycle_graph(5).path_metric()
    for bound in (1, 2):
        box = (2 * bound + 1) ** 5
        assert certify_hypermetric(m, bound=bound, budget=box).vectors_checked == \
            hypermetric_oracle(m, bound)[2]
        with pytest.raises(ResourceLimitError, match=rf"\({2 * bound + 1}\)\^5 vectors "
                           rf"exceeds budget {box - 1} at bound {bound}"):
            certify_hypermetric(m, bound=bound, budget=box - 1)


# ---------------------------------------------------------------- gns

def test_two_points_distance_four_embeds_at_euclidean_two():
    m = FiniteMetric(["a", "b"], [[0, 4], [4, 0]])
    emb = gns_embed(m)
    assert emb.coords.shape[1] == 1
    diff = np.linalg.norm(emb.coordinate("a") - emb.coordinate("b"))
    assert abs(diff - 2.0) < 1e-12


def test_gns_targets_are_correctly_rounded_past_two_to_the_53():
    # int64 entries past 2^53 over a scale of 3: a float division of the
    # entries would round each twice, and the error would read 8.0
    f = 18014398509733030
    m = FiniteMetric(["a", "b", "c"], [[Fraction(v * f, 3) for v in row]
                                       for row in [[0, 4, 7], [4, 0, 3], [7, 3, 0]]])
    assert m._d.dtype == np.int64 and m.scale == 3 and (m._d[m._d > 0] > 2 ** 53).all()
    emb = gns_embed(m, tol=16.0)
    assert emb.max_error == 4.0
    assert emb.coords.tolist() == [[112591291.63169599, 0.0],
                                   [-29629287.27149894, 61583317.135548],
                                   [-82962004.36019704, -61583317.135548]]


def test_p3_two_dimensional_embedding():
    m = path_graph(3).path_metric()
    emb = gns_embed(m)
    assert emb.coords.shape[1] <= 2
    assert emb.max_error <= 1e-9
    v = m.points
    assert abs(emb.distance_sq(v[0], v[2]) - 2.0) < 1e-9


def test_gns_lookups_of_an_unknown_point_are_input_errors():
    m = path_graph(3).path_metric()
    emb = gns_embed(m)
    v = m.points
    for bad in ("zz", ["a"], [v[0]]):
        with pytest.raises(InputError, match=r"unknown point"):
            emb.coordinate(bad)
        with pytest.raises(InputError, match=r"unknown point"):
            emb.distance_sq(v[0], bad)
        with pytest.raises(InputError, match=r"unknown point"):
            emb.distance_sq(bad, v[1])
    with pytest.raises(InputError, match=r"unknown point 'zz'"):
        emb.coordinate("zz")
    assert [emb.coordinate(p).tolist() for p in v] == emb.coords.tolist()


def test_cube_embedding_faithful():
    m = hypercube_graph(3).path_metric()
    emb = gns_embed(m)
    assert emb.max_error <= 1e-9


def pairwise_max_error(m, coords) -> float:
    """Oracle: the GNS reproduction error pair by pair, as ``diff @ diff``."""
    worst = 0.0
    n = len(m.points)
    for i in range(n):
        for j in range(i + 1, n):
            diff = coords[i] - coords[j]
            worst = max(worst, abs(float(diff @ diff) - m.dist_int(i, j) / m.scale))
    return worst


def random_l1_metric(rng, n, dim, span, den=1) -> FiniteMetric:
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randrange(span) for _ in range(dim)))
    pts = sorted(pts)
    rng.shuffle(pts)
    rows = [[Fraction(sum(abs(a - b) for a, b in zip(p, q)), den) for q in pts] for p in pts]
    return FiniteMetric(list(range(n)), rows)


def test_gns_max_error_matches_the_pairwise_oracle_bit_for_bit():
    metrics = [inst.payload.path_metric() for inst in graph_instances()]
    rng = random.Random(7)
    for n in (2, 3, 8, 17, 24, 32, 40):
        metrics.append(random_l1_metric(rng, n, rng.randint(1, 5), rng.randint(3, 9),
                                        rng.choice((1, 1, 2, 3))))
    embedded = 0
    for m in metrics:
        cert = certify_negative_definite(m)
        if cert.negative_definite:
            emb = gns_embed(m, certificate=cert)
            assert emb.max_error.hex() == pairwise_max_error(m, emb.coords).hex()
            embedded += 1
    assert embedded >= 20


def assert_gns_matches_the_eigh_oracle(m):
    cert = certify_negative_definite(m)
    emb = gns_embed(m, certificate=cert)
    n = len(m.points)
    dim = emb.coords.shape[1]
    rank, oracle_sq = eigh_gns_oracle(m)
    assert dim == sum(p > 0 for p in cert.pivots) == rank
    assert dim <= max(n - 1, 0)
    i, j = np.triu_indices(n, 1)
    diff = emb.coords[i] - emb.coords[j]
    sq = (diff * diff).sum(axis=1)
    target = np.array([m.dist_int(a, b) / m.scale for a, b in zip(i, j)])
    assert np.abs(sq - target).max(initial=0.0) <= emb.tol
    assert np.abs(sq - oracle_sq).max(initial=0.0) <= emb.tol


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(("l1", "tree", "grid")))
def test_gns_coordinates_come_from_the_exact_factor(seed, family):
    rng = random.Random(seed)
    if family == "l1":
        dim, span = rng.randint(1, 5), rng.randint(3, 9)
        n = min(rng.randint(1, 24), span ** dim)
        m = random_l1_metric(rng, n, dim, span, rng.choice((1, 2, 3)))
    elif family == "tree":
        m = random_weighted_tree_metric(rng, rng.randint(1, 24))
    else:
        m = grid_graph(rng.randint(1, 5), rng.randint(1, 5)).path_metric()
    assert_gns_matches_the_eigh_oracle(m)


def test_gns_coordinates_on_the_corpus_match_the_eigh_oracle():
    embedded = 0
    for inst in graph_instances():
        m = inst.payload.path_metric()
        if certify_negative_definite(m).negative_definite:
            assert_gns_matches_the_eigh_oracle(m)
            embedded += 1
    assert embedded >= 10


def test_gns_beyond_double_precision_is_an_input_error():
    def equilateral(entry):
        return FiniteMetric.from_upper_triangle(["a", "b", "c"], [[entry, entry], [entry]])

    with pytest.raises(InputError, match="out of double-precision range"):
        gns_embed(equilateral("1e400"))
    large = equilateral("1e150")
    with pytest.raises(InputError, match="below double-precision resolution"):
        gns_embed(large)
    assert gns_embed(large, tol=1e140).max_error <= 1e140


def test_gns_rejects_indefinite_with_witness():
    m = complete_bipartite_graph(2, 3).path_metric()
    with pytest.raises(InputError) as err:
        gns_embed(m)
    assert err.value.witness is not None


def negative_type_reports(paths, capsys) -> list[tuple[int, str]]:
    """(exit code, stdout) of ``certify-negdef`` and ``embed --mode gns``
    on each metric file, in order."""
    out = []
    for path in paths:
        for argv in (["certify-negdef"], ["embed", "--mode", "gns"]):
            rc = cli.main([*argv, "--in", str(path)])
            out.append((rc, capsys.readouterr().out))
    return out


def test_reports_are_those_of_bareiss_elimination(tmp_path, capsys):
    rng = random.Random(19)
    metrics = [grid_graph(k, k).path_metric() for k in (3, 6, 12)]
    for _ in range(3):
        metrics += [random_l1_metric(rng, 24, 3, 6), random_l1_metric(rng, 12, 2, 5, 3),
                    random_weighted_tree_metric(rng, 16), one_two_metric(rng, 14)]
    paths = [tmp_path / f"m{k}.json" for k in range(len(metrics))]
    for path, m in zip(paths, metrics):
        path.write_text(formats.dumps(formats.metric_to_json(m)))
    got = negative_type_reports(paths, capsys)

    def bareiss(g, scale):
        """The Bareiss oracle's elimination of g, its pivots divided by scale."""
        out = bareiss_rows_oracle(g.tolist())
        return out._replace(pivots=[p / scale for p in out.pivots])

    with mock.patch.object(embedding, "_psd_eliminate", bareiss):
        assert negative_type_reports(paths, capsys) == got
    assert {rc for rc, _ in got} == {0, 1, 2}      # indefinite metrics fail both ways


# ---------------------------------------------------------------- l1

def test_k2_l1_embedding():
    emb = l1_embed(certify_median_graph(path_graph(2)))
    vals = sorted(emb.vectors.values())
    assert vals == [(0,), (1,)]


def test_p4_and_cube_l1_exact():
    for g in (path_graph(4), hypercube_graph(3)):
        cert = certify_median_graph(g)
        emb = l1_embed(cert)
        for u in cert.vertices:
            for v in cert.vertices:
                assert hamming(emb, u, v) == cert.dist(u, v)


def test_l1_strings_are_the_vectors_joined(median_certs):
    for cert in median_certs.values():
        emb = l1_embed(cert)
        strings = emb.strings()
        assert "vectors" not in vars(emb)       # no tuple is built for them
        assert strings == ["".join(map(str, emb.vectors[v])) for v in emb.vertices]


def test_l1_vectors_are_the_certificate_coordinates(median_certs):
    # l1_embed does not re-check Hamming against path distance; this oracle does
    for cert in median_certs.values():
        emb = l1_embed(cert)
        assert emb.dimension == len(cert.walls)
        for v in cert.vertices:
            assert emb.vectors[v] == tuple(coordinate_int(cert, v) >> k & 1
                                           for k in range(emb.dimension))
        for u, v in itertools.combinations(cert.vertices, 2):
            assert hamming(emb, u, v) == cert.dist(u, v)


# ---------------------------------------------------------------- helly

def test_p3_helly_holds():
    rep = check_helly(path_graph(3).path_metric())
    assert rep.holds and rep.agrees


def test_c6_helly_fails_with_genuine_witness():
    m = cycle_graph(6).path_metric()
    rep = check_helly(m)
    assert not rep.holds and rep.agrees
    a, b, c = rep.witness
    assert a & b and b & c and c & a
    assert not (a & b & c)
    for fam in rep.witness:
        for x in fam:
            for y in fam:
                assert m.geodesic_interval(x, y) <= fam


def test_c4_helly_holds():
    rep = check_helly(cycle_graph(4).path_metric())
    assert rep.holds and rep.agrees


def test_helly_agrees_with_modularity_on_small_corpus():
    for g in (path_graph(5), cycle_graph(4), cycle_graph(5), cycle_graph(6),
              complete_bipartite_graph(2, 3), hypercube_graph(3),
              grid_graph(3, 3), random_tree(10, 7)):
        rep = check_helly(g.path_metric())
        assert rep.agrees


def test_helly_cap():
    with pytest.raises(ResourceLimitError):
        check_helly(random_tree(13, 1).path_metric(), cap=12)


def helly_matches_the_oracles(m, cap=12):
    sets = convex_sets(m)
    assert sets == convex_sets_oracle(m)
    rep = check_helly(m, cap=cap)
    assert rep.convex_count == len(sets)
    assert rep.witness == helly_witness_oracle(m)
    assert rep.holds == (rep.witness is None)
    return rep


@pytest.mark.parametrize("g", [cycle_graph(5), cycle_graph(6), cycle_graph(7),
                               cycle_graph(8), complete_bipartite_graph(2, 3),
                               grid_graph(3, 4), grid_graph(2, 5), random_tree(11, 2)],
                         ids=["C5", "C6", "C7", "C8", "K23", "grid3x4", "grid2x5", "tree11"])
def test_helly_matches_the_oracles_on_graphs(g):
    rep = helly_matches_the_oracles(g.path_metric())
    assert rep.agrees


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 9), st.booleans())
def test_helly_matches_the_oracles_on_random_metrics(seed, n, rational):
    rng = random.Random(seed)
    m = (random_shortest_path_metric(rng, n) if rational
         else random_integer_metric(rng, n, rng.choice((2, 3))))
    helly_matches_the_oracles(m)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_helly_blocks_keep_the_first_witness(monkeypatch, block):
    monkeypatch.setattr(embedding, "_BLOCK", block)
    rng = random.Random(block)
    for m in (cycle_graph(6).path_metric(), complete_bipartite_graph(2, 3).path_metric(),
              grid_graph(2, 3).path_metric(), random_shortest_path_metric(rng, 7),
              random_integer_metric(rng, 8, 2)):
        helly_matches_the_oracles(m)


def test_helly_on_a_star_with_many_convex_sets():
    # K_{1,11}: every set holding the centre is convex, 2^11 + 12 in all
    m = FiniteMetric(list(range(12)), [[0 if i == j else 1 if 0 in (i, j) else 2
                                        for j in range(12)] for i in range(12)])
    assert convex_sets(m) == convex_sets_oracle(m)
    rep = check_helly(m)
    assert rep.holds and rep.agrees and rep.witness is None
    assert rep.convex_count == 2 ** 11 + 12


def test_helly_across_the_mask_block_boundary():
    # 2^17 masks fill two int64 blocks of 2^16
    rep = helly_matches_the_oracles(path_graph(17).path_metric(), cap=17)
    assert rep.holds and rep.convex_count == 17 * 18 // 2 + 1
    rep = helly_matches_the_oracles(cycle_graph(17).path_metric(), cap=17)
    assert not rep.holds and rep.agrees


def test_convex_sets_beyond_int64_masks_is_a_resource_limit():
    m = path_graph(63).path_metric()
    with pytest.raises(ResourceLimitError, match="at most 62 points"):
        convex_sets(m)
    with pytest.raises(ResourceLimitError):
        check_helly(m, cap=63)


# ---------------------------------------------------------------- retraction

def test_single_edge_one_step_with_edge_length_delta():
    m = MedianMetric.certify(FiniteMetric(["a", "b"], [[0, "5/2"], ["5/2", 0]]))
    trace = retraction_decomposition(m)
    assert len(trace.steps) == 1
    assert trace.steps[0].delta == Fraction(5, 2)


def test_four_cycle_two_steps_unit_deltas():
    m = MedianMetric.certify(cycle_graph(4).path_metric())
    trace = retraction_decomposition(m)
    assert [s.delta for s in trace.steps] == [1, 1]
    assert [len(s.halfspace) for s in trace.steps] == [2, 1]


def test_p4_three_steps_matching_three_walls():
    m = MedianMetric.certify(path_graph(4).path_metric())
    trace = retraction_decomposition(m)
    assert len(trace.steps) == 3
    assert all(s.delta == 1 for s in trace.steps)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_trace_reconstructs_the_form_exactly(seed):
    rng = random.Random(seed)
    m = MedianMetric.certify(grid_graph(2, 3).path_metric())
    trace = retraction_decomposition(m)
    alpha = random_zero_sum(rng, len(m.points))
    coeffs = dict(zip(m.points, alpha))
    via_trace = trace.form_value_via_trace(coeffs)
    assert via_trace == distance_form(m, alpha)
    assert via_trace <= 0


def test_trace_on_cube():
    m = MedianMetric.certify(hypercube_graph(3).path_metric())
    trace = retraction_decomposition(m)
    assert all(s.delta == 1 for s in trace.steps)
    rng = random.Random(11)
    alpha = random_zero_sum(rng, 8)
    assert trace.form_value_via_trace(dict(zip(m.points, alpha))) == \
        distance_form(m, alpha)


def test_retraction_above_sixteen_points():
    m = MedianMetric.certify(random_tree(18, 3).path_metric())
    trace = retraction_decomposition(m)
    assert len(trace.steps) == 17
    assert all(s.delta == 1 for s in trace.steps)
    alpha = random_zero_sum(random.Random(5), 18)
    assert trace.form_value_via_trace(dict(zip(m.points, alpha))) == \
        distance_form(m, alpha)


def assert_trace_matches_the_oracle(mm: MedianMetric, searches: int = 1) -> None:
    """The trace read off the walls equals the oracle's step for step, and
    makes ``searches`` ``intervals.halfspaces`` calls: one on a certified
    metric, none on a certificate's path metric or a product, which are
    handed their walls."""
    want = retraction_oracle(mm).steps
    with mock.patch.object(intervals, "halfspaces", wraps=intervals.halfspaces) as spy:
        got = retraction_decomposition(mm).steps
    assert spy.call_count == searches
    assert got == want


def test_retraction_matches_the_oracle(median_metrics):
    rng = random.Random(7)
    left, right = (MedianMetric.certify(random_weighted_tree_metric(rng, n)) for n in (5, 4))
    grids = [MedianMetric.certify(grid_graph(r, c).path_metric()) for r, c in ((3, 4), (4, 4))]
    for m in grids:
        assert_trace_matches_the_oracle(m)
    for m in [*median_metrics.values(), product(left, right)]:       # certificates' metrics
        assert_trace_matches_the_oracle(m, searches=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 15))
def test_retraction_matches_the_oracle_on_weighted_trees(seed, n):
    m = random_weighted_tree_metric(random.Random(seed), n)
    assert_trace_matches_the_oracle(MedianMetric.certify(m))


# ---------------------------------------------------------------- oracle

def test_sampling_oracle_never_contradicts_certificates():
    for g in (path_graph(5), cycle_graph(4), hypercube_graph(3), grid_graph(3, 3)):
        m = g.path_metric()
        cert = certify_negative_definite(m)
        peak = zero_sum_sampling_oracle(m, samples=10_000, seed=42)
        assert cert.negative_definite
        assert peak <= 0
