"""Embedding certificates for finite metrics.

A metric is negative definite when sum a_i a_j d(x_i,x_j) <= 0 for every
real weight vector with zero sum; equivalently the doubly-centered matrix
B = -1/2 J D J is positive semidefinite.  The decision here is exact:
B is scaled to an integer matrix and reduced by fraction-free integer
elimination with greedy diagonal pivoting, each step divided by the
content of what remains, which yields the rational pivots, the exact
LDL^T factor of B and, on failure, a witness vector.  The elimination
runs on int64 words while its entries stay below 2^31 in size and goes
on in Python ints from there; both phases compute the same integers.
GNS coordinates are read off that factor in floats and then verified
against the metric.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from . import intervals
from .errors import InputError, InternalCheckError, ResourceLimitError
from .graphs import MedianGraphCert
from .metric import FiniteMetric, MedianMetric, Classification, _require_median, classify

Point = Hashable

DEFAULT_HYPERMETRIC_BOUND = 2
DEFAULT_HYPERMETRIC_BUDGET = 20_000_000
DEFAULT_HELLY_CAP = 12
DEFAULT_GNS_TOL = 1e-9
_BLOCK = 1 << 16           # elements per numpy block in the exponential scans
_MASK_POINTS = 62         # int64 subset masks hold at most this many points


def distance_form(m: FiniteMetric, coeffs: Sequence[Fraction | int]) -> Fraction:
    """sum_{i,j} a_i a_j d(x_i, x_j), exactly: the product a D a on the
    metric's exact array after clearing the denominators of the a_i,
    divided once at the end.  The product runs in int64 when n^2 max|a|^2
    max D < 2^62 bounds every partial sum, on Python ints otherwise."""
    n = len(m.points)
    if len(coeffs) != n:
        raise InputError(f"expected {n} coefficients, got {len(coeffs)}")
    frac = [Fraction(a) for a in coeffs]
    den = math.lcm(*(a.denominator for a in frac))
    a = [v.numerator * (den // v.denominator) for v in frac]
    return Fraction(_integer_form(m, a), den * den * m.scale)


def _integer_form(m: FiniteMetric, a: list[int]) -> int:
    """a D' a for integers a and the metric's scaled array D'."""
    top = max(map(abs, a))
    dtype = np.int64 if len(a) ** 2 * top * top * max(int(m._d.max()), 1) < 1 << 62 else object
    v = np.array(a, dtype=dtype)
    return int(v @ m._d.astype(dtype) @ v)


def _integer_gram(m: FiniteMetric) -> tuple[np.ndarray, int]:
    """(G, c) with G = c * B an integer matrix, B = -1/2 J D J the
    doubly-centered form (J the mean-centering projector) and
    c = 2 n^2 scale.  B is PSD iff the distance form is <= 0 on zero-sum
    vectors; in the scaled integer distances D', with row sums r and total
    g, G_ij = -(n^2 D'_ij - n r_i - n r_j + g).  The common factors of G
    and of its Schur complements are divided out by the elimination as it
    goes, so none is predicted here.

    G is built in one array expression from the metric's exact array,
    widened to int64 when 4 n^2 max D' < 2^62 bounds every term, to an
    object array of Python ints otherwise."""
    n = len(m.points)
    d = m._d.astype(np.int64 if 4 * n * n * int(m._d.max()) < 1 << 62 else object)
    r = d.sum(axis=1)
    nr = n * r
    gram = nr[:, None] + nr[None, :] - r.sum() - n * n * d
    return gram, 2 * n * n * m.scale


class Elimination(NamedTuple):
    """The outcome of :func:`_psd_eliminate`: the verdict, the pivots, a
    witness on failure, and the unit lower-triangular factor L of the
    positive pivots, held as integer columns of the scaled Schur
    complements."""

    psd: bool
    pivots: list[Fraction]
    witness: list[Fraction] | None
    order: list[int]            # indices of the positive pivots, in turn
    columns: list[list[int]]    # L[i][k] = columns[k][i] / columns[k][order[k]]


_WORD = 1 << 31     # entries below 2^31 in size: p*x - a*y stays inside int64


def _word_block(g: np.ndarray) -> np.ndarray | None:
    """A copy of a nonempty g as an int64 array when every entry is below
    2^31 in size, else None."""
    return g.astype(np.int64) if -_WORD < g.min() and g.max() < _WORD else None


def _psd_eliminate(g: Sequence[Sequence[int]], scale: int = 1) -> Elimination:
    """Exact PSD test and LDL^T factor of a symmetric integer matrix by
    symmetric fraction-free elimination with greedy diagonal pivoting,
    each step divided by the content (the gcd of the entries) of what
    remains.

    The pivots are the successive Schur complement diagonals divided by
    ``scale``, each built as one Fraction from integers, and the witness
    is a vector v with v^T g v < 0 when the test fails, computed as
    integers over one common denominator.  When g is PSD,
    g[i][j] = scale * sum_k L[i][k] * pivots[k] * L[j][k] over the
    positive pivots.

    The work matrix E is mu * S, S the rational Schur complement of the
    remaining indices and mu > 0 a rational held as an integer pair.  g
    is divided by its content first, and a step with pivot p and pivot
    column a replaces E by (p * E - a a^T) / c, c the content of that
    numerator (no division when c is 1, or 0 for a zero block).  The
    numerator is mu * p times the next Schur complement, so the step
    multiplies mu by p / c, and the pivot of g is p / mu.  E is thus the
    primitive part of S: the one integer matrix of content 1 that is a
    positive multiple of S (or 0).  Bareiss's work matrix is another
    integer positive multiple of S, hence an integer multiple of E, so
    these entries are never larger than his, and on metric Gram matrices,
    whose minors share large factors, they are far smaller.  mu is
    positive, so the greedy choice and its ties are those of rational
    elimination, and it cancels in the ratio of a pivot's column to the
    pivot, which is the entry of L; the column is kept over all indices,
    0 at the earlier pivots.

    The steps run in two phases that compute the same integers.  While
    every entry is below 2^31 in size, the work matrix is one n x n int64
    array and a step is one array update, in which p*x - a*y cannot
    overflow: a pivot's row and column become 0 there, so the first
    maximum of the whole diagonal is the first maximum among the remaining
    indices, and the zeros leave the content alone.  From the first step
    whose entries outgrow that bound, and at the end, the remaining block
    is handed to Python ints, where only its upper triangle is stored:
    row s holds its entries from the diagonal on.
    """
    n = len(g)
    order: list[int] = []
    columns: list[list[int]] = []
    pivots: list[Fraction] = []
    num, den = 1, 1     # mu = num / den

    def pivot(q: int, p: int, full: list[int]) -> None:
        """Record the positive pivot p at index q, with its column."""
        pivots.append(Fraction(p * den, num * scale))
        order.append(q)
        columns.append(full)

    def rescale(p: int, c: int) -> None:
        """mu *= p / c after a step with pivot p and content c."""
        nonlocal num, den
        num, den = num * p, den * (c or 1)
        r = math.gcd(num, den)
        num, den = num // r, den // r

    if not n:
        return Elimination(True, pivots, None, order, columns)
    g = g if isinstance(g, np.ndarray) else np.array(g, dtype=object)
    c = int(np.gcd.reduce(g, axis=None))
    if c > 1:
        g = g // c
    rescale(1, c)
    work = _word_block(g)
    if work is not None:
        while len(order) < n:
            t = int(work.diagonal().argmax())
            p = int(work[t, t])
            if p <= 0:
                break
            col = work[t].copy()
            pivot(t, p, col.tolist())
            work *= p
            work -= np.multiply.outer(col, col)
            c = int(np.gcd.reduce(work, axis=None))
            if c > 1:
                work //= c
            rescale(p, c)
            if work.min() <= -_WORD or work.max() >= _WORD:
                break
        taken = set(order)
        remaining = [i for i in range(n) if i not in taken]
        block = work[np.ix_(remaining, remaining)].tolist()
    else:
        remaining = list(range(n))
        block = g.tolist()
    upper = [list(row[i:]) for i, row in enumerate(block)]

    def witness(*rows: tuple[int, int]) -> list[Fraction]:
        """sum of sign * (row s of L^-1), the remaining rows taken as unit
        columns of L, by fraction-free back-substitution through L: the
        vector is held as integers over one common denominator, which
        grows by the part of each pivot that the new entry needs."""
        vec = [0] * n
        common = 1
        for sign, s in rows:
            vec[remaining[s]] = sign
        for q, col in zip(reversed(order), reversed(columns)):
            x = -sum(map(operator.mul, vec, col))
            r = math.gcd(x, col[q])
            if r != col[q]:
                f = col[q] // r
                vec = [v * f for v in vec]
                common *= f
            vec[q] = x // r
        return [Fraction(v, common) for v in vec]

    while remaining:
        t = max(range(len(remaining)), key=lambda s: upper[s][0])
        p = upper[t][0]
        if p > 0:
            col = [upper[s][t - s] for s in range(t)] + upper.pop(t)
            del col[t]                     # col[s] = entry (s, pivot)
            q = remaining.pop(t)
            full = [0] * n
            full[q] = p
            for r, a in zip(remaining, col):
                full[r] = a
            pivot(q, p, full)
            for s, row in enumerate(upper):
                a = col[s]
                if s < t:
                    del row[t - s]
                upper[s] = [p * x - a * y for x, y in zip(row, col[s:])]
            c = math.gcd(*itertools.chain.from_iterable(upper))
            if c > 1:
                upper = [[x // c for x in row] for row in upper]
            rescale(p, c)
            continue
        for s, row in enumerate(upper):
            if row[0] < 0:
                return Elimination(False, pivots, witness((1, s)), order, columns)
        for s, row in enumerate(upper):
            for u in range(1, len(row)):
                if row[u] != 0:
                    # diagonal all zero, off-diagonal not: e_i -/+ e_j is negative
                    v = witness((1, s), (-1 if row[u] > 0 else 1, s + u))
                    return Elimination(False, pivots, v, order, columns)
        pivots.extend(Fraction(0) for _ in remaining)
        remaining = []
    return Elimination(True, pivots, None, order, columns)


@dataclass(frozen=True)
class NegDefCertificate:
    metric: FiniteMetric
    negative_definite: bool
    pivots: tuple[Fraction, ...]
    witness: tuple[int, ...] | None        # zero-sum vector with positive form
    witness_value: Fraction | None         # its distance form, as re-evaluated
    pivot_order: tuple[int, ...]           # indices of the positive pivots, in turn
    # per positive pivot, its column of the scaled Schur complement that the
    # elimination holds (0 at earlier pivots), so that
    # L[i][k] = columns[k][i] / columns[k][pivot_order[k]]
    columns: tuple[tuple[int, ...], ...]

    def form_value(self, coeffs) -> Fraction:
        return distance_form(self.metric, coeffs)


def _zero_sum(v: list[Fraction]) -> tuple[int, ...]:
    """The projection v - mean(v) times the least common denominator of
    its entries, on integers over one denominator: with c the common
    denominator of v and x = n * c * (v - mean(v)), which is
    n * c * v - sum(c * v), it is x divided by the gcd of n * c and the
    entries of x."""
    common = math.lcm(*(a.denominator for a in v))
    vec = [a.numerator * (common // a.denominator) for a in v]
    total = sum(vec)
    x = [len(vec) * a - total for a in vec]
    r = math.gcd(len(vec) * common, *x)
    return tuple(a // r for a in x)


def certify_negative_definite(m: FiniteMetric) -> NegDefCertificate:
    """Exact verdict, with the LDL^T factor of the centered form (-1/2 J D J
    = L diag(pivots) L^T on success); a failing certificate carries a
    zero-sum integer vector whose distance form is positive (re-evaluated
    to confirm).

    Each pivot is one Fraction, built by the elimination at the scale of
    the integer Gram matrix, and the elimination's witness is projected to
    zero sum on integers (:func:`_zero_sum`)."""
    g, scale = _integer_gram(m)
    ok, pivots, raw, order, columns = _psd_eliminate(g, scale)
    witness = value = None
    if not ok:
        witness = _zero_sum(raw)
        value = Fraction(_integer_form(m, witness), m.scale)
        if value <= 0:
            raise InternalCheckError("extracted witness fails to certify")
    return NegDefCertificate(
        metric=m,
        negative_definite=ok,
        pivots=tuple(pivots),
        witness=witness,
        witness_value=value,
        pivot_order=tuple(order),
        columns=tuple(map(tuple, columns)),
    )


@dataclass(frozen=True)
class HypermetricReport:
    bound: int
    holds: bool
    max_value: Fraction
    argmax: tuple[int, ...]
    vectors_checked: int


def _lex_vectors(length: int, bound: int) -> np.ndarray:
    """Every integer vector of ``length`` entries in [-bound, bound], as
    the rows of an int64 array in lexicographic order."""
    base = 2 * bound + 1
    rank = np.arange(base ** length, dtype=np.int64)
    place = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return rank[:, None] // place % base - bound


def certify_hypermetric(m: FiniteMetric, bound: int = DEFAULT_HYPERMETRIC_BOUND,
                        budget: int = DEFAULT_HYPERMETRIC_BUDGET) -> HypermetricReport:
    """Exhaustively evaluate the form over integer vectors with entries in
    [-bound, bound] summing to 1; reports the maximum and its
    lexicographically first maximiser.

    The hypermetric condition asks <= 0 for all such vectors (unbounded in
    general; this is the desk-scale truncation).  ``budget`` caps the
    (2*bound+1)^n vectors of the box and is checked before anything is
    enumerated.

    The scan meets in the middle.  Each half of the coordinates (a prefix
    of n//2 and the suffix) is enumerated once in lexicographic order, with
    its own form and the prefix's cross term 2*P*D_ps.  The prefixes of sum
    t pair with the suffixes of sum 1-t, and each such class is scored in
    row blocks of at most ``_BLOCK`` vectors (one prefix row when the
    class has more suffixes).  A vector's lexicographic
    rank is its prefix's rank, then its suffix's, so a block's first
    argmax is its first maximiser, and across blocks a tie goes to the
    smaller prefix.  Cost: O((2*bound+1)^(n/2) * n) memory and
    O(vectors_checked * n) integer operations.  Arithmetic is exact:
    int64 while (n*bound)^2 * max d' < 2^62 bounds every partial sum,
    Python ints in object arrays beyond.
    """
    if bound < 1:
        raise InputError("bound must be >= 1")
    n = len(m.points)
    est = (2 * bound + 1) ** n
    if est > budget:
        raise ResourceLimitError(
            f"hypermetric enumeration of ({2 * bound + 1})^{n} vectors exceeds "
            f"budget {budget} at bound {bound}", cap=budget)
    exact = np.int64 if (n * bound) ** 2 * int(m._d.max()) < 2 ** 62 else object
    d = m._d.astype(exact)
    half = n // 2
    pre, suf = _lex_vectors(half, bound), _lex_vectors(n - half, bound)
    pre_x, suf_x = pre.astype(exact, copy=False), suf.astype(exact, copy=False)
    form_pre = (pre_x @ d[:half, :half] * pre_x).sum(axis=1)
    form_suf = (suf_x @ d[half:, half:] * suf_x).sum(axis=1)
    cross = 2 * (pre_x @ d[:half, half:])
    sum_pre, sum_suf = pre.sum(axis=1), suf.sum(axis=1)
    best = None           # (value, prefix rank, suffix rank)
    checked = 0
    for t in range(-half * bound, half * bound + 1):
        rows = np.flatnonzero(sum_pre == t)
        cols = np.flatnonzero(sum_suf == 1 - t)
        if not len(rows) or not len(cols):
            continue
        checked += len(rows) * len(cols)
        suf_t = suf_x[cols].T
        form_t = form_suf[cols]
        step = max(1, _BLOCK // len(cols))
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step]
            block = form_pre[r][:, None] + form_t + cross[r] @ suf_t
            i, j = divmod(int(np.argmax(block)), len(cols))
            val = int(block[i, j])
            if best is None or val > best[0] or (val == best[0] and r[i] < best[1]):
                best = (val, int(r[i]), int(cols[j]))
    if best is None:
        raise InternalCheckError("no admissible vector enumerated")
    val, i, j = best
    return HypermetricReport(
        bound=bound,
        holds=val <= 0,
        max_value=Fraction(val, m.scale),
        argmax=tuple(pre[i].tolist() + suf[j].tolist()),
        vectors_checked=checked,
    )


@dataclass
class GnsEmbedding:
    """Coordinates gamma with d(x,y) = ||gamma(x)-gamma(y)||^2 within tol,
    on the metric's id record ``_ids`` (a new one if built directly)."""

    points: list
    coords: np.ndarray          # shape (n, dim)
    tol: float
    max_error: float

    @functools.cached_property
    def _ids(self) -> intervals.PointIndex:
        return intervals.PointIndex(self.points)

    def coordinate(self, x) -> np.ndarray:
        return self.coords[self._ids.index(x)]

    def distance_sq(self, x, y) -> float:
        diff = self.coordinate(x) - self.coordinate(y)
        return float(diff @ diff)


def gns_embed(m: FiniteMetric, tol: float = DEFAULT_GNS_TOL,
              certificate: NegDefCertificate | None = None) -> GnsEmbedding:
    """Euclidean coordinates read off the certificate's exact LDL^T factor
    of the centered form B: point i's coordinate k is L[i][k] *
    sqrt(pivot k), in pivot order, so the dimension is the exact rank of B
    and no float factorisation runs.  Greedy pivoting on a PSD matrix keeps
    |L| <= 1, and each entry of L is one correctly rounded integer ratio.

    Requires a negative-definite metric; a failing certificate is attached
    to the raised error.  The squared-distance reproduction is verified at
    every pair in one pass: the squared norms of all pair differences come
    from one stacked matmul, which rounds as ``diff @ diff`` does pair by
    pair, against targets divided as Python ints, so correctly rounded
    at every exact dtype (a float division rounds entries past 2^53).
    """
    if not math.isfinite(tol) or tol < 0:
        raise InputError(f"tol must be finite and >= 0, got {tol!r}")
    cert = certificate or certify_negative_definite(m)
    if not cert.negative_definite:
        err = InputError("metric is not negative definite; witness attached")
        err.witness = cert.witness
        raise err
    n = len(m.points)
    i, j = np.triu_indices(n, 1)
    dim = len(cert.pivot_order)
    out_of_range = InputError("metric is out of double-precision range for a GNS embedding")
    try:
        # int / int true division rounds correctly, as float(Fraction) does
        lower = np.array([[v / col[q] for v in col]
                          for q, col in zip(cert.pivot_order, cert.columns)],
                         dtype=float).reshape(dim, n)
        root = np.sqrt(np.array([float(p) for p in cert.pivots[:dim]]))
        target = np.array([v / m.scale for v in m._d[i, j].tolist()], dtype=float)
    except OverflowError:
        raise out_of_range from None
    coords = lower.T * root
    # overflow past here shows as a non-finite error, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        diff = coords[i] - coords[j]
        sq = (diff[:, None, :] @ diff[:, :, None]).ravel()
        err = np.abs(sq - target)
    if not np.isfinite(err).all():
        raise out_of_range
    worst = float(err.max(initial=0.0))
    if worst > tol:
        dmax = float(target.max())
        if tol < n * dmax * 2.0 ** -44:
            raise InputError(
                f"embedding error {worst:.3e} exceeds tolerance {tol:.3e}, which is "
                f"below double-precision resolution at distances up to {dmax:.3e}")
        raise InternalCheckError(
            f"embedding error {worst:.3e} exceeds tolerance {tol:.3e}")
    out = GnsEmbedding(m.points, coords, tol, worst)
    out._ids = m._ids
    return out


@dataclass(frozen=True, eq=False)
class L1Embedding:
    """Wall-side indicator vectors; Hamming distance equals path distance.
    ``bits`` holds them as one (vertices, dimension) 0/1 uint8 matrix, row
    i for ``vertices[i]`` (the certificate's read-only wall codes); the
    tuples of ``vectors`` are built on first use."""

    vertices: tuple
    bits: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.bits.shape[1]

    @functools.cached_property
    def vectors(self) -> dict:
        return dict(zip(self.vertices, map(tuple, self.bits.tolist())))

    def strings(self) -> list[str]:
        """Each vertex's vector as a string of 0s and 1s (:func:`intervals.digit_strings`)."""
        return intervals.digit_strings(self.bits)


def l1_embed(cert: MedianGraphCert) -> L1Embedding:
    """The certificate's wall codes as 0/1 vectors; their Hamming
    distance equals path distance, as certification has checked."""
    return L1Embedding(tuple(cert.vertices), cert.codes.bits)


@dataclass(frozen=True)
class HellyReport:
    holds: bool
    classification: Classification
    agrees: bool                # holds <-> classification is median/modular
    convex_count: int
    witness: tuple[frozenset, ...] | None


def convex_sets(m: FiniteMetric) -> list[int]:
    """All geodesically convex subsets, as bitmasks in ascending order
    (includes the empty set).

    The 2^n masks are tested in int64 blocks of ``_BLOCK``: a mask is
    convex iff it holds [a,b] whenever it holds a and b, and only the
    pairs whose interval has a third point can reject.  Each pair's test
    drops the masks it rejects, so the survivors shrink as the scan goes:
    O(2^n * n^2) integer operations at worst, in O(_BLOCK) memory.  Masks
    of more than ``_MASK_POINTS`` points do not fit int64, so each
    interval is word 0 of the packed betweenness table.
    """
    n = len(m.points)
    if n > _MASK_POINTS:
        raise ResourceLimitError(
            f"convex-set scan holds at most {_MASK_POINTS} points in int64 masks, "
            f"got {n}", cap=_MASK_POINTS)
    betw = m._between()[..., 0].tolist()
    tests = [(betw[a][b], 1 << a | 1 << b) for a, b in itertools.combinations(range(n), 2)
             if betw[a][b] != 1 << a | 1 << b]
    out: list[int] = []
    for lo in range(0, 1 << n, _BLOCK):
        masks = np.arange(lo, min(lo + _BLOCK, 1 << n), dtype=np.int64)
        for full, ends in tests:
            held = masks & full
            masks = masks[(held == full) | (held & ends != ends)]
        out += masks.tolist()
    return out


def _pair_hulls_meet(arr: np.ndarray, n: int) -> bool:
    """Whether, for every three points x, y, z, the convex hulls of
    {x,y}, {y,z} and {z,x} share a point; ``arr`` holds every nonempty
    convex set as an int64 mask.

    This decides the triple case of Helly.  Given convex A, B, C that
    meet pairwise but not all together, take x in A&B, y in B&C and z in
    C&A: then hull{x,y} <= B, hull{y,z} <= C and hull{z,x} <= A meet
    pairwise (at y, z and x) but not all together.  Each hull is the
    meet of the convex sets holding its two points: O(n^2 * k + n^3).
    """
    hull = np.diag(np.left_shift(1, np.arange(n, dtype=np.int64)))
    for x, y in itertools.combinations(range(n), 2):
        pair = 1 << x | 1 << y
        hull[x, y] = hull[y, x] = np.bitwise_and.reduce(arr[arr & pair == pair])
    return bool((hull[:, :, None] & hull[None, :, :] & hull[:, None, :]).all())


def _first_bad_triple(arr: np.ndarray) -> tuple[int, int, int] | None:
    """Indices (a, b, c), first in lexicographic order, of masks that meet
    pairwise but have no common point.

    For each a, in order, one boolean block over the later sets b meeting
    a and the sets c after b meeting a marks the bad triples; blocks hold
    at most ``_BLOCK`` entries, or one row of b.  O(k^3) mask operations
    over the k masks, stopping at the first witness.
    """
    for a, ma in enumerate(arr):
        later = np.flatnonzero(arr[a + 1:] & ma) + a + 1
        if len(later) < 2:
            continue
        sets_c = arr[later]
        step = max(1, _BLOCK // len(later))
        for lo in range(0, len(later), step):
            b = later[lo:lo + step, None]
            mb = arr[b]
            hit = np.argwhere((sets_c & mb & ma == 0) & (sets_c & mb != 0) & (later > b))
            if len(hit):
                i, j = hit[0]
                return a, int(later[lo + i]), int(later[j])
    return None


def check_helly(m: FiniteMetric, cap: int = DEFAULT_HELLY_CAP) -> HellyReport:
    """Verify Helly's property over all families of convex sets.

    Pairwise-intersecting families reduce to the triple case (intersections
    of convex sets are convex, so C1,C2 may be replaced by their meet), so
    checking every triple of nonempty convex sets decides the property.
    The verdict must match modularity of the metric.

    The hulls of point pairs decide the triple case in O(n^2 * k + n^3)
    over the k convex sets (``_pair_hulls_meet``).  Only when it fails are the
    triples of the k convex sets scanned, for the witness: the first bad
    triple in the ascending order of their masks.
    """
    if cap < 0:
        raise InputError(f"cap must be >= 0, got {cap}")
    n = len(m.points)
    if n > cap:
        raise ResourceLimitError(f"Helly check capped at {cap} points, got {n}",
                                 cap=cap)
    masks = [x for x in convex_sets(m) if x]
    cls = classify(m)
    arr = np.array(masks, dtype=np.int64)
    holds = _pair_hulls_meet(arr, n)
    witness = None
    if not holds:
        found = _first_bad_triple(arr)
        if found is None:
            raise InternalCheckError("pair hulls fail Helly but no triple of convex sets does")
        witness = tuple(intervals.unmask(m.points, masks[i]) for i in found)
    agrees = holds == (cls.kind in ("median", "modular"))
    return HellyReport(holds, cls, agrees, len(masks) + 1, witness)


@dataclass(frozen=True)
class RetractionStep:
    """One peeling step: the kept halfspace, the peeled complement, the
    constant gap delta, and the nearest-point retraction."""

    halfspace: tuple
    complement: tuple
    delta: Fraction
    retraction: dict


@dataclass(frozen=True)
class DecompositionTrace:
    metric: MedianMetric
    steps: tuple[RetractionStep, ...]

    def form_value_via_trace(self, coeffs: Mapping) -> Fraction:
        """Reassemble the distance form from the trace: each step
        contributes -2*delta*(sum of peeled coefficients)^2; must equal
        the direct form value."""
        weights = {p: Fraction(c) for p, c in coeffs.items()}
        if sum(weights.values()) != 0:
            raise InputError("coefficients must sum to zero")
        total = Fraction(0)
        for step in self.steps:
            peeled = sum((weights.get(p, Fraction(0)) for p in step.complement),
                         Fraction(0))
            total += -2 * step.delta * peeled * peeled
            moved = {}
            for p in step.complement:
                tgt = step.retraction[p]
                moved[tgt] = moved.get(tgt, Fraction(0)) + weights.pop(p, Fraction(0))
            for tgt, v in moved.items():
                weights[tgt] = weights.get(tgt, Fraction(0)) + v
        return total


def retraction_decomposition(mm: MedianMetric) -> DecompositionTrace:
    """Peel a maximal proper halfspace at a time, read off the walls.

    The distance of a median metric is the measure of the walls that
    separate two points, so its ``measured_walls`` record gives every
    step: a wall's measure delta, a point's code, and the halfspaces of
    the current (convex) set, the walls' sides restricted to it.  The
    record is searched for at most once per metric, and not at all on a
    median graph's path metric or a product.  Each step keeps the
    lexicographically smallest maximal side, and a peeled point retracts
    to the point whose code flips only the peeled wall: its nearest point
    in the kept side, at distance delta.  The clauses this rests on (unique nearest points
    on geodesics, the rectangle property, a constant gap, the four-case
    distance law) are checked against ``retraction_oracle`` in the tests.
    """
    _require_median("retraction_decomposition", mm)
    codes, deltas = mm.measured_walls
    code, by_code = codes.ints, codes.point_of
    steps: list[RetractionStep] = []
    current = (1 << len(mm.points)) - 1
    while current & (current - 1):
        wall_of = {}
        for k, side in enumerate(codes.sides):
            inside, outside = current & side, current & ~side
            if inside and outside:
                wall_of[inside] = wall_of[outside] = k
        sides = list(wall_of)
        maximal = [s for s in sides if not any(t != s and not s & ~t for t in sides)]
        chosen = min(maximal, key=intervals.members)
        k = wall_of[chosen]
        outside = intervals.members(current & ~chosen)
        steps.append(RetractionStep(
            halfspace=tuple(mm.points[g] for g in intervals.members(chosen)),
            complement=tuple(mm.points[g] for g in outside),
            delta=Fraction(deltas[k], mm.scale),
            retraction={mm.points[x]: mm.points[by_code[code[x] ^ (1 << k)]]
                        for x in outside},
        ))
        current = chosen
    return DecompositionTrace(mm, tuple(steps))
