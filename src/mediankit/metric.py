"""Finite metric spaces with exact arithmetic.

Distances are rationals; internally everything is rescaled to integers so
interval membership and the lemma scans are plain integer equalities.
Geodesic intervals are [x,y] = {t : d(x,t)+d(t,y) = d(x,y)}.

An input matrix is read through one table: each distinct entry (an int,
a string or a Fraction) is parsed once, and every row is mapped through
the table of scaled ints; floats and booleans are rejected, and only an
input with a rejected entry is parsed entry by entry, for the first bad
entry in row-major order.  The scaled matrix is checked as a whole by
exact numpy kernels on one array, of the narrowest of int16, int32 and
int64 in which every sum of two entries fits, Python ints beyond
(:func:`_exact_dtype`).  The triangle inequality runs in broadcast
blocks of about ``intervals.BLOCK`` int64 entries' worth of bytes, each
covering a run of middle points, so a narrower dtype takes more of them
per block.  Only a rejected matrix is scanned in Python, for the first
failed axiom that the error reports.  The metric keeps the checked
array; a graph's path metric is handed the array its distances were
counted in.

The betweenness table is built the same way, on that array: one
broadcast comparison d(i,t) + d(j,t) == d(i,j) per block of rows i,
packed into uint64 words (``intervals.pack`` layout).  ``classify``
counts the common points of each triple's intervals on that packed
table with the blocked meet kernel of :mod:`intervals`; ``_between``
decodes it once into Python int masks for the callers that walk single
intervals.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Sequence

import numpy as np

from . import intervals
from .algebra import FiniteMedianAlgebra, IntervalStructure
from .errors import InputError, InternalCheckError, NotMedianError

Point = Hashable


def _to_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise InputError(
            f"boolean distance {value!r} rejected; pass an int, Fraction or 'p/q' string")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {value!r}: {exc}") from None
    if isinstance(value, float):
        raise InputError(
            f"float distance {value!r} rejected; pass an int, Fraction or 'p/q' string")
    raise InputError(f"cannot interpret {value!r} as a rational")


_TABLE_TYPES = {int, str, Fraction}


def _scaled_rows(matrix: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Every entry as an integer multiple of 1/scale, scale the least
    common denominator.  When every entry is an int, str or Fraction, each
    distinct entry is parsed by :func:`_to_fraction` once, and each row is
    mapped through one table of scaled ints.  Otherwise, or when some entry
    is rejected, the entries are parsed one by one in row-major order, so
    the grammar and the first bad entry are those of :func:`_to_fraction`."""
    entries = itertools.chain.from_iterable
    if set(map(type, entries(matrix))) <= _TABLE_TYPES:
        try:
            table = {v: _to_fraction(v) for v in set(entries(matrix))}
        except InputError:
            pass                # the scan below reports the first bad entry
        else:
            scale = math.lcm(*{f.denominator for f in table.values()})
            for v, f in table.items():
                table[v] = f.numerator * (scale // f.denominator)
            return [list(map(table.__getitem__, row)) for row in matrix], scale
    parsed = [[_to_fraction(v) for v in row] for row in matrix]
    scale = math.lcm(*{f.denominator for f in entries(parsed)})
    return [[f.numerator * (scale // f.denominator) for f in row] for row in parsed], scale


# entries below 2^14, 2^30 or 2^61 in size: a + b never overflows the dtype
_EXACT_DTYPES = ((1 << 14, np.int16), (1 << 30, np.int32), (1 << 61, np.int64))


def _exact_dtype(lo: int, hi: int):
    """The narrowest of int16, int32 and int64 in which a sum of two
    integers in [lo, hi] cannot overflow; ``object`` (Python ints) beyond."""
    for bound, dtype in _EXACT_DTYPES:
        if -bound < lo and hi < bound:
            return dtype
    return object


def _exact_array(di: list[list[int]]) -> np.ndarray:
    """The matrix as an exact numpy array, of :func:`_exact_dtype`."""
    return np.array(di, dtype=_exact_dtype(min(map(min, di)), max(map(max, di))))


def _block_rows(d: np.ndarray) -> int:
    """Rows of the n x n array d per broadcast block, each row adding an
    n x n temporary of d's dtype: about ``intervals.BLOCK`` int64 entries'
    worth of bytes per block, so a narrower dtype takes more rows."""
    n = len(d)
    return max(1, 8 * intervals.BLOCK // (n * n * d.itemsize))


def _is_metric(d: np.ndarray) -> bool:
    """Zero diagonal, symmetric, positive off the diagonal and the triangle
    inequality, checked exactly on the :func:`_exact_array` of a matrix."""
    n = len(d)
    positive = d > 0
    np.fill_diagonal(positive, True)
    if d.diagonal().any() or not positive.all() or (d != d.T).any():
        return False
    # d(i,k) + d(k,j) >= d(i,j) for a block of middle points k at a time: by
    # symmetry the rows of the block are its columns
    step = _block_rows(d)
    for lo in range(0, n, step):
        rows = d[lo:lo + step]
        if (rows[:, :, None] + rows[:, None, :] < d).any():
            return False
    return True


def _raise_first_violation(pts: list, di: list[list[int]]) -> None:
    """The first failed metric axiom, scanned in the reported order: per
    point its self-distance, then symmetry and positivity against later
    points; then the triangle inequality over triples in lexicographic
    order."""
    n = len(pts)
    for i in range(n):
        if di[i][i] != 0:
            raise InputError(f"nonzero self-distance at {pts[i]!r}")
        for j in range(i + 1, n):
            if di[i][j] != di[j][i]:
                raise InputError(f"asymmetric distances for ({pts[i]!r},{pts[j]!r})")
            if di[i][j] <= 0:
                raise InputError(
                    f"non-positive distance between distinct points ({pts[i]!r},{pts[j]!r})")
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = di[i][j], di[j][k], di[i][k]
        if a + b < c or a + c < b or b + c < a:
            raise InputError(
                f"triangle inequality fails on ({pts[i]!r},{pts[j]!r},{pts[k]!r})")
    raise InternalCheckError("metric check rejected a matrix with no failed axiom")


class FiniteMetric:
    """A finite point set with an exact, validated metric."""

    def __init__(self, points: Sequence[Point], matrix: Sequence[Sequence]):
        pts = list(points)
        n = len(pts)
        if n == 0:
            raise InputError("a metric space needs at least one point")
        if len(set(pts)) != len(pts):
            raise InputError("duplicate point identifiers")
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise InputError(f"distance matrix must be {n}x{n}")
        di, scale = _scaled_rows(matrix)
        d = _exact_array(di)
        if not _is_metric(d):
            _raise_first_violation(pts, di)
        self._adopt(pts, di, scale, d)

    def _adopt(self, points: list, di: list[list[int]], scale: int,
               d: np.ndarray) -> None:
        self.points = points
        self._index = {p: i for i, p in enumerate(points)}
        self._scale = scale
        self._di = di
        self._d = d             # di as an exact array, of _exact_dtype
        self._betw: list[list[int]] | None = None
        self._packed_betw: np.ndarray | None = None

    @classmethod
    def _trusted(cls, points: Sequence[Point], di: list[list[int]],
                 scale: int = 1, d: np.ndarray | None = None) -> "FiniteMetric":
        """Wrap a scaled integer matrix that is a metric by construction
        (BFS distances, or another metric's validated matrix); nothing is
        re-checked.  ``d`` is the same matrix as an exact array of
        :func:`_exact_dtype`, built from ``di`` when not given."""
        out = cls.__new__(cls)
        out._adopt(list(points), di, scale, _exact_array(di) if d is None else d)
        return out

    @classmethod
    def from_upper_triangle(cls, points: Sequence[Point],
                            rows: Sequence[Sequence]) -> "FiniteMetric":
        """Rows i = distances from points[i] to points[i+1:], row-major.

        The entries are mirrored unparsed into a square matrix, which the
        constructor parses.  A bad entry is reported before a malformed
        later row, and before repeated points."""
        pts = list(points)
        n = len(pts)
        if len(rows) not in (n - 1, n):
            raise InputError(f"expected {n - 1} upper-triangle rows, got {len(rows)}")
        full: list[list] = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            row = rows[i]
            if len(row) != n - 1 - i:
                _scaled_rows(rows[:i])
                raise InputError(f"upper-triangle row {i} must have {n - 1 - i} entries")
            for j, v in enumerate(row, i + 1):
                full[i][j] = full[j][i] = v
        if len(set(pts)) != n:
            _scaled_rows(rows[:n - 1])
        return cls(pts, full)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def scale(self) -> int:
        return self._scale

    def index(self, p: Point) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise InputError(f"unknown point {p!r}") from None

    def dist(self, x: Point, y: Point) -> Fraction:
        return Fraction(self._di[self.index(x)][self.index(y)], self._scale)

    def dist_int(self, i: int, j: int) -> int:
        """Scaled integer distance between point indices."""
        return self._di[i][j]

    def upper_triangle(self) -> list[list[Fraction]]:
        n = len(self.points)
        return [[Fraction(self._di[i][j], self._scale) for j in range(i + 1, n)]
                for i in range(n - 1)]

    # -- geodesic intervals -------------------------------------------

    def _packed(self) -> np.ndarray:
        """The betweenness table packed as in ``intervals.pack``: one
        broadcast comparison d(i,t) + d(j,t) == d(i,j) per block of rows i
        (:func:`_block_rows`), on the metric's exact array."""
        if self._packed_betw is None:
            n = len(self.points)
            d = self._d
            out = np.zeros((n, n, 8 * intervals.words(n)), dtype=np.uint8)
            step = _block_rows(d)
            for s in range(0, n, step):
                rows = d[s:s + step]
                out[s:s + step, :, :(n + 7) // 8] = np.packbits(
                    rows[:, None, :] + d == rows[:, :, None], axis=-1, bitorder="little")
            self._packed_betw = out.view("<u8")
        return self._packed_betw

    def _between(self) -> list[list[int]]:
        """Bitmask table: bit t of [i][j] set iff t lies between i and j."""
        if self._betw is None:
            self._betw = intervals.unpack(self._packed())
        return self._betw

    def between_mask(self, i: int, j: int) -> int:
        return self._between()[i][j]

    def geodesic_interval(self, x: Point, y: Point) -> frozenset:
        m = self.between_mask(self.index(x), self.index(y))
        return frozenset(p for t, p in enumerate(self.points) if m >> t & 1)

    def interval_structure(self) -> IntervalStructure:
        table = {(x, y): self.geodesic_interval(x, y)
                 for x in self.points for y in self.points}
        return IntervalStructure(self.points, table)

    def to_algebra(self) -> FiniteMedianAlgebra:
        """Promote the geodesic intervals; fails unless the metric is median."""
        return FiniteMedianAlgebra.promote(self.interval_structure())


@dataclass(frozen=True)
class Classification:
    kind: str  # "median" | "modular" | "neither"
    witness: tuple | None = None      # offending triple of points
    intersection: frozenset | None = None

    @property
    def is_median(self) -> bool:
        return self.kind == "median"


def classify(m: FiniteMetric) -> Classification:
    """Scan all triples i < j < k: median iff every triple intersection
    is a singleton, modular iff every one is nonempty, else neither.  The
    witness is the first offending triple in lexicographic order, empty
    intersections first, so the scan stops at the first empty one.

    The intersections are counted on the packed betweenness table by
    ``intervals.meet_counts``, O(n^3 * n/64) word operations in blocks
    that stop with the first block holding an empty triple.
    """
    packed = m._packed()
    empty = multi = None
    for a, lo, counts in intervals.meet_counts(packed, ordered=False):
        empty = intervals.first_hit(a, lo, counts == 0)
        if empty is not None:
            break
        if multi is None:
            multi = intervals.first_hit(a, lo, counts > 1)
    hit = empty or multi
    if hit is None:
        return Classification("median")
    inter = intervals.meet(packed, *hit)
    return Classification("neither" if empty else "modular",
                          tuple(m.points[t] for t in hit),
                          frozenset(m.points[t] for t in intervals.members(inter)))


class MedianMetric(FiniteMetric):
    """A finite metric certified median, with a memoized median table.

    The leg identity 2*d(x,m) = d(x,y)+d(x,z)-d(y,z) holds on every triple
    without a separate scan: it follows from the three betweenness
    equalities that certification has checked for the median m.
    """

    def __init__(self, points, matrix):
        super().__init__(points, matrix)
        self._med: dict[tuple[int, int, int], int] = {}
        self._certify()

    def _certify(self) -> None:
        verdict = classify(self)
        if not verdict.is_median:
            raise NotMedianError(
                f"not a median metric: triple {verdict.witness!r} has "
                f"{len(verdict.intersection or ())} common interval points",
                witness=verdict)

    @classmethod
    def certify(cls, metric: FiniteMetric) -> "MedianMetric":
        """Certify a metric as median, sharing its integer matrix and exact
        array (not validated again) and its betweenness tables."""
        out = cls._proven(metric)
        out._certify()
        return out

    @classmethod
    def _proven(cls, metric: FiniteMetric) -> "MedianMetric":
        """Wrap a metric already proven median by other means (a median
        graph's wall coordinates); no triple is scanned, and the median
        table fills lazily."""
        out = cls._trusted(metric.points, metric._di, metric._scale, metric._d)
        out._betw = metric._betw
        out._packed_betw = metric._packed_betw
        out._med = {}
        return out

    def median_index(self, i: int, j: int, k: int) -> int:
        key = tuple(sorted((i, j, k)))
        got = self._med.get(key)
        if got is not None:
            return got
        betw = self._between()
        inter = betw[i][j] & betw[j][k] & betw[k][i]
        if inter.bit_count() != 1:
            raise InternalCheckError(f"median not unique at {key}")
        mi = inter.bit_length() - 1
        self._med[key] = mi
        return mi

    def median_point(self, x: Point, y: Point, z: Point) -> Point:
        return self.points[self.median_index(self.index(x), self.index(y),
                                             self.index(z))]


def product(m1: MedianMetric, m2: MedianMetric) -> MedianMetric:
    """The l1 product metric on pairs, in row-major order.

    An interval of the product is the product of the factors' intervals,
    so the product of two median metrics is median, with the
    componentwise median; no triple is scanned.  The tests check both
    (``test_product_median_is_componentwise_on_p3_grid``).
    """
    pts = [(p, q) for p in m1.points for q in m2.points]
    n2 = len(m2.points)
    n = len(pts)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        i1, i2 = divmod(a, n2)
        for b in range(a + 1, n):
            j1, j2 = divmod(b, n2)
            v = (Fraction(m1._di[i1][j1], m1._scale)
                 + Fraction(m2._di[i2][j2], m2._scale))
            rows[a][b] = rows[b][a] = v
    return MedianMetric._proven(FiniteMetric(pts, rows))


@dataclass(frozen=True)
class PropertyReport:
    name: str
    passed: bool
    checked: int
    mode: str                   # "exhaustive" | "sampled"
    witness: tuple | None = None
    seed: int | None = None


def _multiset_triples(n: int):
    return itertools.combinations_with_replacement(range(n), 3)


def check_colinear_lemma(m: MedianMetric, exhaustive_cap: int = 50,
                         samples: int = 20000, seed: int = 0) -> PropertyReport:
    """For m the median of (x,y,z): every v between y and z has m between
    x and v.  Exhaustive up to the cap, seeded sampling beyond.
    """
    n = len(m.points)
    d = m._di
    betw = m._between()
    checked = 0

    def holds(x: int, y: int, z: int, v: int) -> bool:
        mi = m.median_index(x, y, z)
        return d[x][mi] + d[mi][v] == d[x][v]

    if n <= exhaustive_cap:
        for x in range(n):
            for y in range(n):
                for z in range(y, n):
                    mask = betw[y][z]
                    v = 0
                    while mask:
                        if mask & 1:
                            checked += 1
                            if not holds(x, y, z, v):
                                pts = tuple(m.points[t] for t in (x, y, z, v))
                                return PropertyReport("colinear-median", False,
                                                      checked, "exhaustive", pts)
                        mask >>= 1
                        v += 1
        return PropertyReport("colinear-median", True, checked, "exhaustive")

    rng = random.Random(seed)
    for _ in range(samples):
        x, y, z = (rng.randrange(n) for _ in range(3))
        members = [t for t in range(n) if betw[y][z] >> t & 1]
        v = rng.choice(members)
        checked += 1
        if not holds(x, y, z, v):
            pts = tuple(m.points[t] for t in (x, y, z, v))
            return PropertyReport("colinear-median", False, checked, "sampled",
                                  pts, seed)
    return PropertyReport("colinear-median", True, checked, "sampled", None, seed)


@dataclass(frozen=True)
class LipschitzReport:
    near_median: PropertyReport
    median_map: PropertyReport

    @property
    def passed(self) -> bool:
        return self.near_median.passed and self.median_map.passed


_PERMS3 = tuple(itertools.permutations(range(3)))


def check_median_lipschitz(m: MedianMetric, point_cap: int = 50,
                           pair_cap: int = 12, samples: int = 20000,
                           seed: int = 0) -> LipschitzReport:
    """Two inequalities, verified on every tuple (or a seeded sample):

    i)  d(v,m) <= (d(v,x)+d(v,y)+d(v,z)) - (d(m,x)+d(m,y)+d(m,z))
    ii) d(m,m') <= d(x,x')+d(y,y')+d(z,z')

    Since the median is symmetric in its arguments, scanning unordered
    triples and all pairings covers every ordered tuple.
    """
    n = len(m.points)
    d = m._di

    triples = list(_multiset_triples(n))
    meds = [m.median_index(*t) for t in triples]
    legsum = [d[t[0]][mi] + d[t[1]][mi] + d[t[2]][mi]
              for t, mi in zip(triples, meds)]

    checked = 0
    witness = None
    if n <= point_cap:
        mode1 = "exhaustive"
        for (t, mi, ls) in zip(triples, meds, legsum):
            x, y, z = t
            for v in range(n):
                checked += 1
                if d[v][mi] > d[v][x] + d[v][y] + d[v][z] - ls:
                    witness = tuple(m.points[q] for q in (x, y, z, v))
                    break
            if witness:
                break
    else:
        mode1 = "sampled"
        rng = random.Random(seed)
        for _ in range(samples):
            x, y, z = (rng.randrange(n) for _ in range(3))
            v = rng.randrange(n)
            mi = m.median_index(x, y, z)
            ls = d[x][mi] + d[y][mi] + d[z][mi]
            checked += 1
            if d[v][mi] > d[v][x] + d[v][y] + d[v][z] - ls:
                witness = tuple(m.points[q] for q in (x, y, z, v))
                break
    rep1 = PropertyReport("near-median-bound", witness is None, checked, mode1,
                          witness, seed if mode1 == "sampled" else None)

    checked = 0
    witness = None

    def pairing_ok(t1, m1_, t2, m2_) -> bool:
        dm = d[m1_][m2_]
        return all(dm <= d[t1[0]][t2[p[0]]] + d[t1[1]][t2[p[1]]] + d[t1[2]][t2[p[2]]]
                   for p in _PERMS3)

    if n <= pair_cap:
        mode2 = "exhaustive"
        for a in range(len(triples)):
            t1, mi1 = triples[a], meds[a]
            for b in range(a, len(triples)):
                checked += 1
                if not pairing_ok(t1, mi1, triples[b], meds[b]):
                    witness = (tuple(m.points[q] for q in t1),
                               tuple(m.points[q] for q in triples[b]))
                    break
            if witness:
                break
    else:
        mode2 = "sampled"
        rng = random.Random(seed + 1)
        for _ in range(samples):
            t1 = tuple(sorted(rng.randrange(n) for _ in range(3)))
            t2 = tuple(sorted(rng.randrange(n) for _ in range(3)))
            checked += 1
            if not pairing_ok(t1, m.median_index(*t1), t2, m.median_index(*t2)):
                witness = (tuple(m.points[q] for q in t1),
                           tuple(m.points[q] for q in t2))
                break
    rep2 = PropertyReport("median-map-lipschitz", witness is None, checked, mode2,
                          witness, seed + 1 if mode2 == "sampled" else None)
    return LipschitzReport(rep1, rep2)


def find_rectangles(m: MedianMetric) -> list[tuple]:
    """All ordered 4-tuples (x,y,z,t) with y,t between x,z and x,z between
    y,t.  Their opposite sides are equal, as the theory guarantees
    (``test_rectangle_opposite_sides_equal``).
    """
    n = len(m.points)
    betw = m._between()
    out = []
    for x in range(n):
        for z in range(n):
            mask = betw[x][z]
            members = [t for t in range(n) if mask >> t & 1]
            for y in members:
                for t in members:
                    byt = betw[y][t]
                    if byt >> x & 1 and byt >> z & 1:
                        out.append(tuple(m.points[q] for q in (x, y, z, t)))
    return out
