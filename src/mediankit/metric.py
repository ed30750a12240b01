"""Finite metric spaces with exact arithmetic.

Distances are rationals; internally everything is rescaled to integers so
interval membership and the lemma scans are plain integer equalities.
Geodesic intervals are [x,y] = {t : d(x,t)+d(t,y) = d(x,y)}.  The ids
are one record (:class:`intervals.PointIndex`), shared like the distance
record by every metric made from it and by a graph's path metric.

An input matrix is read through one table: each distinct entry (an int,
a string or a Fraction; a numpy integer array is read as its ``tolist``)
is read once, a plain ASCII integer or ``p/q`` string as an integer pair
in lowest terms and every other string by the rational grammar of
``Fraction``, and every row is mapped through the table of scaled ints;
floats and booleans are rejected, and only an input with a rejected
entry is parsed entry by entry, for the first bad entry in row-major
order.  The scaled matrix is checked as a whole by exact numpy
kernels on one array, of the narrowest of int16, int32 and int64 in
which every sum of two entries fits, Python ints beyond
(:func:`_exact_dtype`).  The triangle inequality runs in broadcast
blocks of about ``intervals.BLOCK`` int64 entries' worth of bytes, each
covering a run of middle points, so a narrower dtype takes more of them
per block.  Only a rejected matrix is scanned in Python, for the first
failed axiom that the error reports.  The checked array, read-only, is
the metric's one distance record, shared by the metrics made from it; a
graph's path metric is handed the array its distances were counted in.

The betweenness table is built the same way, on that array: one
broadcast comparison d(i,t) + d(j,t) == d(i,j) per block of rows i,
packed into uint64 words (the layout of :mod:`intervals`), once per
metric by ``_between``.  It is the metric's only betweenness table:
``classify`` counts the common points of each triple's intervals on it
with the blocked meet kernel of :mod:`intervals`, the readers of single
intervals take one entry as an int, and ``to_algebra`` wraps the table
itself; a median metric's medians are read off its measured walls
(:class:`MedianMetric`).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
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
    if isinstance(value, numbers.Integral):     # int, or a numpy integer
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {value!r}: {exc}") from None
    if isinstance(value, float):
        raise InputError(
            f"float distance {value!r} rejected; pass an int, Fraction or 'p/q' string")
    raise InputError(f"cannot interpret {value!r} as a rational")


def _pair(value) -> tuple[int, int]:
    """An entry as (numerator, denominator) in lowest terms.  An int, and
    a string that is a plain ASCII integer or ``p/q`` with a nonzero
    ``q``, are read as integers; every other form, and every failure (a
    zero denominator, a part past ``sys.get_int_max_str_digits()``), is
    :func:`_to_fraction`'s."""
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
            try:
                p, q = int(num), int(den) if slash else 1
            except ValueError:      # past the digit limit
                pass
            else:
                if q:
                    r = math.gcd(p, q)
                    return p // r, q // r
    f = _to_fraction(value)
    return f.numerator, f.denominator


_TABLE_TYPES = {int, str, Fraction}


def _scaled_rows(matrix: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Every entry as an integer multiple of 1/scale, scale the least
    common denominator.  A numpy integer array is read as its ``tolist``.
    When every entry is an int, str or Fraction, each distinct entry is
    read once, as an integer pair by :func:`_pair`, and each row is mapped
    through one table of scaled ints.  Otherwise, or when some entry is
    rejected, the entries are parsed one by one in row-major order, so
    the grammar and the first bad entry are those of :func:`_to_fraction`."""
    if isinstance(matrix, np.ndarray) and matrix.dtype.kind in "iu":
        matrix = matrix.tolist()
    entries = itertools.chain.from_iterable
    if set(map(type, entries(matrix))) <= _TABLE_TYPES:
        try:
            table = {v: _pair(v) for v in set(entries(matrix))}
        except InputError:
            pass                # the scan below reports the first bad entry
        else:
            scale = math.lcm(*{q for _, q in table.values()})
            for v, (p, q) in table.items():
                table[v] = p * (scale // q)
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


class FiniteMetric(intervals.OnPoints):
    """A finite point set with an exact, validated metric: one read-only
    array ``_d`` of :func:`_exact_dtype` holds d(i, j) * ``scale``."""

    def __init__(self, points: Sequence[Point], matrix: Sequence[Sequence]):
        ids = intervals.PointIndex.checked(points, "a metric space")
        n = len(ids.points)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise InputError(f"distance matrix must be {n}x{n}")
        di, scale = _scaled_rows(matrix)
        d = _exact_array(di)
        if not _is_metric(d):
            _raise_first_violation(ids.points, di)
        self._adopt(ids, scale, d)

    def _adopt(self, ids: intervals.PointIndex, scale: int, d: np.ndarray) -> None:
        self._ids = ids
        self._scale = scale
        d.flags.writeable = False       # shared by every metric made from it
        self._d = d
        self._betw: np.ndarray | None = None

    @classmethod
    def _trusted(cls, ids: intervals.PointIndex, d: np.ndarray,
                 scale: int = 1) -> "FiniteMetric":
        """Wrap an exact array of :func:`_exact_dtype` whose scaled distances
        are a metric by construction (BFS distances, another metric's
        array) on an id record (the graph's, the other metric's); nothing
        is re-checked or re-indexed, and both are kept, not copied."""
        out = cls.__new__(cls)
        out._adopt(ids, scale, d)
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
        try:
            intervals.PointIndex.checked(pts, "a metric space")
        except InputError:
            _scaled_rows(rows[:n - 1])
            raise
        return cls(pts, full)

    @property
    def scale(self) -> int:
        return self._scale

    def dist(self, x: Point, y: Point) -> Fraction:
        return Fraction(self.dist_int(self.index(x), self.index(y)), self._scale)

    def dist_int(self, i: int, j: int) -> int:
        """Scaled integer distance between point indices."""
        return int(self._d[i, j])

    def upper_triangle(self) -> list[list[Fraction]]:
        rows = self._d.tolist()
        return [[Fraction(v, self._scale) for v in row[i + 1:]]
                for i, row in enumerate(rows[:-1])]

    # -- geodesic intervals -------------------------------------------

    def _between(self) -> np.ndarray:
        """The packed betweenness table: bit t of ``[i, j]`` set iff t lies
        between i and j.  One broadcast comparison d(i,t) + d(j,t) ==
        d(i,j) per block of rows i (:func:`_block_rows`), on the metric's
        exact array, built once."""
        if self._betw is None:
            n = len(self.points)
            d = self._d
            out = np.zeros((n, n, 8 * intervals.words(n)), dtype=np.uint8)
            step = _block_rows(d)
            for s in range(0, n, step):
                rows = d[s:s + step]
                out[s:s + step, :, :(n + 7) // 8] = np.packbits(
                    rows[:, None, :] + d == rows[:, :, None], axis=-1, bitorder="little")
            self._betw = out.view("<u8")
        return self._betw

    def between_mask(self, i: int, j: int) -> int:
        return intervals.as_int(self._between()[i, j])

    def geodesic_interval(self, x: Point, y: Point) -> frozenset:
        return intervals.unmask(self.points, self.between_mask(self.index(x), self.index(y)))

    def interval_structure(self) -> IntervalStructure:
        return IntervalStructure._trusted(self._ids, self._between())

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
    packed = m._between()
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
    return Classification("neither" if empty else "modular",
                          tuple(m.points[t] for t in hit),
                          intervals.unmask(m.points, intervals.meet(packed, *hit)))


class MedianMetric(FiniteMetric):
    """A finite metric certified median, with its measured walls.

    Its distance is the measure of the walls that separate two points, and
    a median lies on the majority side of every wall (Chatterji-Druţu-Haglund,
    arXiv 0809.4099), so ``median_index`` reads the majority of three codes
    of ``measured_walls`` (``WallCodes.median``).

    The leg identity 2*d(x,m) = d(x,y)+d(x,z)-d(y,z) holds on every triple
    without a separate scan: it follows from the three betweenness
    equalities that certification has checked for the median m.
    """

    def __init__(self, points, matrix):
        super().__init__(points, matrix)
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
        """Certify a metric as median, sharing its exact array (not
        validated again), its id record and its betweenness table."""
        out = cls._trusted(metric._ids, metric._d, metric._scale)
        out._betw = metric._betw
        out._certify()
        return out

    @classmethod
    def _proven(cls, metric: FiniteMetric,
                walls: tuple[intervals.WallCodes, list[int]]) -> "MedianMetric":
        """Wrap a metric proven median by its measured walls, given as the
        ``measured_walls`` record (a median graph's wall coordinates with
        delta = 1, a product's factors' walls); no triple is scanned and
        no halfspace is searched.  It shares the metric's array and id record."""
        out = cls._trusted(metric._ids, metric._d, metric._scale)
        out.measured_walls = walls
        return out

    @functools.cached_property
    def measured_walls(self) -> tuple[intervals.WallCodes, list[int]]:
        """The walls' codes and scaled measures (codes, delta), delta the
        distance of each wall's first covering pair: one
        ``intervals.halfspaces`` call, unless :meth:`_proven` seeded it."""
        codes, pairs = intervals.halfspaces(self._between())
        return codes, [self.dist_int(*covering[0]) for covering in pairs]

    def median_index(self, i: int, j: int, k: int) -> int:
        return self.measured_walls[0].median(i, j, k)

    def median_point(self, x: Point, y: Point, z: Point) -> Point:
        return self.points[self.median_index(self.index(x), self.index(y),
                                             self.index(z))]


def _require_median(caller: str, *metrics: FiniteMetric) -> None:
    if not all(isinstance(m, MedianMetric) for m in metrics):
        raise InputError(f"{caller} needs a median metric; certify it first "
                         "with MedianMetric.certify")


def product(m1: MedianMetric, m2: MedianMetric) -> MedianMetric:
    """The l1 product metric on pairs, in row-major order.

    An interval of the product is the product of the factors' intervals,
    so the product of two median metrics is median, with the
    componentwise median; no triple is scanned.  The tests check both
    (``test_product_median_is_componentwise_on_p3_grid``).  Its walls, the
    factors' side by side, each measured by its factor's delta times
    lcm(s1, s2)/s_i, seed its ``measured_walls``; no halfspace is searched.

    Each factor's scale is the least common denominator of its distances,
    and the product holds every distance of each factor, so its scale is
    lcm(s1, s2).  Its array is one broadcast sum of the factors' exact
    arrays at that scale, in int64 while the largest sum, peak, fits, in
    Python ints beyond, and kept in :func:`_exact_dtype` of [0, peak], as
    the constructor would.  Each factor must be a MedianMetric.
    """
    _require_median("product", m1, m2)
    pts = [(p, q) for p in m1.points for q in m2.points]
    scale = math.lcm(m1._scale, m2._scale)
    f1, f2 = scale // m1._scale, scale // m2._scale
    peak = int(m1._d.max()) * f1 + int(m2._d.max()) * f2
    wide = np.int64 if peak < 1 << 62 else object
    rows = m1._d.astype(wide)[:, None, :, None] * f1 + m2._d.astype(wide)[None, :, None, :] * f2
    d = rows.reshape(len(pts), len(pts)).astype(_exact_dtype(0, peak))
    (c1, delta1), (c2, delta2) = m1.measured_walls, m2.measured_walls
    n1, n2 = len(m1.points), len(m2.points)
    codes = intervals.WallCodes(np.hstack([c1.bits.repeat(n2, axis=0),
                                           np.tile(c2.bits, (n1, 1))]))
    delta = [v * f1 for v in delta1] + [v * f2 for v in delta2]
    return MedianMetric._proven(FiniteMetric._trusted(intervals.PointIndex(pts), d, scale),
                                (codes, [delta[t] for t in codes.order.tolist()]))


@dataclass(frozen=True)
class PropertyReport:
    name: str
    passed: bool
    checked: int
    mode: str                   # "exhaustive" | "sampled"
    witness: tuple | None = None
    seed: int | None = None


def check_colinear_lemma(m: MedianMetric, exhaustive_cap: int = 50,
                         samples: int = 20000, seed: int = 0) -> PropertyReport:
    """For m the median of (x,y,z): every v between y and z has m between
    x and v.  Exhaustive up to the cap, seeded sampling beyond.
    """
    _require_median("check_colinear_lemma", m)
    n = len(m.points)
    d = m._d.tolist()
    checked = 0

    def holds(x: int, y: int, z: int, v: int) -> bool:
        mi = m.median_index(x, y, z)
        return d[x][mi] + d[mi][v] == d[x][v]

    if n <= exhaustive_cap:
        between = [[intervals.members(m.between_mask(y, z)) for z in range(n)]
                   for y in range(n)]
        pairs = list(itertools.combinations_with_replacement(range(n), 2))
        for x, (y, z) in itertools.product(range(n), pairs):
            for v in between[y][z]:
                checked += 1
                if not holds(x, y, z, v):
                    pts = tuple(m.points[t] for t in (x, y, z, v))
                    return PropertyReport("colinear-median", False,
                                          checked, "exhaustive", pts)
        return PropertyReport("colinear-median", True, checked, "exhaustive")

    rng = random.Random(seed)
    for _ in range(samples):
        x, y, z = (rng.randrange(n) for _ in range(3))
        v = rng.choice(intervals.members(m.between_mask(y, z)))
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
    triples and all pairings covers every ordered tuple.  The medians of
    all multiset triples are tabulated only for an exhaustive scan; a
    sampled one computes those of its samples alone.
    """
    _require_median("check_median_lipschitz", m)
    n = len(m.points)
    d = m._d.tolist()

    def first_violation(t, mi, vs) -> int | None:
        """The first v of ``vs`` that breaks inequality i at triple t."""
        x, y, z = t
        ls = d[x][mi] + d[y][mi] + d[z][mi]
        return next((v for v in vs if d[v][mi] > d[v][x] + d[v][y] + d[v][z] - ls), None)

    def pairing_ok(t1, m1_, t2, m2_) -> bool:
        dm = d[m1_][m2_]
        return all(dm <= d[t1[0]][t2[p[0]]] + d[t1[1]][t2[p[1]]] + d[t1[2]][t2[p[2]]]
                   for p in _PERMS3)

    # the multiset triples and their medians, for the exhaustive branches only
    if n <= max(point_cap, pair_cap):
        triples = list(itertools.combinations_with_replacement(range(n), 3))
        meds = [m.median_index(*t) for t in triples]

    checked = 0
    witness = None
    if n <= point_cap:
        mode1 = "exhaustive"
        for t, mi in zip(triples, meds):
            v = first_violation(t, mi, range(n))
            if v is not None:
                checked += v + 1
                witness = tuple(m.points[q] for q in (*t, v))
                break
            checked += n
    else:
        mode1 = "sampled"
        rng = random.Random(seed)
        for _ in range(samples):
            t = tuple(rng.randrange(n) for _ in range(3))
            v = rng.randrange(n)
            checked += 1
            if first_violation(t, m.median_index(*t), (v,)) is not None:
                witness = tuple(m.points[q] for q in (*t, v))
                break
    rep1 = PropertyReport("near-median-bound", witness is None, checked, mode1,
                          witness, seed if mode1 == "sampled" else None)

    checked = 0
    witness = None
    if n <= pair_cap:
        mode2 = "exhaustive"
        for a, b in itertools.combinations_with_replacement(range(len(triples)), 2):
            checked += 1
            if not pairing_ok(triples[a], meds[a], triples[b], meds[b]):
                witness = (tuple(m.points[q] for q in triples[a]),
                           tuple(m.points[q] for q in triples[b]))
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
    inside = intervals.unpack_bits(m._between(), n)     # [x, z, t]: t in [x,z]
    by_mid = inside.transpose(2, 0, 1)                  # [z, y, t]: z in [y,t]
    out = []
    for x in range(n):
        from_x = inside[x]                              # [z, y]: y in [x,z]
        # [z, y, t]: y and t lie between x and z, and x and z between y and t
        hit = from_x[:, :, None] & from_x[:, None, :] & inside[:, :, x] & by_mid
        for z, y, t in np.argwhere(hit).tolist():
            out.append(tuple(m.points[q] for q in (x, y, z, t)))
    return out
