"""Finite median algebras: interval maps, axiom validation, halfspaces,
separation, median closure, and morphisms.

An interval map assigns to every ordered pair of points a subset of the
ground set.  Four axioms make it a median algebra:

  idempotence    [x,x] = {x}
  symmetry       [x,y] = [y,x]
  nesting        z in [x,y]  implies  [x,z] subset of [x,y]
  unique_median  [x,y], [y,z], [z,x] meet in exactly one point

Raw data arrives as an :class:`IntervalStructure` and is promoted to a
:class:`FiniteMedianAlgebra` only after passing :func:`validate_axioms`.
A structure holds its intervals only as a packed betweenness table over
the point indices (the layout of :mod:`intervals`), and its ids as one
record (:class:`intervals.PointIndex`); a metric's structure holds the
metric's own table and record, and an algebra its structure's.  The axioms, convexity,
halfspaces and morphisms read that table with the kernels of
:mod:`intervals`; an algebra's medians are read off its halfspaces' wall
record (``WallCodes.median``), built once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import intervals
from .intervals import PointIndex, pack_rows    # IntervalStructure's parameter shadows the module
from .errors import InputError, InternalCheckError

Point = Hashable

AXIOMS = ("idempotence", "symmetry", "nesting", "unique_median")


class IntervalStructure(intervals.OnPoints):
    """A finite point set with an interval map and no axiom guarantees.

    Every ordered pair must have an interval and every member must be a
    known point; beyond that nothing is assumed (in particular symmetry
    is checked later, not presumed).  ``packed[i, j]`` is the interval of
    points i and j as a mask over the point indices, packed into uint64
    words as in :mod:`intervals`; the constructor builds each mask
    straight from the members' indices.
    """

    def __init__(self, points: Sequence[Point],
                 intervals: Mapping[tuple[Point, Point], Iterable[Point]]):
        ids = PointIndex.checked(points, "an interval structure")
        pts, index = ids.points, ids.positions
        n = len(pts)
        bit = {p: 1 << i for p, i in index.items()}.get
        masks: list[int | None] = [None] * (n * n)    # [x,y] at n * x + y
        stray: set = set()
        for key, members in intervals.items():
            try:
                x, y = key
            except (TypeError, ValueError):
                raise InputError(f"interval key {key!r} is not a pair of points") from None
            try:
                i, j = index.get(x), index.get(y)
            except TypeError:           # an unhashable id is unknown too
                i = j = None
            if i is None or j is None:
                raise InputError(f"interval {key!r} references an unknown point")
            mask = 0
            try:
                for p in members:
                    b = bit(p)
                    if b is None:
                        stray.add(p)
                    else:
                        mask |= b
            except TypeError:
                raise InputError(f"interval {key!r} members are not point ids") from None
            if stray:
                raise InputError(
                    f"interval {key!r} contains unknown members {sorted(map(repr, stray))}")
            masks[n * i + j] = mask
        if None in masks:
            x, y = divmod(masks.index(None), n)
            raise InputError(
                f"interval ({pts[x]!r},{pts[y]!r}) missing; every ordered pair must be given")
        self._ids = ids
        self.packed = pack_rows(masks, n).reshape(n, n, -1)

    @classmethod
    def _trusted(cls, ids: PointIndex, packed: np.ndarray) -> "IntervalStructure":
        """Wrap a packed table that is valid by construction (a metric's
        betweenness table) on an id record (the metric's); nothing is
        re-read, re-packed or re-indexed."""
        out = cls.__new__(cls)
        out._ids = ids
        out.packed = packed
        return out

    def interval(self, x: Point, y: Point) -> frozenset:
        mask = intervals.as_int(self.packed[self.index(x), self.index(y)])
        return intervals.unmask(self.points, mask)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: tuple | None = None
    detail: frozenset | None = None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def as_dict(self) -> dict:
        return {
            c.name: {"passed": c.passed,
                     "witness": None if c.witness is None else [repr(w) for w in c.witness]}
            for c in self.checks
        }


def validate_axioms(s: IntervalStructure) -> AxiomReport:
    """Check the four axioms, reporting the first violating tuple of each.

    The scan order follows the point ordering, so witnesses are minimal
    in that order and the report is deterministic.  Every check reads the
    packed table with numpy: idempotence compares its diagonal with the
    singletons, symmetry compares it with its transpose, nesting tests
    [x,z] against [x,y] for every member z of [x,y] in blocks of rows x of
    about ``intervals.BLOCK`` pairs (y, z), and unique_median counts the
    meets of the ordered triples in product order with
    ``intervals.meet_counts``.
    """
    pts = s.points
    n = len(pts)
    packed = s.packed
    checks = []

    singletons = intervals.pack_rows([1 << i for i in range(n)], n)
    bad = np.flatnonzero((packed.diagonal().T != singletons).any(axis=1))
    witness = (pts[bad[0]],) if bad.size else None
    checks.append(AxiomCheck("idempotence", witness is None, witness))

    # the entries that differ from their transpose are symmetric, so the
    # first one in row-major order lies above the diagonal
    bad = np.argwhere((packed != packed.swapaxes(0, 1)).any(axis=2))
    witness = tuple(pts[t] for t in bad[0]) if len(bad) else None
    checks.append(AxiomCheck("symmetry", witness is None, witness))

    witness = None
    step = max(1, intervals.BLOCK // (n * n))
    for a in range(0, n, step):
        rows = packed[a:a + step]                               # [x - a, y]: [x,y]
        # [x - a, y, z]: [x,z] has a point outside [x,y]
        leaks = (rows[:, None] & ~rows[:, :, None]).any(axis=3)
        hit = intervals.first_hit(a, 0, leaks & intervals.unpack_bits(rows, n))
        if hit is not None:
            witness = tuple(pts[t] for t in hit)
            break
    checks.append(AxiomCheck("nesting", witness is None, witness))

    witness = detail = None
    for a, lo, counts in intervals.meet_counts(packed, ordered=True):
        hit = intervals.first_hit(a, lo, counts != 1)
        if hit is not None:
            witness = tuple(pts[t] for t in hit)
            detail = intervals.unmask(pts, intervals.meet(packed, *hit))
            break
    checks.append(AxiomCheck("unique_median", witness is None, witness, detail))

    return AxiomReport(tuple(checks))


@dataclass(frozen=True)
class Halfspace:
    """A subset whose complement is also convex; one side of a wall."""

    side: frozenset
    complement: frozenset

    def wall(self) -> frozenset:
        return frozenset((self.side, self.complement))


class FiniteMedianAlgebra(intervals.OnPoints):
    """A validated interval structure, on its id record.  Construct via
    :meth:`promote`."""

    def __init__(self, structure: IntervalStructure, report: AxiomReport):
        if not report.passed:
            raise InputError(f"axioms failing: {', '.join(report.failing())}")
        self._s = structure
        self._ids = structure._ids
        self.report = report

    @staticmethod
    def promote(structure: IntervalStructure) -> "FiniteMedianAlgebra":
        return FiniteMedianAlgebra(structure, validate_axioms(structure))

    @classmethod
    def from_intervals(cls, points, intervals) -> "FiniteMedianAlgebra":
        return cls.promote(IntervalStructure(points, intervals))

    def interval(self, x: Point, y: Point) -> frozenset:
        return self._s.interval(x, y)

    @functools.cached_property
    def _walls(self) -> intervals.WallCodes:
        """The proper halfspaces' wall record, shared by medians and halfspaces."""
        return intervals.halfspaces(self._s.packed)[0]

    def median(self, x: Point, y: Point, z: Point) -> Point:
        """The point whose code is the majority of theirs: a halfspace holds
        the median iff it holds two of the three, and halfspaces separate points."""
        return self.points[self._walls.median(self.index(x), self.index(y), self.index(z))]

    def is_convex(self, subset: Iterable[Point]) -> bool:
        return intervals.is_convex(self._s.packed, sum({1 << self.index(p) for p in subset}))

    # -- halfspaces ---------------------------------------------------

    def halfspaces(self) -> list[Halfspace]:
        """All walls, one canonical side each (the side holding the first
        point), in lexicographic order of that side; includes the trivial
        wall.
        """
        full = (1 << len(self.points)) - 1
        sides = self._walls.sides + [full]
        sides.sort(key=intervals.members)
        return [Halfspace(intervals.unmask(self.points, side),
                          intervals.unmask(self.points, full & ~side))
                for side in sides]

    def separate(self, c1: Iterable[Point], c2: Iterable[Point]) -> Halfspace:
        """First halfspace in canonical order with c1 inside and c2 outside."""
        a, b = frozenset(c1), frozenset(c2)
        if not a or not b:
            raise InputError("both sets must be nonempty")
        if a & b:
            raise InputError("the sets must be disjoint")
        if not self.is_convex(a) or not self.is_convex(b):
            raise InputError("both sets must be convex")
        for h in self.halfspaces():
            if a <= h.side and b <= h.complement:
                return h
            if a <= h.complement and b <= h.side:
                return Halfspace(h.complement, h.side)
        raise InternalCheckError(
            "no separating halfspace found for disjoint convex sets; "
            "this cannot happen on a valid median algebra")

    # -- closure ------------------------------------------------------

    def median_closure(self, seed: Iterable[Point]) -> frozenset:
        """Smallest median-stable superset, by fixpoint over triples."""
        current = set(seed)
        for p in current:
            self.index(p)
        fresh = list(current)
        while fresh:
            added = []
            members = list(current)
            for a in fresh:
                for b, c in itertools.combinations_with_replacement(members, 2):
                    m = self.median(a, b, c)
                    if m not in current:
                        current.add(m)
                        added.append(m)
            fresh = added
        return frozenset(current)


def total_image(f: Mapping[Point, Point], source, target) -> list[int]:
    """The target index of each source point's image; f must be total and land in the target."""
    image = []
    for p in source.points:
        if p not in f:
            raise InputError(f"map is not total: {p!r} has no image")
        image.append(target.index(f[p]))
    return image


def is_median_morphism(f: Mapping[Point, Point], a: FiniteMedianAlgebra,
                       b: FiniteMedianAlgebra) -> bool:
    """Whether f maps every interval of `a` into the image interval in `b`.

    This interval criterion is the definition.  It is equivalent to every
    halfspace of `b` pulling back to a halfspace of `a`; the tests check
    the two agree (``morphism_by_halfspaces``).  Both packed tables are
    read in blocks of rows x, as the nesting check of :func:`validate_axioms`
    reads one.
    """
    n, fi = len(a.points), np.array(total_image(f, a, b))
    step = max(1, intervals.BLOCK // (n * n))
    for lo in range(0, n, step):
        inside = intervals.unpack_bits(a._s.packed[lo:lo + step], n)   # [x - lo, y, t]: t in [x,y]
        # [x - lo, y, t]: f(t) in [f(x),f(y)]
        target = intervals.unpack_bits(b._s.packed[fi[lo:lo + step, None], fi], len(b))[..., fi]
        if (inside > target).any():
            return False
    return True
