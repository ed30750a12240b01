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
The structure keeps its intervals as a table of bitmasks over the point
indices, built once; the axioms, medians and halfspaces read that table,
and ``unique_median`` counts the meets of all ordered triples with the
packed kernel of :mod:`intervals`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from . import intervals
from .errors import InputError, InternalCheckError

Point = Hashable

AXIOMS = ("idempotence", "symmetry", "nesting", "unique_median")


class IntervalStructure:
    """A finite point set with an interval map and no axiom guarantees.

    Every ordered pair must have an interval and every member must be a
    known point; beyond that nothing is assumed (in particular symmetry
    is checked later, not presumed).  ``masks[i][j]`` is the interval of
    points i and j as a bitmask over the point indices.
    """

    def __init__(self, points: Sequence[Point],
                 intervals: Mapping[tuple[Point, Point], Iterable[Point]]):
        pts = list(points)
        if not pts:
            raise InputError("an interval structure needs at least one point")
        if len(set(pts)) != len(pts):
            raise InputError("duplicate point identifiers")
        self.points = pts
        self._index = {p: i for i, p in enumerate(pts)}
        known = set(pts)
        table: dict[tuple[Point, Point], frozenset] = {}
        for key, members in intervals.items():
            x, y = key
            if x not in known or y not in known:
                raise InputError(f"interval {key!r} references an unknown point")
            fs = frozenset(members)
            stray = fs - known
            if stray:
                raise InputError(
                    f"interval {key!r} contains unknown members {sorted(map(repr, stray))}")
            table[(x, y)] = fs
        for x in pts:
            for y in pts:
                if (x, y) not in table:
                    raise InputError(
                        f"interval ({x!r},{y!r}) missing; every ordered pair must be given")
        self._table = table
        index = self._index
        self.masks = [[sum(1 << index[p] for p in table[(x, y)]) for y in pts]
                      for x in pts]

    def index(self, p: Point) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise InputError(f"unknown point {p!r}") from None

    def interval(self, x: Point, y: Point) -> frozenset:
        self.index(x), self.index(y)
        return self._table[(x, y)]


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
    interval masks: nesting tests [x,z] against [x,y] for each member z
    of [x,y], and unique_median counts the meets of the ordered triples
    in product order with ``intervals.meet_counts``.
    """
    pts = s.points
    n = len(pts)
    masks = s.masks
    checks = []

    witness = next(((pts[i],) for i in range(n) if masks[i][i] != 1 << i), None)
    checks.append(AxiomCheck("idempotence", witness is None, witness))

    witness = next(((pts[i], pts[j]) for i, j in itertools.combinations(range(n), 2)
                    if masks[i][j] != masks[j][i]), None)
    checks.append(AxiomCheck("symmetry", witness is None, witness))

    witness = next(((pts[x], pts[y], pts[z]) for x, row in enumerate(masks)
                    for y, ivl in enumerate(row) for z in intervals.members(ivl)
                    if row[z] & ~ivl), None)
    checks.append(AxiomCheck("nesting", witness is None, witness))

    witness = detail = None
    packed = intervals.pack(masks)
    for a, lo, counts in intervals.meet_counts(packed, ordered=True):
        hit = intervals.first_hit(a, lo, counts != 1)
        if hit is not None:
            witness = tuple(pts[t] for t in hit)
            detail = frozenset(pts[t] for t in intervals.members(intervals.meet(packed, *hit)))
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


class FiniteMedianAlgebra:
    """A validated interval structure.  Construct via :meth:`promote`."""

    def __init__(self, structure: IntervalStructure, report: AxiomReport):
        if not report.passed:
            raise InputError(f"axioms failing: {', '.join(report.failing())}")
        self._s = structure
        self.report = report
        self.points = structure.points
        self._median_cache: dict[tuple[int, int, int], Point] = {}

    @staticmethod
    def promote(structure: IntervalStructure) -> "FiniteMedianAlgebra":
        return FiniteMedianAlgebra(structure, validate_axioms(structure))

    @classmethod
    def from_intervals(cls, points, intervals) -> "FiniteMedianAlgebra":
        return cls.promote(IntervalStructure(points, intervals))

    def __len__(self) -> int:
        return len(self.points)

    def index(self, p: Point) -> int:
        return self._s.index(p)

    def interval(self, x: Point, y: Point) -> frozenset:
        return self._s.interval(x, y)

    def median(self, x: Point, y: Point, z: Point) -> Point:
        i, j, k = self.index(x), self.index(y), self.index(z)
        key = tuple(sorted((i, j, k)))
        cached = self._median_cache.get(key)
        if cached is not None:
            return cached
        masks = self._s.masks
        common = masks[i][j] & masks[j][k] & masks[k][i]
        if common.bit_count() != 1:
            raise InternalCheckError(
                f"median of ({x!r},{y!r},{z!r}) not unique on a validated algebra")
        m = self.points[common.bit_length() - 1]
        self._median_cache[key] = m
        return m

    def is_convex(self, subset: Iterable[Point]) -> bool:
        return intervals.is_convex(self._s.masks, self._mask(subset))

    # -- halfspaces ---------------------------------------------------

    def _mask(self, subset: Iterable[Point]) -> int:
        mask = 0
        for p in subset:
            mask |= 1 << self.index(p)
        return mask

    def _unmask(self, mask: int) -> frozenset:
        return frozenset(self.points[i] for i in intervals.members(mask))

    def halfspaces(self) -> list[Halfspace]:
        """All walls, one canonical side each (the side holding the first
        point), in lexicographic order of that side; includes the trivial
        wall.
        """
        full = (1 << len(self.points)) - 1
        sides = [side for side, _ in intervals.halfspaces(self._s.masks)] + [full]
        sides.sort(key=intervals.members)
        return [Halfspace(self._unmask(side), self._unmask(full & ~side))
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


def is_median_morphism(f: Mapping[Point, Point], a: FiniteMedianAlgebra,
                       b: FiniteMedianAlgebra) -> bool:
    """Whether f maps every interval of `a` into the image interval in `b`.

    This interval criterion is the definition.  It is equivalent to every
    halfspace of `b` pulling back to a halfspace of `a`; the tests check
    the two agree (``morphism_by_halfspaces``).
    """
    for p in a.points:
        if p not in f:
            raise InputError(f"map is not total: {p!r} has no image")
        b.index(f[p])
    for x in a.points:
        for y in a.points:
            target = b.interval(f[x], f[y])
            if any(f[t] not in target for t in a.interval(x, y)):
                return False
    return True
