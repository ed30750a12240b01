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
    is checked later, not presumed).
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
    in that order and the report is deterministic.
    """
    pts = s.points
    checks = []

    witness = None
    for x in pts:
        if s.interval(x, x) != frozenset((x,)):
            witness = (x,)
            break
    checks.append(AxiomCheck("idempotence", witness is None, witness))

    witness = None
    for x, y in itertools.combinations(pts, 2):
        if s.interval(x, y) != s.interval(y, x):
            witness = (x, y)
            break
    checks.append(AxiomCheck("symmetry", witness is None, witness))

    witness = None
    for x in pts:
        for y in pts:
            ivl = s.interval(x, y)
            for z in sorted(ivl, key=s.index):
                if not s.interval(x, z) <= ivl:
                    witness = (x, y, z)
                    break
            if witness:
                break
        if witness:
            break
    checks.append(AxiomCheck("nesting", witness is None, witness))

    witness = None
    detail = None
    for x in pts:
        for y in pts:
            for z in pts:
                common = s.interval(x, y) & s.interval(y, z) & s.interval(z, x)
                if len(common) != 1:
                    witness = (x, y, z)
                    detail = frozenset(common)
                    break
            if witness:
                break
        if witness:
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
        self._interval_masks: list[list[int]] | None = None

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
        key = tuple(sorted((self.index(x), self.index(y), self.index(z))))
        cached = self._median_cache.get(key)
        if cached is not None:
            return cached
        common = self.interval(x, y) & self.interval(y, z) & self.interval(z, x)
        if len(common) != 1:
            raise InternalCheckError(
                f"median of ({x!r},{y!r},{z!r}) not unique on a validated algebra")
        (m,) = common
        self._median_cache[key] = m
        return m

    def median_table(self) -> dict[tuple[Point, Point, Point], Point]:
        """The ternary operation, derived on demand from the intervals."""
        return {
            (x, y, z): self.median(x, y, z)
            for x, y, z in itertools.combinations_with_replacement(self.points, 3)
        }

    def is_convex(self, subset: Iterable[Point]) -> bool:
        return intervals.is_convex(self._masks(), self._mask(subset))

    # -- halfspaces ---------------------------------------------------

    def _masks(self) -> list[list[int]]:
        if self._interval_masks is None:
            self._interval_masks = [[self._mask(self.interval(x, y)) for y in self.points]
                                    for x in self.points]
        return self._interval_masks

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
        sides = [side for side, _ in intervals.halfspaces(self._masks())] + [full]
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
                       b: FiniteMedianAlgebra, *, method: str = "both") -> bool:
    """Whether f maps every interval of `a` into the image interval in `b`.

    ``method`` selects the interval criterion, the halfspace-preimage
    criterion, or ``both``.  The two are provably equivalent; ``both``
    computes each and raises if they ever disagree.
    """
    for p in a.points:
        if p not in f:
            raise InputError(f"map is not total: {p!r} has no image")
        b.index(f[p])

    def by_intervals() -> bool:
        for x in a.points:
            for y in a.points:
                target = b.interval(f[x], f[y])
                if any(f[t] not in target for t in a.interval(x, y)):
                    return False
        return True

    def by_halfspaces() -> bool:
        for h in b.halfspaces():
            pre = frozenset(p for p in a.points if f[p] in h.side)
            co = frozenset(a.points) - pre
            if not (a.is_convex(pre) and a.is_convex(co)):
                return False
        return True

    if method == "interval":
        return by_intervals()
    if method == "halfspace":
        return by_halfspaces()
    if method != "both":
        raise InputError(f"unknown method {method!r}")
    via_i = by_intervals()
    via_h = by_halfspaces()
    if via_i != via_h:
        raise InternalCheckError(
            f"morphism criteria disagree (interval={via_i}, halfspace={via_h})")
    return via_i
