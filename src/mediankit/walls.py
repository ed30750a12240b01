"""Spaces with walls, the wall metric, and the cubulation into a median
graph.

A wall is a two-part partition of the point set; the trivial wall
{empty, X} is always present.  The cubulation's vertices are consistent
orientations (a chosen side per wall, any two chosen sides meeting),
reached from the principal orientations sigma_x by single-wall flips;
edges join orientations differing on exactly one wall.
"""

from __future__ import annotations

import itertools
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import InputError, InternalCheckError, ResourceLimitError
from .graphs import MedianGraphCert, SimpleGraph
from .intervals import count_closure

Point = Hashable

DEFAULT_WALL_CAP = 24
DEFAULT_VERTEX_CAP = 65536


class WallSpace:
    """Finite point set plus walls; any two points separated by >= 1 wall.

    Nontrivial walls are stored in a canonical order (lexicographic on the
    side containing the first point); the trivial wall is always present
    and never stored explicitly.
    """

    def __init__(self, points: Sequence[Point],
                 walls: Iterable[tuple[Iterable[Point], Iterable[Point]]],
                 *, warn_missing_trivial: bool = False):
        pts = list(points)
        if not pts:
            raise InputError("a wall space needs at least one point")
        if len(set(pts)) != len(pts):
            raise InputError("duplicate point identifiers")
        self.points = pts
        self._index = {p: i for i, p in enumerate(pts)}
        n = len(pts)
        full = (1 << n) - 1
        seen: set[int] = set()
        trivial_given = False
        order: list[int] = []
        for a, b in walls:
            ma = self._mask(a)
            mb = self._mask(b)
            if ma & mb or ma | mb != full:
                raise InputError(
                    f"wall ({sorted(map(repr, a))},{sorted(map(repr, b))}) "
                    "is not a two-part partition of the points")
            if ma == 0 or mb == 0:
                trivial_given = True
                continue
            canon = ma if ma & 1 else mb
            if canon not in seen:
                seen.add(canon)
                order.append(canon)
        if not trivial_given and warn_missing_trivial:
            warnings.warn("trivial wall absent from input; added automatically",
                          stacklevel=2)
        order.sort(key=lambda m: tuple(t for t in range(n) if m >> t & 1))
        self._sides = [(m, full & ~m) for m in order]
        self._full = full
        sigma = [0] * n
        for k, m in enumerate(order):
            for i, c in enumerate(reversed(format(m, f"0{n}b"))):
                if c == "0":
                    sigma[i] |= 1 << k
        self._sigma = sigma
        # two points are separated iff their sigma bits differ
        if len(set(sigma)) != n:
            groups: dict[int, list[int]] = {}
            for i, b in enumerate(sigma):
                groups.setdefault(b, []).append(i)
            # the first unseparated pair in combinations order
            i, j = min(g[:2] for g in groups.values() if len(g) > 1)
            raise InputError(
                f"points {pts[i]!r} and {pts[j]!r} are separated by no wall")

    def _mask(self, members: Iterable[Point]) -> int:
        m = 0
        for p in members:
            if p not in self._index:
                raise InputError(f"wall references unknown point {p!r}")
            m |= 1 << self._index[p]
        return m

    def __len__(self) -> int:
        return len(self.points)

    @property
    def wall_count(self) -> int:
        """Number of nontrivial walls."""
        return len(self._sides)

    def index(self, p: Point) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise InputError(f"unknown point {p!r}") from None

    def side_masks(self, k: int) -> tuple[int, int]:
        """(canonical side, other side) of nontrivial wall k, as bitmasks."""
        return self._sides[k]

    def wall_sides(self, k: int) -> tuple[frozenset, frozenset]:
        a, b = self._sides[k]
        return (self._unmask(a), self._unmask(b))

    def halfspace_masks(self) -> set[int]:
        """All sides of all walls, including the trivial pair."""
        out = {0, self._full}
        for a, b in self._sides:
            out.add(a)
            out.add(b)
        return out

    def _unmask(self, mask: int) -> frozenset:
        return frozenset(self.points[t] for t in range(len(self.points))
                         if mask >> t & 1)

    def sigma_bits(self, x: Point) -> int:
        """Orientation bitvector of sigma_x: bit k set iff x lies on the
        non-canonical side of wall k."""
        return self._sigma[self.index(x)]

    def sigma_halfspaces(self, x: Point) -> frozenset:
        """The halfspaces containing x, as (wall, side) tags; the trivial
        wall contributes its full side."""
        i = self.index(x)
        tags = [("trivial", 1)]
        for k, (a, _) in enumerate(self._sides):
            tags.append((k, 0 if a >> i & 1 else 1))
        return frozenset(tags)

    def separating_walls(self, x: Point, y: Point) -> list[int]:
        i, j = self.index(x), self.index(y)
        return [k for k, (a, _) in enumerate(self._sides)
                if (a >> i & 1) != (a >> j & 1)]

    def wall_metric(self, x: Point, y: Point) -> int:
        """Number of separating walls; asserted equal to half the symmetric
        difference of the halfspace collections."""
        count = len(self.separating_walls(x, y))
        sym = len(self.sigma_halfspaces(x) ^ self.sigma_halfspaces(y))
        if sym != 2 * count:
            raise InternalCheckError(
                f"wall metric mismatch at ({x!r},{y!r}): {count} vs {sym}/2")
        return count


@dataclass(frozen=True)
class Orientation:
    """A choice of one side per wall (trivial wall implicitly chooses X)."""

    space: WallSpace
    bits: int

    def side_mask(self, k: int) -> int:
        a, b = self.space.side_masks(k)
        return b if self.bits >> k & 1 else a

    def chosen_sides(self) -> list[frozenset]:
        return [self.space._unmask(self.side_mask(k))
                for k in range(self.space.wall_count)]

    def is_consistent(self) -> bool:
        masks = [self.side_mask(k) for k in range(self.space.wall_count)]
        return all(a & b for a, b in itertools.combinations(masks, 2)) \
            if len(masks) > 1 else True

    def check_upward_closure(self) -> bool:
        """If a chosen side is contained in a side of another wall, that
        side must be the chosen one (implied by pairwise consistency in
        the finite model; checked independently)."""
        w = self.space.wall_count
        chosen = [self.side_mask(k) for k in range(w)]
        for k in range(w):
            s = chosen[k]
            for l in range(w):
                if l == k:
                    continue
                for t in self.space.side_masks(l):
                    if not s & ~t and chosen[l] != t:
                        return False
        return True


def principal_orientation(w: WallSpace, x: Point) -> Orientation:
    """For each wall, choose the side containing x."""
    o = Orientation(w, w.sigma_bits(x))
    if not o.is_consistent():
        raise InternalCheckError(f"principal orientation of {x!r} inconsistent")
    return o


def is_wall_morphism(f: Mapping[Point, Point], w1: WallSpace, w2: WallSpace) -> bool:
    """True iff the preimage of every halfspace of w2 is a halfspace of w1.

    The trivial wall's sides make constant maps morphisms.
    """
    images = {}
    for p in w1.points:
        if p not in f:
            raise InputError(f"map is not total: {p!r} has no image")
        images[p] = w2.index(f[p])
    legal = w1.halfspace_masks()
    for k in range(w2.wall_count):
        for side in w2.side_masks(k):
            pre = 0
            for p in w1.points:
                if side >> images[p] & 1:
                    pre |= 1 << w1.index(p)
            if pre not in legal:
                return False
    return True


def consistent_orientations_bruteforce(w: WallSpace, max_walls: int = 20) -> set[int]:
    """Oracle: every orientation bitvector whose chosen sides pairwise meet."""
    W = w.wall_count
    if W > max_walls:
        raise ResourceLimitError(
            f"brute-force orientation scan capped at {max_walls} walls", cap=max_walls)
    sides = [w.side_masks(k) for k in range(W)]
    out = set()
    for bits in range(1 << W):
        chosen = [sides[k][bits >> k & 1] for k in range(W)]
        if all(a & b for a, b in itertools.combinations(chosen, 2)) or W <= 1:
            out.add(bits)
    return out


@dataclass
class CubulationResult:
    graph: SimpleGraph
    embedding: dict[Point, Hashable]          # point -> vertex name
    vertex_bits: dict[Hashable, int]          # vertex name -> orientation bits
    wall_correspondence: dict[int, int]       # input wall k -> graph wall index
    cert: MedianGraphCert
    checks: dict[str, bool | str] = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return len(self.graph.vertices)


def _vertex_name(bits: int, width: int) -> str:
    return format(bits, f"0{max(width, 1)}b")


def _blocked_literals(sides: Sequence[tuple[int, int]]) -> list[list[int]]:
    """An orientation is also a literal mask: bit 2k+s set iff wall k is on
    side s.  blocked[k][s] holds the literals of other walls whose side
    misses side s of wall k."""
    W = len(sides)
    return [[sum(1 << (2 * l + t) for l in range(W) if l != k for t in (0, 1)
                 if not sides[k][s] & sides[l][t]) for s in (0, 1)]
            for k in range(W)]


def _literals(bits: int, width: int) -> int:
    # read as base 4, a binary numeral puts bit k at bit 2k
    return (int(format(bits ^ (1 << width) - 1, "b"), 4)
            | int(format(bits, "b"), 4) << 1)


def _consistent(bits: int, blocked: Sequence[Sequence[int]]) -> bool:
    """Whether the chosen sides of orientation ``bits`` pairwise meet: no
    chosen side blocks another, in O(walls) mask tests."""
    lits = _literals(bits, len(blocked))
    return not any(lits & row[bits >> k & 1] for k, row in enumerate(blocked))


def cubulate(w: WallSpace, *, max_walls: int = DEFAULT_WALL_CAP,
             max_vertices: int = DEFAULT_VERTEX_CAP) -> CubulationResult:
    """Build the canonical median graph of a wall space.

    Vertices are the consistent orientations reachable from the principal
    orientations by consistency-preserving single-wall flips; edges join
    orientations differing on one wall.  The construction is verified:
    every vertex is consistent (one mask test per wall) and the embedded
    image has the whole vertex set as median closure (by counting the
    solutions of the image's 2-clause theory).  The point embedding is
    isometric for the wall metric by definition: a point's vertex is its
    sigma bits, which differ exactly on the separating walls.  The graph
    is connected, its edges are its Hamming-1 pairs, and its vertex set
    is majority-closed, so by the lemma at :class:`MedianGraphCert` path
    distance equals Hamming distance and the orientation bits are its
    walls: the certificate is built from them, and wall k of the input is
    certificate wall ``wall_correspondence[k]``.  Every check runs at
    every size.
    """
    W = w.wall_count
    if max_walls < 0 or max_vertices < 0:
        raise InputError(f"max_walls and max_vertices must be >= 0, "
                         f"got {max_walls} and {max_vertices}")
    if W > max_walls:
        raise ResourceLimitError(
            f"cubulation capped at {max_walls} nontrivial walls, got {W}",
            cap=max_walls)
    # a flip to side s of wall k is legal iff no literal meets blocked[k][s]
    blocked = _blocked_literals([w.side_masks(k) for k in range(W)])

    principals = {p: w.sigma_bits(p) for p in w.points}
    frontier = deque((b, _literals(b, W)) for b in sorted(set(principals.values())))
    vertex_set: set[int] = {b for b, _ in frontier}
    while frontier:
        bits, lits = frontier.popleft()
        for k in range(W):
            flipped = bits ^ (1 << k)
            if flipped in vertex_set:
                continue
            if not lits & blocked[k][flipped >> k & 1]:
                vertex_set.add(flipped)
                frontier.append((flipped, lits ^ 3 << 2 * k))
                if len(vertex_set) > max_vertices:
                    raise ResourceLimitError(
                        f"cubulation exceeded {max_vertices} vertices",
                        cap=max_vertices)

    ordered = sorted(vertex_set)
    names = [_vertex_name(b, W) for b in ordered]
    edges = []
    for b in ordered:
        for k in range(W):
            nb = b ^ (1 << k)
            if nb > b and nb in vertex_set:
                edges.append((_vertex_name(b, W), _vertex_name(nb, W)))
    try:
        graph = SimpleGraph(names, edges)      # checks connectivity
    except InputError as exc:
        raise InternalCheckError(f"cubulation graph invalid: {exc}") from exc

    checks: dict[str, bool | str] = {}
    nv = len(ordered)

    if len(set(principals.values())) != len(w.points):
        raise InternalCheckError("point embedding is not injective")
    checks["embedding_injective"] = True

    for bits in ordered:
        if not _consistent(bits, blocked):
            raise InternalCheckError(f"inconsistent vertex {bits:b} generated")
    checks["vertices_consistent"] = True

    # principal bits are sigma bits: their Hamming distance counts the
    # separating walls by definition
    checks["embedding_isometric"] = True

    # vertices_consistent puts every vertex among the solutions, so equal
    # counts make the vertex set the median closure of the image
    if count_closure(sorted(set(principals.values())), W, nv) != nv:
        raise InternalCheckError(
            "vertex set is not the median closure of the embedded image")
    checks["median_closure"] = "checked"
    # the lemma: connected, edges = Hamming-1 pairs, majority-closed
    checks["distance_vs_hamming"] = "exhaustive"

    cert = MedianGraphCert(graph, ordered, W)
    corr = dict(sorted((k, widx) for widx, k in enumerate(cert.wall_bits)))
    checks["wall_bijection"] = "certified"

    embedding = {p: _vertex_name(bits, W) for p, bits in principals.items()}
    vertex_bits = {name: b for name, b in zip(names, ordered)}
    return CubulationResult(graph, embedding, vertex_bits, corr, cert, checks)


def graph_wall_space(cert: MedianGraphCert) -> WallSpace:
    """A median graph as a space with walls (its edge halfspaces)."""
    return WallSpace(cert.vertices,
                     [(wall.side, wall.complement) for wall in cert.walls])


def extend_morphism(f: Mapping[Point, Point], w1: WallSpace, w2: WallSpace,
                    cub1: CubulationResult | None = None,
                    cub2: CubulationResult | None = None) -> dict:
    """Extend a wall morphism to the unique median morphism between the
    cubulations, as a vertex map (need not be a graph morphism).
    """
    if not is_wall_morphism(f, w1, w2):
        raise InputError("map is not a wall morphism")
    cub1 = cub1 or cubulate(w1)
    cub2 = cub2 or cubulate(w2)
    full1 = (1 << len(w1.points)) - 1

    # per wall of w2: how its orientation is read off an orientation of w1
    rules: list[tuple[str, int, bool]] = []
    side_index: dict[int, tuple[int, bool]] = {}
    for k in range(w1.wall_count):
        a, b = w1.side_masks(k)
        side_index[a] = (k, False)
        side_index[b] = (k, True)
    for k2 in range(w2.wall_count):
        a2, _ = w2.side_masks(k2)
        pre = 0
        for p in w1.points:
            if a2 >> w2.index(f[p]) & 1:
                pre |= 1 << w1.index(p)
        if pre == full1:
            rules.append(("const", 0, False))
        elif pre == 0:
            rules.append(("const", 1, False))
        else:
            k1, flipped = side_index[pre]
            rules.append(("wall", k1, flipped))

    out = {}
    w2_vertices = set(cub2.graph.vertices)
    for name, bits in cub1.vertex_bits.items():
        img = 0
        for k2, (kind, val, flipped) in enumerate(rules):
            if kind == "const":
                bit = val
            else:
                bit = (bits >> val & 1) ^ flipped
            img |= bit << k2
        img_name = _vertex_name(img, w2.wall_count)
        if img_name not in w2_vertices:
            raise InternalCheckError(
                "extension left the target cubulation's vertex set")
        out[name] = img_name
    for p in w1.points:
        if out[cub1.embedding[p]] != cub2.embedding[f[p]]:
            raise InternalCheckError("extension disagrees with the point map")
    return out
