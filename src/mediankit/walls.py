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
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import intervals
from .errors import InputError, InternalCheckError, ResourceLimitError
from .graphs import MedianGraphCert, SimpleGraph

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
        """Number of separating walls: the bits where the orientations
        sigma_x and sigma_y differ, half the symmetric difference of the
        halfspace collections (``wall_metric_recount`` in the tests)."""
        return (self.sigma_bits(x) ^ self.sigma_bits(y)).bit_count()


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


def principal_orientation(w: WallSpace, x: Point) -> Orientation:
    """For each wall, choose the side containing x; any two such sides
    share x, so the orientation is consistent."""
    return Orientation(w, w.sigma_bits(x))


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


def _orientation_array(values, width: int) -> np.ndarray:
    """Orientation bitvectors of ``width`` bits as one array: uint64 up
    to 64 walls, Python ints (an object array) beyond."""
    return np.array(values, dtype=np.uint64 if width <= 64 else object)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending."""
    out = np.sort(values)
    keep = np.ones(len(out), dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def _lookup(ordered: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``values`` sits in the ascending array ``ordered``,
    and whether it is there."""
    at = np.searchsorted(ordered, values)
    return at, ordered[np.minimum(at, len(ordered) - 1)] == values


def _side_tables(sigma: np.ndarray, walls: np.ndarray, full: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Tables (force, value) of shape (2, W) for side s of wall k: the
    walls l != k one of whose sides misses that side, and the side each of
    them must then be on (bit l set iff its side 0 misses, so side 1 must
    be chosen).  A point's sigma bits say which side of every wall it is
    on, so side 0 of wall l misses side s of wall k iff every point with
    bit k == s has bit l set (the AND of their sigma bits), and side 1
    misses it iff none has (the complement of their OR).  No wall has
    both sides missing a nonempty side, so an orientation b may take side
    s of wall k iff ``b & force[s, k] == value[s, k]``: ``~b & Z`` and
    ``b & O`` are empty for Z = value and O = force & ~value."""
    on = (sigma[:, None] & walls) != 0
    side = np.stack((~on, on))            # [s, point, k]: the point is on side s of wall k
    col = sigma[:, None]
    others = full & ~walls
    value = np.bitwise_and.reduce(np.where(side, col, full), axis=1) & others
    force = value | others & ~np.bitwise_or.reduce(np.where(side, col, 0), axis=1)
    return force, value


def _meets(bits: np.ndarray, side: np.ndarray, force: np.ndarray,
           value: np.ndarray) -> np.ndarray:
    """Entry (i, k): whether side ``side[i, k]`` of wall k meets every side
    that orientation ``bits[i]`` chooses on another wall."""
    return (bits[:, None] & np.where(side, force[1], force[0])) \
        == np.where(side, value[1], value[0])


def cubulate(w: WallSpace, *, max_walls: int = DEFAULT_WALL_CAP,
             max_vertices: int = DEFAULT_VERTEX_CAP) -> CubulationResult:
    """Build the canonical median graph of a wall space.

    Vertices are the consistent orientations reachable from the principal
    orientations by consistency-preserving single-wall flips; edges join
    orientations differing on one wall.  Orientations are held as one
    array (:func:`_orientation_array`).  A flip of orientation b to side s
    of wall k is legal iff that side meets every other chosen side, one
    mask test (:func:`_side_tables`).  So the flip search runs one BFS
    level at a time over every wall at once, and the edges are found by
    one sorted search for every vertex with one more bit set.

    The construction is verified: every vertex is consistent (the same
    mask test, on every wall of every vertex) and the embedded image has
    the whole vertex set as median closure (the solution set of the
    image's 2-clauses, by the prefix test of
    :func:`intervals.is_median_closure`).  The point embedding is
    isometric for the wall metric by definition: a point's vertex is its
    sigma bits, which differ exactly on the separating walls.  The graph
    is connected (one BFS), its edges are its Hamming-1 pairs, and its
    vertex set is majority-closed, so by the
    lemma at :class:`MedianGraphCert` path distance equals Hamming
    distance and the orientation bits are its walls: the certificate is
    built from them, and wall k of the input is certificate wall
    ``wall_correspondence[k]``.  Every check runs at every size.
    """
    W = w.wall_count
    if max_walls < 0 or max_vertices < 0:
        raise InputError(f"max_walls and max_vertices must be >= 0, "
                         f"got {max_walls} and {max_vertices}")
    if W > max_walls:
        raise ResourceLimitError(
            f"cubulation capped at {max_walls} nontrivial walls, got {W}",
            cap=max_walls)
    walls = _orientation_array([1 << k for k in range(W)], W)
    sigma = _orientation_array(w._sigma, W)
    force, value = _side_tables(sigma, walls, (1 << W) - 1)

    image = vertices = frontier = _distinct(sigma)
    while True:
        # a flip is legal iff its new side meets every other chosen side
        legal = _meets(frontier, (frontier[:, None] & walls) == 0, force, value)
        reached = (frontier[:, None] ^ walls)[legal]
        fresh = ~_lookup(vertices, reached)[1]
        if not fresh.any():
            break
        frontier = _distinct(reached[fresh])
        vertices = np.sort(np.concatenate((vertices, frontier)))
        if len(vertices) > max_vertices:
            raise ResourceLimitError(
                f"cubulation exceeded {max_vertices} vertices", cap=max_vertices)

    nv = len(vertices)
    ordered = vertices.tolist()
    # vertex names: the binary numerals, read off one bit matrix
    width = max(W, 1)
    numerals = intervals.bit_rows(ordered, width)[:, ::-1] + ord("0")
    names = np.ascontiguousarray(numerals).view(f"S{width}").ravel().astype(str).tolist()
    # edges (i, j), i < j: vertex j is vertex i with one more bit set
    up = vertices[:, None] | walls
    at, hit = _lookup(vertices, up)
    src, k = np.nonzero(hit & (up != vertices[:, None]))
    try:
        graph = SimpleGraph._trusted(names, src, at[src, k])   # checks connectivity
    except InputError as exc:
        raise InternalCheckError(f"cubulation graph invalid: {exc}") from exc

    checks: dict[str, bool | str] = {}
    if len(image) != len(w.points):
        raise InternalCheckError("point embedding is not injective")
    checks["embedding_injective"] = True

    bad = ~_meets(vertices, (vertices[:, None] & walls) != 0, force, value).all(axis=1)
    if bad.any():
        raise InternalCheckError(
            f"inconsistent vertex {ordered[int(np.argmax(bad))]:b} generated")
    checks["vertices_consistent"] = True

    # principal bits are sigma bits: their Hamming distance counts the
    # separating walls by definition
    checks["embedding_isometric"] = True

    if not intervals.is_median_closure(image.tolist(), ordered, W):
        raise InternalCheckError(
            "vertex set is not the median closure of the embedded image")
    checks["median_closure"] = "checked"
    # the lemma: connected, edges = Hamming-1 pairs, majority-closed
    checks["distance_vs_hamming"] = "exhaustive"

    cert = MedianGraphCert(graph, ordered, W)
    corr = dict(sorted((k, widx) for widx, k in enumerate(cert.wall_bits)))
    checks["wall_bijection"] = "certified"

    embedding = dict(zip(w.points, map(names.__getitem__,
                                       np.searchsorted(vertices, sigma).tolist())))
    vertex_bits = dict(zip(names, ordered))
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
