"""Median graphs: recognition, edge halfspaces, wall coordinates, and the
cube complex obtained by filling hypercube skeletons.

A connected simple graph is median when its path metric is a median
metric, equivalently when it is a partial cube whose hypercube
coordinates are closed under the bitwise majority.  Certification reads
the walls off the edge halfspaces W_ij = {z : d(z,i) < d(z,j)} of the BFS
table, checks that Hamming distance on the wall coordinates equals path
distance, and counts the median closure of the coordinates; the O(n^3)
triple scan of ``classify`` runs only on rejection, to name a witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from . import intervals
from .errors import InputError, InternalCheckError
from .metric import FiniteMetric, MedianMetric

Vertex = Hashable


class SimpleGraph:
    """Connected graph, no loops, no multi-edges."""

    def __init__(self, vertices: Sequence[Vertex],
                 edges: Iterable[tuple[Vertex, Vertex]]):
        vs = list(vertices)
        if not vs:
            raise InputError("a graph needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise InputError("duplicate vertex identifiers")
        self.vertices = vs
        self._index = {v: i for i, v in enumerate(vs)}
        n = len(vs)
        adj: list[set[int]] = [set() for _ in range(n)]
        canon = set()
        for u, v in edges:
            if u not in self._index or v not in self._index:
                raise InputError(f"edge ({u!r},{v!r}) references an unknown vertex")
            i, j = self._index[u], self._index[v]
            if i == j:
                raise InputError(f"loop at {u!r}")
            key = (min(i, j), max(i, j))
            if key in canon:
                continue
            canon.add(key)
            adj[i].add(j)
            adj[j].add(i)
        self.edge_indices = sorted(canon)
        self._adj = [sorted(s) for s in adj]
        if self._component(0) != (1 << n) - 1:
            raise InputError("graph is not connected")
        self._dist: list[list[int]] | None = None

    def _component(self, start: int) -> int:
        seen = 1 << start
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if not seen >> w & 1:
                    seen |= 1 << w
                    queue.append(w)
        return seen

    def __len__(self) -> int:
        return len(self.vertices)

    def index(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def neighbors(self, v: Vertex) -> list[Vertex]:
        return [self.vertices[i] for i in self._adj[self.index(v)]]

    @property
    def edges(self) -> list[tuple[Vertex, Vertex]]:
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edge_indices]

    def bfs_distances(self, start: int) -> list[int]:
        n = len(self.vertices)
        dist = [-1] * n
        dist[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in self._adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    queue.append(w)
        return dist

    def all_pairs(self) -> list[list[int]]:
        if self._dist is None:
            self._dist = [self.bfs_distances(i) for i in range(len(self.vertices))]
        return self._dist

    def path_metric(self) -> FiniteMetric:
        """BFS distances of a connected graph are a metric by construction,
        so they are not validated again."""
        return FiniteMetric._trusted(self.vertices, self.all_pairs())


@dataclass(frozen=True)
class GraphWall:
    """A wall of a median graph: the canonical side contains vertex 0."""

    side: frozenset
    complement: frozenset
    crossing_edges: tuple[tuple[Vertex, Vertex], ...]
    side_mask: int = field(repr=False, default=0)


class MedianGraphCert:
    """Certificate produced by :func:`certify_median_graph`."""

    # always False: no 2^n halfspace cross-check runs, because the edge
    # halfspaces are complete by theorem; kept for readers
    halfspaces_exhaustively_checked = False

    def __init__(self, graph: SimpleGraph, metric: MedianMetric,
                 walls: list[GraphWall], coords: list[int],
                 bipartition: tuple[frozenset, frozenset]):
        self.graph = graph
        self.metric = metric
        self.walls = walls
        self._coords = coords      # wall-coordinate bitvector per vertex index
        self._by_coord = {c: i for i, c in enumerate(coords)}
        self.bipartition = bipartition

    @property
    def vertices(self) -> list[Vertex]:
        return self.graph.vertices

    def dist(self, u: Vertex, v: Vertex) -> int:
        return self.graph.all_pairs()[self.graph.index(u)][self.graph.index(v)]

    def median(self, u: Vertex, v: Vertex, w: Vertex) -> Vertex:
        """The vertex whose coordinates are the bitwise majority of theirs."""
        a, b, c = (self._coords[self.graph.index(x)] for x in (u, v, w))
        return self.vertices[self._by_coord[a & b | b & c | a & c]]

    def coordinate_int(self, v: Vertex, base: Vertex | None = None) -> int:
        bits = self._coords[self.graph.index(v)]
        if base is not None:
            bits ^= self._coords[self.graph.index(base)]
        return bits

    def wall_coordinates(self, base: Vertex | None = None) -> dict[Vertex, tuple[int, ...]]:
        """Per-vertex wall-side indicators, zeroed at the base vertex.
        Hamming distance between two coordinate vectors equals path distance.
        """
        w = len(self.walls)
        return {
            v: tuple(self.coordinate_int(v, base) >> k & 1 for k in range(w))
            for v in self.vertices
        }


def _edge_halfspaces(dist: list[list[int]], edges: Iterable[tuple[int, int]]
                     ) -> dict[int, list[tuple[int, int]]]:
    """Edges grouped by their halfspace {z : d(z,i) < d(z,j)}, each taken
    on the side holding vertex 0, in first-seen order.

    Across an edge distances change by at most one, so the halfspace is
    the union over L of level L of i and level L+1 of j.  On a bipartite
    graph it is {z : i in [z,j]}, so the groups are the covering-pair
    halfspaces of ``intervals.halfspaces`` on the path metric.
    """
    levels = []
    for row in dist:
        level = [0] * (max(row) + 1)
        for z, d in enumerate(row):
            level[d] |= 1 << z
        levels.append(level)
    full = (1 << len(dist)) - 1
    by_side: dict[int, list[tuple[int, int]]] = {}
    for i, j in edges:
        side = 0
        for near, far in zip(levels[i], levels[j][1:]):
            side |= near & far
        if not side & 1:
            side = full & ~side
        by_side.setdefault(side, []).append((i, j))
    return by_side


def certify_median_graph(g: SimpleGraph) -> MedianGraphCert:
    """Certify a connected graph as median, or raise NotMedianError with a
    counterexample triple.

    The wall coordinates come from the edge halfspaces (Djokovic 1973):
    bit k of a vertex is set iff it lies off the side of wall k holding
    vertex 0.  The graph is median iff it is bipartite, Hamming distance
    on the coordinates equals path distance for every pair (a partial
    cube), and the coordinates are closed under the bitwise majority,
    which holds iff their 2-clause closure count is the vertex count.  The
    majority of three vertices then lies in all three of their intervals
    and is their only common point, so the certificate's medians are read
    off the coordinates and its metric fills its median table lazily.

    Only when a test fails does ``MedianMetric.certify`` scan the triples,
    to raise NotMedianError with the lexicographically first witness; if
    it finds none, InternalCheckError is raised.
    """
    cert = _wall_certificate(g)
    if cert is not None:
        return cert
    MedianMetric.certify(g.path_metric())   # raises NotMedianError
    raise InternalCheckError(
        "graph failed the median-graph test but classify found no witness")


def _wall_certificate(g: SimpleGraph) -> MedianGraphCert | None:
    """The certificate of a median graph from its wall coordinates, or
    None when a test fails."""
    n = len(g.vertices)
    dist = g.all_pairs()
    colour = dist[0]
    if any((colour[i] + colour[j]) % 2 == 0 for i, j in g.edge_indices):
        return None
    by_side = _edge_halfspaces(dist, g.edge_indices)
    if len(by_side) >= n:      # each wall of a partial cube owns a spanning-tree edge
        return None
    sides = sorted(by_side.items(), key=lambda entry: intervals.members(entry[0]))
    full = (1 << n) - 1
    coords = [0] * n
    for k, (side, _) in enumerate(sides):
        for t in intervals.members(full & ~side):
            coords[t] |= 1 << k
    if any([(c ^ d).bit_count() for d in coords] != row for c, row in zip(coords, dist)):
        return None            # not a partial cube
    if intervals.count_closure(coords, len(sides), n) != n:
        return None            # not closed under majority
    walls = [GraphWall(
        side=frozenset(g.vertices[t] for t in intervals.members(side)),
        complement=frozenset(g.vertices[t] for t in intervals.members(full & ~side)),
        crossing_edges=tuple((g.vertices[i], g.vertices[j]) for i, j in pairs),
        side_mask=side,
    ) for side, pairs in sides]
    even = frozenset(g.vertices[i] for i in range(n) if colour[i] % 2 == 0)
    odd = frozenset(g.vertices[i] for i in range(n) if colour[i] % 2 == 1)
    return MedianGraphCert(g, MedianMetric._proven(g.path_metric()),
                           walls, coords, (even, odd))


@dataclass(frozen=True)
class CubeComplex:
    """Cubes by dimension; each k-cube is the vertex set of an induced
    k-hypercube, and the family is closed under the filling rule: a cube
    is present as soon as all its vertices are."""

    cubes: dict[int, list[frozenset]]

    def counts(self) -> dict[int, int]:
        return {k: len(v) for k, v in sorted(self.cubes.items())}

    @property
    def dimension(self) -> int:
        return max(self.cubes) if self.cubes else 0


def fill_cubes(cert: MedianGraphCert, max_dim: int | None = None) -> CubeComplex:
    """Detect cubes through wall coordinates: a k-cube is a set of 2^k
    vertices realizing all orientations of k pairwise-crossing walls with
    every other wall fixed.  Built level by level, so the (k+1)-level is
    complete whenever its k-skeletons are.
    """
    if max_dim is not None and max_dim < 1:
        raise InputError("max_dim must be >= 1")
    nwalls = len(cert.walls)
    coords = cert._coords
    by_coord = cert._by_coord

    # level k maps (fixed coordinate part, varying wall mask) -> present
    level: dict[tuple[int, int], None] = {}
    for i, j in cert.graph.edge_indices:
        x = coords[i] ^ coords[j]
        level[(coords[i] & ~x, x)] = None
    out: dict[int, list[frozenset]] = {}
    dim = 1
    while level and (max_dim is None or dim <= max_dim):
        sets = []
        for fix, varying in level:
            bits = [b for b in range(nwalls) if varying >> b & 1]
            members = []
            for choice in range(1 << dim):
                c = fix
                for pos, b in enumerate(bits):
                    if choice >> pos & 1:
                        c |= 1 << b
                members.append(cert.vertices[by_coord[c]])
            sets.append(frozenset(members))
        out[dim] = sorted(sets, key=lambda s: sorted(map(str, s)))
        nxt: dict[tuple[int, int], None] = {}
        for fix, varying in level:
            top = varying.bit_length()
            for w in range(top, nwalls):
                bw = 1 << w
                if fix & bw:
                    continue
                if (fix | bw, varying) in level:
                    nxt[(fix, varying | bw)] = None
        level = nxt
        dim += 1
    return CubeComplex(out)

