"""Median graphs: recognition, wall coordinates, and the cube complex
obtained by filling hypercube skeletons.

A graph (:class:`SimpleGraph`) holds its vertex ids as one record
(:class:`intervals.PointIndex`), shared by its path metric and its wall
space, and its edges as one record, two sorted index arrays; it builds
its adjacency lists, edge tuples and BFS from vertex 0 as views on first
use, and the id record its index on the first lookup.  A graph read from
JSON keeps the views and the index its constructor already built.  A
connected graph is median iff its vertices carry distinct bitvectors,
closed under the bitwise majority, whose Hamming-1 pairs are exactly its
edges (the lemma at :class:`MedianGraphCert`).  Certification reads
candidate coordinates off the constructor's BFS from vertex 0
(:func:`_bfs_coordinates`) and tests those hypotheses; no distance table
is built.  The cubulation of a wall space passes its orientation bits,
which meet them by construction, and its graph keeps the cubulation's
edge arrays and builds no view.  The certificate holds the coordinates
as the one wall record (:class:`intervals.WallCodes`), vertex i's code
in row i, and its medians, cubes, L1 embedding, wall space, DOT colours
and distances (Hamming distances of the codes) are read off it.  Only on
rejection is the path metric built, and the triple scan of ``classify``
(a numpy kernel on the packed betweenness table) names a witness.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

from . import intervals
from .errors import InputError, InternalCheckError
from .metric import FiniteMetric, MedianMetric, _exact_dtype

Vertex = Hashable


def _checked_ends(index: dict, edges: list) -> list[int]:
    """The endpoint indices of ``edges``, flattened, scanned one edge at a
    time in input order: the first edge that is not a pair, references an
    unknown (or unhashable) vertex, or is a loop raises InputError."""
    ends = []
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise InputError(f"edge {e!r} must have exactly two endpoints") from None
        try:
            i, j = index.get(u), index.get(v)
        except TypeError:
            i = j = None
        if i is None or j is None:
            raise InputError(f"edge ({u!r},{v!r}) references an unknown vertex")
        if i == j:
            raise InputError(f"loop at {u!r}")
        ends += (i, j)
    return ends


class SimpleGraph:
    """Connected graph, no loops, no multi-edges.

    Edges are pairs of vertex ids; an edge listed twice, in either
    orientation, is one edge.  The graph holds one edge record: the index
    arrays ``edge_src`` and ``edge_dst``, edge e joining vertices
    edge_src[e] < edge_dst[e], the pairs sorted.  The other forms of the
    edges are views of it, built on first use: ``edge_indices`` (the
    pairs as tuples), ``_adj`` (each vertex's neighbours, ascending),
    ``_bfs`` (the BFS from vertex 0) and ``_dist_array``
    (:meth:`all_pairs`).  ``vertices`` and ``index`` read the id record
    ``_ids`` (:class:`intervals.PointIndex`).

    The constructor checks the ids, maps the endpoints to indices in one
    pass and sorts the distinct index pairs once, so each vertex's
    neighbours are appended in ascending order; it keeps the pairs, the
    adjacency lists and the BFS that checks connectivity as those views,
    and its arrays are derived from the pairs when they are read.  Only when
    that pass fails are the edges rescanned in input order
    (:func:`_checked_ends`), and the first bad one is reported.
    """

    vertices = property(operator.attrgetter("_ids.points"))
    index = property(lambda g: functools.partial(g._ids.index, noun="vertex"))

    def __init__(self, vertices: Sequence[Vertex],
                 edges: Iterable[Sequence[Vertex]]):
        ids = intervals.PointIndex.checked(vertices, "a graph", "vertex")
        vs, index = ids.points, ids.positions
        edges = list(edges)
        try:
            if set(map(len, edges)) - {2}:
                raise ValueError
            ends = list(map(index.__getitem__, itertools.chain.from_iterable(edges)))
        except (KeyError, TypeError, ValueError):
            ends = _checked_ends(index, edges)
        src, dst = ends[::2], ends[1::2]
        if any(map(operator.eq, src, dst)):
            _checked_ends(index, edges)       # raises at the first loop
        up = list(map(operator.lt, src, dst))
        down = list(map(operator.not_, up))
        pairs = set(zip(itertools.compress(src, up), itertools.compress(dst, up)))
        pairs.update(zip(itertools.compress(dst, down), itertools.compress(src, down)))
        pairs = sorted(pairs)
        adj: list[list[int]] = [[] for _ in vs]
        if pairs:
            # in sorted pairs a vertex meets its lower neighbours before its
            # upper ones, each ascending: appending gives sorted lists
            lo, hi = zip(*pairs)
            deque(map(list.append, map(adj.__getitem__, hi), lo), 0)
            deque(map(list.append, map(adj.__getitem__, lo), hi), 0)
        self._ids = ids
        self.edge_indices = pairs
        self._adj = adj
        if len(self._bfs[0]) < len(vs):
            raise InputError("graph is not connected")

    @classmethod
    def _trusted(cls, vertices: list[Vertex], src: np.ndarray,
                 dst: np.ndarray) -> "SimpleGraph":
        """The graph on distinct ``vertices`` whose edge record is
        ``src``, ``dst``: distinct index pairs with src < dst, sorted, of a
        connected graph, as a construction guarantees: the cubulation's
        Hamming-1 pairs, connected by the argument at
        :func:`walls.cubulate`.  Nothing is checked, and no view is built,
        here: the id record indexes the vertices on its first lookup."""
        out = cls.__new__(cls)
        out._ids = intervals.PointIndex(vertices)
        out.edge_src = src
        out.edge_dst = dst
        return out

    @functools.cached_property
    def edge_src(self) -> np.ndarray:
        """The lower end of every edge, read off ``edge_indices``."""
        return np.fromiter(map(operator.itemgetter(0), self.edge_indices), np.intp,
                           len(self.edge_indices))

    @functools.cached_property
    def edge_dst(self) -> np.ndarray:
        """The upper end of every edge, read off ``edge_indices``."""
        return np.fromiter(map(operator.itemgetter(1), self.edge_indices), np.intp,
                           len(self.edge_indices))

    @functools.cached_property
    def edge_indices(self) -> list[tuple[int, int]]:
        """The edges as sorted index pairs (i, j), i < j."""
        return list(zip(self.edge_src.tolist(), self.edge_dst.tolist()))

    @functools.cached_property
    def _adj(self) -> list[list[int]]:
        """Each vertex's neighbours, ascending."""
        src, dst = self.edge_src, self.edge_dst
        ends = np.concatenate((dst, src))
        order = np.argsort(ends, kind="stable")
        nbrs = np.concatenate((src, dst))[order].tolist()
        stops = np.cumsum(np.bincount(ends, minlength=len(self.vertices))).tolist()
        # a stable sort of the sorted pairs lists each vertex's lower
        # neighbours, then its upper ones, each ascending: sorted lists
        return [nbrs[a:b] for a, b in zip([0] + stops, stops)]

    @functools.cached_property
    def _bfs(self) -> tuple[list[int], list[int]]:
        """The BFS from vertex 0: the vertices it reaches, in discovery
        order, and every vertex's distance from vertex 0 (-1 if
        unreached)."""
        return self._search(0)

    def __len__(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: Vertex) -> list[Vertex]:
        return [self.vertices[i] for i in self._adj[self.index(v)]]

    @property
    def edges(self) -> list[tuple[Vertex, Vertex]]:
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edge_indices]

    def _search(self, start: int) -> tuple[list[int], list[int]]:
        """The vertices reached from ``start`` in discovery order, and the
        distances from it, one BFS level at a time.  The levels are
        scanned in the order they were found, as a FIFO queue would visit
        them."""
        adj = self._adj
        dist = [-1] * len(adj)
        dist[start] = 0
        order = [start]
        frontier = [start]
        d = 0
        while frontier:
            d += 1
            reached = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = d
                        reached.append(w)
            order += reached
            frontier = reached
        return order, dist

    def bfs_distances(self, start: int) -> list[int]:
        """Distances from ``start``, one BFS level at a time."""
        return self._search(start)[1]

    @functools.cached_property
    def _dist_array(self) -> np.ndarray:
        """Path distances of every pair, from every vertex's ball grown one
        level at a time: ball_{d+1}(i) is the union of ball_d(j) over i and
        its neighbours j, as packed uint64 rows (``np.bitwise_or.reduceat``
        over the closed neighbourhoods), and d(i, j) is the number of
        levels d at which j lies outside ball_d(i).  That costs
        O(diameter * m * n/64) word operations in O(diameter) numpy steps.
        The counts are kept, read-only, in the narrowest dtype that holds
        distances below n (:func:`metric._exact_dtype`)."""
        n = len(self._adj)
        sizes = np.array([len(nbrs) + 1 for nbrs in self._adj])
        starts = np.cumsum(sizes) - sizes
        closed = np.fromiter(itertools.chain.from_iterable(
            [i, *nbrs] for i, nbrs in enumerate(self._adj)), dtype=np.intp)
        ball = intervals.pack_rows([1 << i for i in range(n)], n)   # ball_0(i) = {i}
        inside = np.zeros((n, n), dtype=_exact_dtype(0, n))
        levels = 0
        while True:
            inside += intervals.unpack_bits(ball, n)
            levels += 1
            grown = np.bitwise_or.reduceat(ball[closed], starts, axis=0)
            if not (grown != ball).any():
                break
            ball = grown
        dist = levels - inside
        dist.flags.writeable = False
        return dist

    def all_pairs(self) -> np.ndarray:
        """The read-only path-distance array, shared by the path metrics."""
        return self._dist_array

    def path_metric(self) -> FiniteMetric:
        """Path distances are a metric by construction: the metric takes the
        array of :meth:`all_pairs` and the graph's id record unchecked,
        with no copy."""
        return FiniteMetric._trusted(self._ids, self.all_pairs())


@dataclass(frozen=True)
class GraphWall:
    """A wall of a median graph: the canonical side contains vertex 0."""

    side: frozenset
    complement: frozenset
    crossing_edges: tuple[tuple[Vertex, Vertex], ...]
    side_mask: int = field(repr=False, default=0)


class MedianGraphCert:
    """A median graph with its walls and wall coordinates.

    The lemma behind every certificate: let the vertices of a connected
    graph carry distinct bitvectors, let the edges be exactly the pairs at
    Hamming distance 1, and let the set of bitvectors be closed under the
    bitwise majority.  Then path distance equals Hamming distance, so the
    graph is a median graph whose medians are the majorities and whose
    walls are the non-constant bits (Bandelt-Chepoi, "Metric graph theory
    and geometry: a survey", 2008; Chatterji-Niblo 2005).  Proof: any path
    from a to b maps under x -> maj(a,b,x) to a walk through vertices in
    the cube interval [a,b], each step flipping at most one bit, so each
    move is an edge; its first move reaches a neighbour of a one bit
    nearer b, so induction on Hamming distance bounds path distance by
    Hamming distance, and one bit per edge bounds it below.

    The constructor takes the hypotheses as proven by the caller and reads
    the certificate off ``bits``, the coordinates as a 0/1 matrix (row i
    for vertex index i, every column non-constant, :func:`intervals.bit_rows`),
    into the wall record ``codes`` (:class:`intervals.WallCodes`):
    coordinates re-based to vertex 0, so every wall's side holds vertex 0,
    and walls sorted on their sides' vertex indices.  Wall k is input
    column ``wall_bits[k]``, and the record is also the measured walls of
    the path metric ``metric``, each of measure 1.  The :class:`GraphWall`
    objects, with each wall's crossing edges (the edges flipping it, in
    ``edge_indices`` order), are built on first use of ``walls``.
    """

    # always False: the walls are the coordinate bits by the lemma, and no
    # 2^n halfspace scan runs; kept, like ``walls``, for the benchmark's probes
    halfspaces_exhaustively_checked = False

    def __init__(self, graph: SimpleGraph, bits: np.ndarray):
        self.graph = graph
        self.codes = intervals.WallCodes(bits)
        self.wall_bits = tuple(self.codes.order.tolist())

    @functools.cached_property
    def walls(self) -> list[GraphWall]:
        """The walls in order, each with its sides and crossing edges."""
        vs = self.graph.vertices
        ints = self.codes.ints
        full = (1 << len(vs)) - 1
        crossing: list[list[tuple[Vertex, Vertex]]] = [[] for _ in self.wall_bits]
        for i, j in self.graph.edge_indices:
            crossing[(ints[i] ^ ints[j]).bit_length() - 1].append((vs[i], vs[j]))
        return [GraphWall(side=intervals.unmask(vs, side),
                          complement=intervals.unmask(vs, full ^ side),
                          crossing_edges=tuple(edges), side_mask=side)
                for side, edges in zip(self.codes.sides, crossing)]

    @property
    def vertices(self) -> list[Vertex]:
        return self.graph.vertices

    @functools.cached_property
    def metric(self) -> MedianMetric:
        """The path metric, median by the lemma, whose measured walls are
        this record with every delta 1; no table is built."""
        return MedianMetric._proven(self.graph.path_metric(),
                                    (self.codes, [1] * len(self.wall_bits)))

    def dist(self, u: Vertex, v: Vertex) -> int:
        """The Hamming distance of the wall codes; no table is built."""
        ints = self.codes.ints
        return (ints[self.graph.index(u)] ^ ints[self.graph.index(v)]).bit_count()

    def median(self, u: Vertex, v: Vertex, w: Vertex) -> Vertex:
        """The vertex whose coordinates are the bitwise majority of theirs."""
        index = self.graph.index
        return self.vertices[self.codes.median(index(u), index(v), index(w))]

    def wall_coordinates(self, base: Vertex | None = None) -> dict[Vertex, tuple[int, ...]]:
        """Per-vertex wall-side indicators, zeroed at the base vertex.
        Hamming distance between two coordinate vectors equals path distance.
        """
        rows = self.codes.bits
        if base is not None:
            rows = rows ^ rows[self.graph.index(base)]
        return dict(zip(self.vertices, map(tuple, rows.tolist())))


def _bfs_coordinates(g: SimpleGraph) -> tuple[list[int], int]:
    """Candidate wall coordinates from the BFS from vertex 0 (the graph's
    ``_bfs`` view, which the constructor's connectivity check keeps), and
    their width.  The vertices are coded in discovery order, so each one's
    down-neighbours (its neighbours one level nearer vertex 0) come first.
    A vertex with exactly one down-neighbour u gets coord(u) plus a fresh
    bit; a vertex with several gets the OR of their coordinates.

    On a median graph these are its wall coordinates, zero at vertex 0.
    Let v have one down-neighbour u, and let H be the side of the wall of
    uv that holds v.  H is convex, so its gate (its vertex nearest vertex
    0) lies on a geodesic from vertex 0 to every vertex of H; were the
    gate not v, a geodesic from it to v would give v a second
    down-neighbour, inside H.  So v is the gate, every vertex seen before
    v lies off H, and the wall is new.  If v has several down-neighbours,
    the wall of each edge down from v separates vertex 0 from every other
    down-neighbour (they are at distance 2 across it), so it is already a
    bit of their coordinates.  Soundness never rests on this: the caller
    tests the coordinates with :func:`_lemma_holds`.
    """
    adj = g._adj
    order, level = g._bfs
    coords = [0] * len(level)
    width = 0
    for v in order:
        up = level[v] - 1
        down = 0
        c = 0
        for u in adj[v]:
            if level[u] == up:
                down += 1
                c |= coords[u]
        if down == 1:
            c |= 1 << width
            width += 1
        coords[v] = c
    return coords, width


def _lemma_holds(g: SimpleGraph, coords: Sequence[int], width: int) -> np.ndarray | None:
    """The bit matrix of ``coords`` (:func:`intervals.bit_rows`) if they
    meet the hypotheses of the lemma at :class:`MedianGraphCert`, else
    None: distinct, one flipped bit per edge, exactly the edges at Hamming
    distance 1 (one set lookup per set bit of each coordinate, O(sum of
    popcounts)), and closed under the bitwise majority
    (:func:`intervals.is_median_closed`).  The graph is connected by
    construction."""
    n = len(coords)
    present = set(coords)
    if len(present) != n:
        return None
    if any((coords[i] ^ coords[j]).bit_count() != 1 for i, j in g.edge_indices):
        return None
    pairs = 0      # Hamming-1 pairs, each counted at its upper end
    for c in coords:
        rest = c
        while rest:
            low = rest & -rest
            pairs += (c ^ low) in present
            rest ^= low
    if pairs != len(g.edge_indices):
        return None
    bits = intervals.bit_rows(coords, width)
    return bits if intervals.is_median_closed(bits) else None


def certify_median_graph(g: SimpleGraph) -> MedianGraphCert:
    """Certify a connected graph as median, or raise NotMedianError with a
    counterexample triple.

    One BFS from vertex 0 gives candidate wall coordinates
    (:func:`_bfs_coordinates`), in O(n + m); on a median graph they are
    its wall coordinates, since each vertex with a single down-neighbour
    is the gate of a new wall's far side.  The graph is median iff they
    satisfy :func:`_lemma_holds`; the certificate's medians are then read
    off the coordinates' bit matrix, and neither a distance table nor a
    triple scan is built.

    Only when the test fails are the path metric and its packed
    betweenness table built, and ``MedianMetric.certify`` scans the
    triples to raise NotMedianError with the lexicographically first
    witness; if it finds none, InternalCheckError is raised.
    """
    coords, width = _bfs_coordinates(g)
    bits = _lemma_holds(g, coords, width)
    if bits is not None:
        return MedianGraphCert(g, bits)
    MedianMetric.certify(g.path_metric())   # raises NotMedianError
    raise InternalCheckError(
        "graph failed the median-graph test but classify found no witness")


class CubeComplex:
    """Cubes by dimension; each k-cube is the vertex set of an induced
    k-hypercube, and the family is closed under the filling rule: a cube
    is present as soon as all its vertices are.

    Level k of ``keys`` lists the k-cubes as pairs (i, varying): the cube
    of the k walls in the mask ``varying`` at the vertex of index i, its
    corner with every varying coordinate 0.  ``counts()`` and
    ``dimension`` read the keys; the vertex sets ``cubes`` are built on
    first use, in the order of ``sorted(map(str, cube))`` (ties in key
    order).
    """

    def __init__(self, cert: MedianGraphCert, keys: dict[int, list[tuple[int, int]]]):
        self.cert = cert
        self.keys = keys

    def counts(self) -> dict[int, int]:
        return {k: len(level) for k, level in self.keys.items()}

    @property
    def dimension(self) -> int:
        return max(self.keys) if self.keys else 0

    @functools.cached_property
    def cubes(self) -> dict[int, list[frozenset]]:
        """The vertex set of every cube, by dimension."""
        vs = self.cert.vertices
        coords = self.cert.codes.ints
        by_coord = self.cert.codes.point_of
        out = {}
        for dim, level in self.keys.items():
            sets = []
            for i, varying in level:
                fix = coords[i]
                members = []
                sub = 0
                while True:    # every submask of varying, by the carry trick
                    members.append(vs[by_coord[fix | sub]])
                    sub = (sub - varying) & varying
                    if not sub:
                        break
                sets.append(frozenset(members))
            out[dim] = sorted(sets, key=lambda s: sorted(map(str, s)))
        return out


def fill_cubes(cert: MedianGraphCert, max_dim: int | None = None) -> CubeComplex:
    """Detect cubes through wall coordinates: a k-cube is a set of 2^k
    vertices realizing all orientations of k pairwise-crossing walls with
    every other wall fixed.  Built level by level, so the (k+1)-level is
    complete whenever its k-skeletons are.

    The 1-cubes are the edges, keyed at their lower end.  The cube
    (i, varying) extends along wall w above every varying wall iff
    (j, varying) is a cube, where vertex j is vertex i with bit w set: j
    is then an up-neighbour of i (the lemma at :class:`MedianGraphCert`),
    so only those are tried, in ascending bit order.  That costs
    O(sum over levels of keys * degree) dict lookups; no vertex set is
    built until ``cubes`` is read.
    """
    if max_dim is not None and max_dim < 1:
        raise InputError("max_dim must be >= 1")
    coords = cert.codes.ints
    # per vertex index, its up-neighbours (wall mask, index), ascending
    up: list[list[tuple[int, int]]] = [[] for _ in coords]
    level = []
    for i, j in cert.graph.edge_indices:
        x = coords[i] ^ coords[j]
        if coords[i] & x:
            i, j = j, i
        up[i].append((x, j))
        level.append((i, x))
    for nbrs in up:
        nbrs.sort()
    keys: dict[int, list[tuple[int, int]]] = {}
    dim = 1
    while level and (max_dim is None or dim <= max_dim):
        keys[dim] = level
        present = set(level)
        level = [(i, varying | bw) for i, varying in level for bw, j in up[i]
                 if bw > varying and (j, varying) in present]
        dim += 1
    return CubeComplex(cert, keys)
