import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from mediankit import (FiniteMetric, InputError, InternalCheckError, ResourceLimitError,
                       WallSpace, certify_median_graph)
from mediankit.algebra import (AxiomCheck, AxiomReport, FiniteMedianAlgebra,
                               IntervalStructure)
from mediankit.convexity import _circumsphere
from mediankit.corpus import graph_instances, median_graph_instances
from mediankit import intervals
from mediankit.embedding import DecompositionTrace, Elimination, RetractionStep
from mediankit.graphs import GraphWall, MedianGraphCert, SimpleGraph, _lemma_holds, _mask
from mediankit.intervals import is_convex, members
from mediankit.metric import Classification, MedianMetric, _to_fraction
from mediankit.walls import CubulationResult, Orientation, _vertex_name

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, description: str, ok: bool, seconds: float):
    line = (f"criterion {number:02d} {'PASS' if ok else 'FAIL'} "
            f"({seconds:6.2f}s)  {description}")
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def subsets_bruteforce_halfspaces(betw, within=None):
    """Oracle: every split of ``within`` (default: all points) into two
    convex parts, found by scanning all 2^n subsets of a betweenness
    bitmask table.  Walls are frozensets of two masks; the trivial wall
    {within, 0} is included."""
    n = len(betw)
    if within is None:
        within = (1 << n) - 1
    idx = [t for t in range(n) if within >> t & 1]

    def convex(mask):
        inside = [t for t in idx if mask >> t & 1]
        return all(not betw[a][b] & ~mask for a in inside for b in inside)

    out = set()
    for r in range(len(idx) + 1):
        for combo in itertools.combinations(idx, r):
            side = sum(1 << t for t in combo)
            if convex(side) and convex(within & ~side):
                out.add(frozenset((side, within & ~side)))
    return out


def between_oracle(m: FiniteMetric) -> list[list[int]]:
    """Oracle: the betweenness bitmask table by a Python loop over every
    (i, j, t): bit t of [i][j] set iff d(i,t) + d(t,j) = d(i,j)."""
    n = len(m.points)
    d = m._di
    betw = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mask = 0
            for t in range(n):
                if d[i][t] + d[j][t] == d[i][j]:
                    mask |= 1 << t
            betw[i][j] = betw[j][i] = mask
    return betw


def classify_oracle(m: FiniteMetric) -> Classification:
    """Oracle: classify by a Python scan of the triples i < j < k in
    lexicographic order on :func:`between_oracle`, stopping at the first
    empty intersection and otherwise naming the first with several
    points."""
    betw = between_oracle(m)
    empty = multi = None
    for i, j, k in itertools.combinations(range(len(m.points)), 3):
        inter = betw[i][j] & betw[j][k] & betw[k][i]
        if inter == 0:
            empty = ((i, j, k), inter)
            break
        if inter.bit_count() > 1 and multi is None:
            multi = ((i, j, k), inter)
    hit = empty or multi
    if hit is None:
        return Classification("median")
    triple, inter = hit
    return Classification("neither" if empty else "modular",
                          tuple(m.points[t] for t in triple),
                          frozenset(m.points[t] for t in members(inter)))


def validate_axioms_oracle(s: IntervalStructure) -> AxiomReport:
    """Oracle: the four axioms by a scan of frozenset intervals, each in
    point order, reporting the first violating tuple of each."""
    pts = s.points
    checks = []
    witness = next(((x,) for x in pts if s.interval(x, x) != frozenset((x,))), None)
    checks.append(AxiomCheck("idempotence", witness is None, witness))
    witness = next(((x, y) for x, y in itertools.combinations(pts, 2)
                    if s.interval(x, y) != s.interval(y, x)), None)
    checks.append(AxiomCheck("symmetry", witness is None, witness))
    witness = next(((x, y, z) for x in pts for y in pts
                    for z in sorted(s.interval(x, y), key=s.index)
                    if not s.interval(x, z) <= s.interval(x, y)), None)
    checks.append(AxiomCheck("nesting", witness is None, witness))
    witness = detail = None
    for x, y, z in itertools.product(pts, repeat=3):
        common = s.interval(x, y) & s.interval(y, z) & s.interval(z, x)
        if len(common) != 1:
            witness, detail = (x, y, z), frozenset(common)
            break
    checks.append(AxiomCheck("unique_median", witness is None, witness, detail))
    return AxiomReport(tuple(checks))


def simple_graph_oracle(vertices, edges) -> SimpleGraph:
    """Oracle: the graph constructor as one loop over the edges, in input
    order, with a set of canonical index pairs and one sort per vertex."""
    vs = list(vertices)
    if not vs:
        raise InputError("a graph needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise InputError("duplicate vertex identifiers")
    index = {v: i for i, v in enumerate(vs)}
    adj: list[set[int]] = [set() for _ in vs]
    canon = set()
    for u, v in edges:
        if u not in index or v not in index:
            raise InputError(f"edge ({u!r},{v!r}) references an unknown vertex")
        i, j = index[u], index[v]
        if i == j:
            raise InputError(f"loop at {u!r}")
        key = (min(i, j), max(i, j))
        if key in canon:
            continue
        canon.add(key)
        adj[i].add(j)
        adj[j].add(i)
    out = SimpleGraph.__new__(SimpleGraph)
    out._adopt(vs, index, sorted(canon), [sorted(a) for a in adj])
    return out


def edge_halfspaces(dist: list[list[int]], edges) -> list[int]:
    """Oracle: the distinct halfspaces {z : d(z,i) < d(z,j)} of the edges,
    each taken on the side holding vertex 0, in first-seen order, from
    the all-pairs BFS table.

    Across an edge distances change by at most one, so the halfspace is
    the union over L of level L of i and level L+1 of j.
    """
    levels = []
    for row in dist:
        level = [0] * (max(row) + 1)
        for z, d in enumerate(row):
            level[d] |= 1 << z
        levels.append(level)
    full = (1 << len(dist)) - 1
    sides: dict[int, None] = {}
    for i, j in edges:
        side = 0
        for near, far in zip(levels[i], levels[j][1:]):
            side |= near & far
        sides[side if side & 1 else full & ~side] = None
    return list(sides)


def edge_halfspace_certificate(g) -> MedianGraphCert | None:
    """Oracle: the median-graph certificate built from wall coordinates
    read off the edge halfspaces of the all-pairs BFS table (bit k set
    off the side of halfspace k holding vertex 0), or None when those
    coordinates fail the lemma."""
    n = len(g.vertices)
    sides = edge_halfspaces(g.all_pairs(), g.edge_indices)
    full = (1 << n) - 1
    coords = [0] * n
    for k, side in enumerate(sides):
        for t in members(full & ~side):
            coords[t] |= 1 << k
    if not _lemma_holds(g, coords, len(sides)):
        return None
    return MedianGraphCert(g, coords, len(sides))


def random_shortest_path_metric(rng, n):
    """Metric closure of a random rational-weighted complete graph."""
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = Fraction(rng.randint(1, 12), rng.randint(1, 3))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if w[i][k] + w[k][j] < w[i][j]:
                    w[i][j] = w[i][k] + w[k][j]
    return FiniteMetric(list(range(n)), w)


def fraction_metric_oracle(points, matrix):
    """Oracle: FiniteMetric validation entry by entry: every entry through
    ``_to_fraction``, a running lcm, then a Python scan of the axioms and
    of every triple.  Returns (scale, scaled integer rows) or raises the
    InputError the constructor must raise."""
    pts = list(points)
    n = len(pts)
    if n == 0:
        raise InputError("a metric space needs at least one point")
    if len(set(pts)) != len(pts):
        raise InputError("duplicate point identifiers")
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise InputError(f"distance matrix must be {n}x{n}")
    frac = [[_to_fraction(v) for v in row] for row in matrix]
    scale = 1
    for row in frac:
        for v in row:
            scale = scale * v.denominator // math.gcd(scale, v.denominator)
    di = [[v.numerator * (scale // v.denominator) for v in row] for row in frac]
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
    return scale, di


def upper_triangle_oracle(points, rows):
    """Oracle: the upper-triangle reader that parses each row as it reads
    it into a Fraction matrix, then applies the square-matrix oracle."""
    pts = list(points)
    n = len(pts)
    if len(rows) not in (n - 1, n):
        raise InputError(f"expected {n - 1} upper-triangle rows, got {len(rows)}")
    full = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        row = rows[i]
        if len(row) != n - 1 - i:
            raise InputError(f"upper-triangle row {i} must have {n - 1 - i} entries")
        for off, v in enumerate(row):
            j = i + 1 + off
            full[i][j] = full[j][i] = _to_fraction(v)
    return fraction_metric_oracle(pts, full)


def scaled_rows_oracle(matrix):
    """Oracle: the entry-by-entry reader of metric input.  A plain int is
    taken as it is, a string is parsed by ``_to_fraction`` once per
    distinct string and any other value one by one, row-major, so the
    first bad entry raises; then every entry is scaled by the lcm of the
    denominators."""
    memo: dict[str, Fraction] = {}
    parsed = []
    dens = {1}
    for row in matrix:
        out = []
        for v in row:
            if type(v) is not int:
                if type(v) is str:
                    f = memo.get(v)
                    if f is None:
                        f = memo[v] = _to_fraction(v)
                else:
                    f = _to_fraction(v)
                if f.denominator == 1:
                    v = f.numerator
                else:
                    v = f
                    dens.add(f.denominator)
            out.append(v)
        parsed.append(out)
    scale = math.lcm(*dens)
    if scale == 1:
        return parsed, 1
    return [[v * scale if type(v) is int else v.numerator * (scale // v.denominator)
             for v in row] for row in parsed], scale


def is_metric_oracle(di) -> bool:
    """Oracle: the metric axioms on a scaled integer matrix, in Python ints,
    the triangle inequality as one n x n broadcast comparison per middle
    point."""
    n = len(di)
    d = np.array(di, dtype=object)
    positive = d > 0
    np.fill_diagonal(positive, True)
    if d.diagonal().any() or not positive.all() or (d != d.T).any():
        return False
    return not any((d[:, k, None] + d[None, k, :] < d).any() for k in range(n))


def bareiss_rows_oracle(g, h: int = 1) -> Elimination:
    """Oracle: symmetric fraction-free elimination with greedy diagonal
    pivoting, every step on the upper triangle of the remaining block in
    Python ints; the same contract as ``embedding._psd_eliminate``."""
    n = len(g)
    remaining = list(range(n))
    upper = [list(row[i:]) for i, row in enumerate(g)]
    order: list[int] = []
    columns: list[list[int]] = []
    prev = 1
    div = h
    unit = 1
    pivots: list[Fraction] = []

    def witness(*rows):
        vec = [0] * n
        for sign, s in rows:
            vec[remaining[s]] = sign * prev
        for q, col in zip(reversed(order), reversed(columns)):
            vec[q] = -sum(map(operator.mul, vec, col)) // col[q]
        return [Fraction(v, prev) for v in vec]

    while remaining:
        t = max(range(len(remaining)), key=lambda s: upper[s][0])
        p = upper[t][0]
        if p > 0:
            pivots.append(Fraction(unit * p, prev))
            col = [upper[s][t - s] for s in range(t)] + upper.pop(t)
            del col[t]
            q = remaining.pop(t)
            full = [0] * n
            full[q] = p
            for r, a in zip(remaining, col):
                full[r] = a
            order.append(q)
            columns.append(full)
            for s, row in enumerate(upper):
                a = col[s]
                if s < t:
                    del row[t - s]
                upper[s] = [(p * x - a * y) // div for x, y in zip(row, col[s:])]
            div, unit = (h * p, h) if len(order) == 1 else (p, h * h)
            prev = p
            continue
        for s, row in enumerate(upper):
            if row[0] < 0:
                return Elimination(False, pivots, witness((1, s)), order, columns)
        for s, row in enumerate(upper):
            for u in range(1, len(row)):
                if row[u] != 0:
                    v = witness((1, s), (-1 if row[u] > 0 else 1, s + u))
                    return Elimination(False, pivots, v, order, columns)
        pivots.extend(Fraction(0) for _ in remaining)
        remaining = []
    return Elimination(True, pivots, None, order, columns)


def random_crossing_wall_space(rng, n_points, n_walls):
    pts = [f"p{i}" for i in range(n_points)]
    walls = []
    for _ in range(n_walls):
        size = rng.randint(1, n_points - 1)
        side = rng.sample(pts, size)
        walls.append((side, [p for p in pts if p not in side]))
    return WallSpace(pts, walls)       # may raise InputError (unseparated pair)


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


def check_upward_closure(o: Orientation) -> bool:
    """Oracle: if a chosen side is contained in a side of another wall,
    that side must be the chosen one (implied by pairwise consistency in
    the finite model; checked independently)."""
    w = o.space.wall_count
    chosen = [o.side_mask(k) for k in range(w)]
    for k in range(w):
        s = chosen[k]
        for l in range(w):
            if l == k:
                continue
            for t in o.space.side_masks(l):
                if not s & ~t and chosen[l] != t:
                    return False
    return True


class EagerCertificate:
    """Oracle: the median-graph certificate read off wall coordinates by
    Python loops, every wall built at once: coordinates re-based to
    vertex 0, walls sorted on their sides' vertex indices, wall k input
    bit ``wall_bits[k]`` with the edges flipping it as crossing edges."""

    def __init__(self, graph: SimpleGraph, coords, width: int):
        self.graph = graph
        n = len(coords)
        base = coords[0]
        split = [([], []) for _ in range(width)]
        for t, c in enumerate(coords):
            c ^= base
            for k in range(width):
                split[k][c >> k & 1].append(t)
        self.wall_bits = tuple(sorted(range(width), key=lambda k: split[k][0]))
        rebased = [0] * n
        for i, k in enumerate(self.wall_bits):
            for t in split[k][1]:
                rebased[t] |= 1 << i
        crossing = [[] for _ in range(width)]
        vs = graph.vertices
        for i, j in graph.edge_indices:
            crossing[(rebased[i] ^ rebased[j]).bit_length() - 1].append((vs[i], vs[j]))
        self.walls = [GraphWall(side=frozenset(vs[t] for t in split[bit][0]),
                                complement=frozenset(vs[t] for t in split[bit][1]),
                                crossing_edges=tuple(crossing[k]),
                                side_mask=_mask(split[bit][0], n))
                      for k, bit in enumerate(self.wall_bits)]
        self._coords = rebased

    def wall_coordinates(self, base=None) -> dict:
        shift = 0 if base is None else self._coords[self.graph.index(base)]
        return {v: tuple((c ^ shift) >> k & 1 for k in range(len(self.walls)))
                for v, c in zip(self.graph.vertices, self._coords)}


@dataclass(frozen=True)
class CubeComplexOracle:
    """Oracle: cubes by dimension, every vertex set built at once."""

    cubes: dict[int, list[frozenset]]

    def counts(self) -> dict[int, int]:
        return {k: len(v) for k, v in sorted(self.cubes.items())}

    @property
    def dimension(self) -> int:
        return max(self.cubes) if self.cubes else 0


def fill_cubes_oracle(cert: MedianGraphCert, max_dim: int | None = None) -> CubeComplexOracle:
    """Oracle: cubes by Python loops over every wall.  A k-cube is a set of 2^k
    vertices realizing all orientations of k pairwise-crossing walls with
    every other wall fixed.  Built level by level, so the (k+1)-level is
    complete whenever its k-skeletons are.
    """
    if max_dim is not None and max_dim < 1:
        raise InputError("max_dim must be >= 1")
    nwalls = len(cert.wall_bits)
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
    return CubeComplexOracle(out)


def _blocked_literals(sides) -> list[list[int]]:
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


def cubulate_oracle(w: WallSpace, *, max_walls: int = 24,
                    max_vertices: int = 65536) -> CubulationResult:
    """Oracle: the cubulation by a Python flip BFS on literal masks, one
    vertex and one wall at a time, with Hamming-1 edges found by set
    lookups, the graph built from vertex names, and an
    :class:`EagerCertificate`; the checks are those of ``cubulate``."""
    W = w.wall_count
    if max_walls < 0 or max_vertices < 0:
        raise InputError(f"max_walls and max_vertices must be >= 0, "
                         f"got {max_walls} and {max_vertices}")
    if W > max_walls:
        raise ResourceLimitError(
            f"cubulation capped at {max_walls} nontrivial walls, got {W}", cap=max_walls)
    blocked = _blocked_literals([w.side_masks(k) for k in range(W)])
    principals = {p: w.sigma_bits(p) for p in w.points}
    frontier = deque((b, _literals(b, W)) for b in sorted(set(principals.values())))
    vertex_set = {b for b, _ in frontier}
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
                        f"cubulation exceeded {max_vertices} vertices", cap=max_vertices)
    ordered = sorted(vertex_set)
    names = [_vertex_name(b, W) for b in ordered]
    edges = [(_vertex_name(b, W), _vertex_name(b ^ (1 << k), W))
             for b in ordered for k in range(W)
             if b ^ (1 << k) > b and b ^ (1 << k) in vertex_set]
    graph = SimpleGraph(names, edges)
    checks = {}
    if len(set(principals.values())) != len(w.points):
        raise InternalCheckError("point embedding is not injective")
    checks["embedding_injective"] = True
    for bits in ordered:
        lits = _literals(bits, W)
        if any(lits & row[bits >> k & 1] for k, row in enumerate(blocked)):
            raise InternalCheckError(f"inconsistent vertex {bits:b} generated")
    checks["vertices_consistent"] = True
    checks["embedding_isometric"] = True
    if count_closure(sorted(set(principals.values())), W, len(ordered)) != len(ordered):
        raise InternalCheckError("vertex set is not the median closure of the embedded image")
    checks["median_closure"] = "checked"
    checks["distance_vs_hamming"] = "exhaustive"
    cert = EagerCertificate(graph, ordered, W)
    corr = dict(sorted((k, widx) for widx, k in enumerate(cert.wall_bits)))
    checks["wall_bijection"] = "certified"
    embedding = {p: _vertex_name(bits, W) for p, bits in principals.items()}
    vertex_bits = dict(zip(names, ordered))
    return CubulationResult(graph, embedding, vertex_bits, corr, cert, checks)


def wall_metric_recount(w: WallSpace, res) -> bool:
    """Oracle: for every pair of points, the separating walls, half the
    symmetric difference of the sigma halfspaces, and the Hamming distance
    of the cubulation's vertex bits at the two points all agree, and
    ``wall_metric`` reads that count."""
    bits = {x: res.vertex_bits[res.embedding[x]] for x in w.points}
    for x, y in itertools.combinations(w.points, 2):
        count = len(w.separating_walls(x, y))
        if w.wall_metric(x, y) != count:
            return False
        if len(w.sigma_halfspaces(x) ^ w.sigma_halfspaces(y)) != 2 * count:
            return False
        if (bits[x] ^ bits[y]).bit_count() != count:
            return False
    return True


def morphism_by_halfspaces(f, a: FiniteMedianAlgebra, b: FiniteMedianAlgebra) -> bool:
    """Oracle: f (total) is a median morphism iff the preimage of every
    halfspace of ``b`` and its complement are convex in ``a``."""
    for h in b.halfspaces():
        pre = frozenset(p for p in a.points if f[p] in h.side)
        co = frozenset(a.points) - pre
        if not (a.is_convex(pre) and a.is_convex(co)):
            return False
    return True


def retraction_oracle(mm: MedianMetric) -> DecompositionTrace:
    """Oracle: the halfspace peeling of a median metric, re-running
    ``intervals.halfspaces`` on the current convex set at every step, and
    checking every clause the negative-definiteness argument rests on:
    unique nearest points lying on geodesics, the rectangle property off
    the halfspace, a constant gap delta, the four-case distance law, and
    that only the chosen wall separates a point from its retraction.
    """
    n = len(mm.points)
    d = [[mm.dist_int(i, j) for j in range(n)] for i in range(n)]
    betw = mm._between()
    steps: list[RetractionStep] = []
    current = (1 << n) - 1
    while current & (current - 1):
        # current is convex, so its halfspaces restrict the parent's
        sides = []
        for side, _ in intervals.halfspaces(betw, within=current):
            sides += [side, current & ~side]
        if not sides:
            raise InternalCheckError("no proper halfspace in a 2+ point space")
        maximal = [s for s in sides if not any(t != s and not s & ~t for t in sides)]
        chosen = min(maximal, key=intervals.members)
        peeled = current & ~chosen
        inside, outside = intervals.members(chosen), intervals.members(peeled)

        retraction = {}
        delta = None
        for x in outside:
            dmin = min(d[x][p] for p in inside)
            nearest = [p for p in inside if d[x][p] == dmin]
            if len(nearest) != 1:
                raise InternalCheckError(
                    f"nearest point in halfspace not unique for {mm.points[x]!r}")
            px = nearest[0]
            for p in inside:
                if d[x][px] + d[px][p] != d[x][p]:
                    raise InternalCheckError(
                        "nearest point not on the geodesic to the halfspace")
            for s in sides:
                if (s >> x ^ s >> px) & 1 and s not in (chosen, peeled):
                    raise InternalCheckError(
                        "a wall other than the peeled one separates x from its "
                        "retraction")
            retraction[x] = px
            if delta is None:
                delta = dmin
            elif delta != dmin:
                raise InternalCheckError("gap to the halfspace is not constant")

        for x in outside:
            for y in outside:
                px, py = retraction[x], retraction[y]
                if not (betw[x][py] >> y & 1 and betw[x][py] >> px & 1
                        and betw[y][px] >> x & 1 and betw[y][px] >> py & 1):
                    raise InternalCheckError("rectangle property fails off the "
                                             "halfspace")
                if d[x][y] != d[px][py] or d[y][py] != d[px][x]:
                    raise InternalCheckError("rectangle has unequal opposite sides")

        for x in inside + outside:
            for y in inside + outside:
                px = retraction.get(x, x)
                py = retraction.get(y, y)
                gap = (x in retraction) != (y in retraction)
                if d[x][y] != d[px][py] + (delta if gap else 0):
                    raise InternalCheckError("four-case distance law fails")

        steps.append(RetractionStep(
            halfspace=tuple(mm.points[g] for g in inside),
            complement=tuple(mm.points[g] for g in outside),
            delta=Fraction(delta, mm.scale),
            retraction={mm.points[x]: mm.points[p] for x, p in retraction.items()},
        ))
        current = chosen
    return DecompositionTrace(mm, tuple(steps))


def median_table(a: FiniteMedianAlgebra) -> dict:
    """The ternary operation of an algebra as a table over every
    unordered triple, derived from its intervals."""
    return {
        (x, y, z): a.median(x, y, z)
        for x, y, z in itertools.combinations_with_replacement(a.points, 3)
    }


def enclosing_ball_oracle(points) -> tuple[np.ndarray, float]:
    """Exact brute force: smallest feasible circumsphere over all subsets
    of size <= d+1.  Exponential; meant for low dimension."""
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    best = None
    for r in range(1, min(m, d + 1) + 1):
        for subset in itertools.combinations(range(m), r):
            got = _circumsphere(pts[list(subset)])
            if got is None:
                continue
            center, radius = got
            if np.linalg.norm(pts - center, axis=1).max() <= radius * (1 + 1e-10) + 1e-10:
                if best is None or radius < best[1]:
                    best = (center, radius)
    if best is None:
        raise InternalCheckError("oracle found no enclosing ball")
    return best


def centered_gram(m: FiniteMetric) -> list[list[Fraction]]:
    """Oracle: B = -1/2 J D J with J the mean-centering projector, in
    Fractions; B is PSD iff the distance form is <= 0 on zero-sum vectors."""
    n = len(m.points)
    d = [[Fraction(m.dist_int(i, j), m.scale) for j in range(n)] for i in range(n)]
    row = [sum(d[i]) / n for i in range(n)]
    grand = sum(row) / n
    return [[-(d[i][j] - row[i] - row[j] + grand) / 2 for j in range(n)]
            for i in range(n)]


def fraction_psd_eliminate(b):
    """Oracle: PSD test by rational elimination with greedy diagonal
    pivoting.  Returns (is_psd, pivots, witness) where witness is a vector
    v with v^T B v < 0 when the test fails; rows of the tracked transform M
    keep the reduced form expressed in original coordinates: S = M B M^T."""
    n = len(b)
    work = [[Fraction(v) for v in row] for row in b]
    trans = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
             for i in range(n)]
    remaining = list(range(n))
    pivots: list[Fraction] = []
    while remaining:
        k = max(remaining, key=lambda i: work[i][i])
        if work[k][k] > 0:
            d = work[k][k]
            pivots.append(d)
            remaining.remove(k)
            for i in remaining:
                c = work[i][k] / d
                if c:
                    for j in remaining:
                        work[i][j] -= c * work[k][j]
                    for j in range(n):
                        trans[i][j] -= c * trans[k][j]
            continue
        neg = [i for i in remaining if work[i][i] < 0]
        if neg:
            return False, pivots, trans[neg[0]]
        for i in remaining:
            for j in remaining:
                if i < j and work[i][j] != 0:
                    s = 1 if work[i][j] > 0 else -1
                    return False, pivots, [trans[i][t] - s * trans[j][t] for t in range(n)]
        pivots.extend(Fraction(0) for _ in remaining)
        remaining = []
    return True, pivots, None


def fraction_negdef_oracle(m: FiniteMetric):
    """Oracle: (negative_definite, pivots, witness) of a metric by rational
    elimination of the centered form, the witness projected to zero sum
    and cleared of denominators."""
    ok, pivots, raw = fraction_psd_eliminate(centered_gram(m))
    if ok:
        return True, tuple(pivots), None
    mean = sum(raw) / len(raw)
    alpha = [v - mean for v in raw]
    den = math.lcm(*(a.denominator for a in alpha))
    return False, tuple(pivots), tuple(a * den for a in alpha)


def eigh_gns_oracle(m: FiniteMetric) -> tuple[int, np.ndarray]:
    """Oracle: the rank of the centered form and the squared pair
    distances of its GNS embedding, from a float eigendecomposition
    (eigenvalues above 1e-13 of the largest count).  The eigenvectors of a
    repeated eigenvalue are not unique, so no coordinates are returned;
    the distances are in ``np.triu_indices(n, 1)`` order."""
    n = len(m.points)
    b = np.array([[float(v) for v in row] for row in centered_gram(m)])
    evals, evecs = np.linalg.eigh(b)
    keep = evals > max(float(evals.max(initial=0.0)), 1.0) * 1e-13
    coords = evecs[:, keep] * np.sqrt(evals[keep])
    i, j = np.triu_indices(n, 1)
    diff = coords[i] - coords[j]
    return int(keep.sum()), (diff * diff).sum(axis=1)


def zero_sum_sampling_oracle(m: FiniteMetric, samples: int = 10_000,
                             seed: int = 0, span: int = 9) -> Fraction:
    """Oracle: maximum form value over seeded random integer zero-sum
    vectors.

    Integer vectors cover the rational condition (the form is homogeneous,
    so denominators clear); evaluation is exact in int64.  A certificate
    claiming negative definiteness must never be contradicted by this.
    """
    n = len(m.points)
    rng = np.random.default_rng(seed)
    a = rng.integers(-span, span + 1, size=(samples, n), dtype=np.int64)
    a[:, -1] -= a.sum(axis=1)
    d = np.array([[m.dist_int(i, j) for j in range(n)] for i in range(n)],
                 dtype=np.int64)
    peak = int(np.abs(a).max(initial=0))
    if peak ** 2 * int(d.max(initial=0)) * n * n >= 2 ** 62:
        raise InputError("sampling oracle would overflow int64")
    vals = np.einsum("si,ij,sj->s", a, d, a)
    return Fraction(int(vals.max()), m.scale)


def hypermetric_oracle(m: FiniteMetric, bound: int):
    """Oracle: (max_value, argmax, vectors_checked) of the hypermetric
    form over integer vectors in [-bound, bound]^n summing to 1, by a
    recursive enumeration in lexicographic order that keeps the first
    maximiser, in Python ints."""
    n = len(m.points)
    d = [[m.dist_int(i, j) for j in range(n)] for i in range(n)]
    best_val = None
    best_vec: tuple[int, ...] = ()
    checked = 0
    vec = [0] * n
    contrib = [0] * n      # contrib[j] = sum_i vec[i] * d[i][j] over assigned i

    def rec(pos: int, ssum: int, form: int):
        nonlocal best_val, best_vec, checked
        rem = n - pos
        if pos == n:
            if ssum == 1:
                checked += 1
                if best_val is None or form > best_val:
                    best_val = form
                    best_vec = tuple(vec)
            return
        lo, hi = 1 - ssum - bound * (rem - 1), 1 - ssum + bound * (rem - 1)
        for t in range(max(-bound, lo), min(bound, hi) + 1):
            vec[pos] = t
            dp = d[pos]
            for j in range(pos + 1, n):
                contrib[j] += t * dp[j]
            rec(pos + 1, ssum + t, form + 2 * t * contrib[pos])
            for j in range(pos + 1, n):
                contrib[j] -= t * dp[j]
        vec[pos] = 0

    rec(0, 0, 0)
    return Fraction(best_val, m.scale), best_vec, checked


def convex_sets_oracle(m: FiniteMetric) -> list[int]:
    """Oracle: every convex subset as a bitmask, ascending, by testing each
    of the 2^n masks with ``intervals.is_convex``."""
    betw = m._between()
    return [mask for mask in range(1 << len(m.points)) if is_convex(betw, mask)]


def helly_witness_oracle(m: FiniteMetric):
    """Oracle: the first triple, in (a, b, c) order over the ascending
    nonempty convex masks, of pairwise-meeting convex sets with no common
    point, by a Python loop over the pairs (a, b) that tests every later c
    at once; None if Helly holds."""
    n = len(m.points)
    masks = [x for x in convex_sets_oracle(m) if x]

    def unmask(x):
        return frozenset(m.points[t] for t in range(n) if x >> t & 1)

    arr = np.array(masks, dtype=np.int64)
    for a, ma in enumerate(masks):
        hits_a = arr & ma
        for b in range(a + 1, len(masks)):
            mb = masks[b]
            common = ma & mb
            if not common:
                continue
            tail = arr[b + 1:]
            bad = ((tail & common) == 0) & (hits_a[b + 1:] != 0) & ((tail & mb) != 0)
            if bad.any():
                c = int(np.flatnonzero(bad)[0]) + b + 1
                return unmask(ma), unmask(mb), unmask(masks[c])
    return None


def count_closure(image_bits: Sequence[int], width: int, limit: int) -> int:
    """Number of bitvectors of ``width`` bits satisfying every 2-clause
    (and unit clause) that all of ``image_bits`` satisfy, counted up to
    ``limit + 1``.

    A set of bitvectors is closed under the majority median iff it is the
    solution set of a 2-CNF (Schaefer 1978), so this counts the median
    closure of the image; it equals ``len(image_bits)`` for distinct
    elements iff the image is median-closed.  The search assigns bits in
    index order and takes value s of bit k only if some image element has
    it and every earlier chosen literal occurs with it in some image
    element.  The clause set is closed under resolution, so every partial
    assignment extends: the search never dead-ends and visits at most
    (limit + 1) * (width + 1) nodes.
    """
    occ = [[0, 0] for _ in range(width)]    # occ[k][s]: image elements with bit k == s
    for e, bits in enumerate(image_bits):
        for k in range(width):
            occ[k][bits >> k & 1] |= 1 << e
    # compat[k][s]: literals 2l+t (l < k) occurring together with (k, s)
    compat = [[sum(1 << (2 * l + t) for l in range(k) for t in (0, 1)
                   if occ[l][t] & occ[k][s]) for s in (0, 1)] for k in range(width)]
    count = 0
    stack = [(0, 0)]                      # (next bit, chosen literals)
    while stack:
        k, path = stack.pop()
        if k == width:
            count += 1
            if count > limit:
                break
            continue
        for s in (0, 1):
            if occ[k][s] and not path & ~compat[k][s]:
                stack.append((k + 1, path | 1 << (2 * k + s)))
    return count


def majority_closure(image_bits) -> set[int]:
    """Oracle: the median closure of a set of bitvectors, by iterating the
    bitwise majority to a fixpoint."""
    current = set(image_bits)
    fresh = list(current)
    while fresh:
        cur = np.fromiter(current, dtype=np.int64, count=len(current))
        gg = cur[:, None] & cur[None, :]
        uu = cur[:, None] | cur[None, :]
        added: set[int] = set()
        for c in fresh:
            meds = gg | (uu & c)
            added.update(int(x) for x in np.unique(meds[~np.isin(meds, cur)]))
        added -= current
        current |= added
        fresh = list(added)
    return current


def majority_closure_check(vertex_bits, image_bits) -> bool:
    """Oracle: the vertex set is majority-stable AND equals the median
    closure of the image (bitvectors of fewer than 63 bits)."""
    arr = np.sort(np.fromiter(vertex_bits, dtype=np.int64))
    nv = len(arr)

    def all_members(values: np.ndarray) -> bool:
        flat = values.ravel()
        pos = np.searchsorted(arr, flat)
        pos[pos == nv] = nv - 1
        return bool((arr[pos] == flat).all())

    g = arr[:, None] & arr[None, :]
    u = arr[:, None] | arr[None, :]
    if not all(all_members(g | (u & c)) for c in arr):
        return False
    return majority_closure(image_bits) == {int(b) for b in arr}


def bfs_distance_check(vertex_bits, adj) -> bool:
    """Oracle: BFS path distance equals Hamming distance for every pair of
    vertices of the graph with adjacency lists ``adj``."""
    n = len(vertex_bits)
    for a in range(n):
        dist = [-1] * n
        dist[a] = 0
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if any(dist[b] != (vertex_bits[a] ^ vertex_bits[b]).bit_count()
               for b in range(n)):
            return False
    return True


def steps_toward_all(vertex_bits, adj) -> bool:
    """Oracle: True iff path distance equals Hamming distance for every
    pair of vertices of the graph with adjacency lists ``adj``, in O(n^2).

    Every edge must flip exactly one bit, so path distance is at least
    Hamming distance.  With flips(a) the bits flipped by the edges at a,
    a has a neighbour one step closer to b iff a and b differ somewhere in
    flips(a); by induction on Hamming distance this holding for all pairs
    is equivalent to the two distances agreeing.
    """
    for a, nbrs in zip(vertex_bits, adj):
        flips = 0
        for j in nbrs:
            step = a ^ vertex_bits[j]
            if step.bit_count() != 1:
                return False
            flips |= step
        if [b & flips for b in vertex_bits].count(a & flips) != 1:
            return False
    return True


def boolean_median_algebra(k: int) -> FiniteMedianAlgebra:
    """P({0..k-1}) with [A,B] = {C : A&B <= C <= A|B}."""
    universe = list(range(k))
    points = [frozenset(s) for r in range(k + 1)
              for s in itertools.combinations(universe, r)]
    table = {}
    for a in points:
        for b in points:
            lo, hi = a & b, a | b
            table[(a, b)] = frozenset(c for c in points if lo <= c <= hi)
    return FiniteMedianAlgebra.promote(IntervalStructure(points, table))


@pytest.fixture(scope="session")
def boolean2():
    return boolean_median_algebra(2)


@pytest.fixture(scope="session")
def boolean3():
    return boolean_median_algebra(3)


@pytest.fixture(scope="session")
def corpus_graphs():
    return {inst.name: inst for inst in graph_instances()}


@pytest.fixture(scope="session")
def median_certs():
    """Certificates for every median graph in the corpus (built once)."""
    return {inst.name: certify_median_graph(inst.payload)
            for inst in median_graph_instances()}


@pytest.fixture(scope="session")
def median_metrics(median_certs):
    return {name: cert.metric for name, cert in median_certs.items()}


@pytest.fixture(scope="session")
def small_median_metrics(median_metrics):
    return {name: m for name, m in median_metrics.items() if len(m.points) <= 12}
