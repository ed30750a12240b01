"""Seeded input constructions, each with the facts its construction
guarantees.

Nothing here imports mediankit: the inputs and their expected verdicts are
built independently of the program under test (and of ``mediankit.corpus``),
so a change to the program cannot change a workload.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from fractions import Fraction

import numpy as np

# A graph is (vertices, edges) with string vertex ids.


def grid(rows: int, cols: int):
    vs = [f"r{r}c{c}" for r in range(rows) for c in range(cols)]
    edges = [(f"r{r}c{c}", f"r{r + 1}c{c}") for r in range(rows - 1) for c in range(cols)]
    edges += [(f"r{r}c{c}", f"r{r}c{c + 1}") for r in range(rows) for c in range(cols - 1)]
    return vs, edges


def hypercube(k: int):
    vs = [format(x, f"0{k}b") for x in range(1 << k)]
    edges = [(vs[x], vs[x ^ (1 << b)]) for x in range(1 << k) for b in range(k)
             if x ^ (1 << b) > x]
    return vs, edges


def random_tree(n: int, rng: random.Random):
    vs = [f"t{i}" for i in range(n)]
    return vs, [(vs[rng.randrange(i)], vs[i]) for i in range(1, n)]


def cycle(n: int):
    vs = [f"c{i}" for i in range(n)]
    return vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)]


def complete_bipartite(m: int, k: int):
    left = [f"a{i}" for i in range(m)]
    right = [f"b{i}" for i in range(k)]
    return left + right, [(a, b) for a in left for b in right]


def shuffled(graph, rng: random.Random):
    """Same graph, with vertex order, edge order and edge orientation drawn
    from the seed; the program sees a different input file per seed."""
    vs, edges = graph
    vs = list(vs)
    rng.shuffle(vs)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    return vs, edges


def distances(graph) -> list[list[int]]:
    """All-pairs BFS distances, rows and columns in vertex order."""
    vs, edges = graph
    index = {v: i for i, v in enumerate(vs)}
    adj = [[] for _ in vs]
    for u, v in edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    out = []
    for s in range(len(vs)):
        dist = [-1] * len(vs)
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        out.append(dist)
    return out


def graph_json(graph) -> dict:
    vs, edges = graph
    return {"vertices": list(vs), "edges": [[u, v] for u, v in edges]}


def metric_json(points, dist) -> dict:
    return {"points": list(points), "dist": [[str(v) for v in row] for row in dist]}


def graph_metric_json(graph) -> dict:
    return metric_json(graph[0], distances(graph))


# -- metrics --------------------------------------------------------------


def l1_metric(n: int, dim: int, span: int, rng: random.Random):
    """n distinct integer points in [0, span)^dim with the l1 distance, which
    is of negative type."""
    pts: set[tuple[int, ...]] = set()
    while len(pts) < n:
        pts.add(tuple(rng.randrange(span) for _ in range(dim)))
    order = sorted(pts)
    rng.shuffle(order)
    dist = [[sum(abs(a - b) for a, b in zip(p, q)) for q in order] for p in order]
    return [f"x{i}" for i in range(n)], dist


TREE_WEIGHTS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1),
                Fraction(3, 2), Fraction(2))


def weighted_tree_metric(n: int, rng: random.Random):
    """Path metric of a random tree with rational edge weights; tree metrics
    embed in l1, so they are of negative type."""
    parent = [rng.randrange(i) if i else -1 for i in range(n)]
    weight = [rng.choice(TREE_WEIGHTS) for _ in range(n)]
    depth = [Fraction(0)] * n
    chain: list[list[int]] = [[0]]
    for i in range(1, n):
        depth[i] = depth[parent[i]] + weight[i]
        chain.append(chain[parent[i]] + [i])
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            common = 0
            for a, b in zip(chain[i], chain[j]):
                if a != b:
                    break
                common = a
            dist[i][j] = dist[j][i] = depth[i] + depth[j] - 2 * depth[common]
    return [f"w{i}" for i in range(n)], dist


def min_centered_eigenvalue(dist) -> float:
    """Smallest eigenvalue of B = -1/2 J D J in floats: negative type holds
    iff B is positive semidefinite."""
    d = np.array([[float(v) for v in row] for row in dist])
    n = len(d)
    j = np.eye(n) - 1.0 / n
    return float(np.linalg.eigvalsh(-0.5 * j @ d @ j).min())


INDEFINITE_MARGIN = 0.25


def indefinite_one_two_metric(n: int, rng: random.Random):
    """A random {1,2}-metric (every such matrix satisfies the triangle
    inequality) that a float eigenvalue check shows to be clearly not of
    negative type: its centered Gram matrix has an eigenvalue below
    -INDEFINITE_MARGIN.  Draws are repeated until one qualifies."""
    while True:
        dist = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = rng.choice((1, 2))
        if min_centered_eigenvalue(dist) < -INDEFINITE_MARGIN:
            return [f"q{i}" for i in range(n)], dist


def distance_form(dist, coeffs) -> Fraction:
    n = len(dist)
    return sum((Fraction(coeffs[i]) * Fraction(coeffs[j]) * Fraction(dist[i][j])
                for i in range(n) for j in range(n) if coeffs[i] and coeffs[j]),
               Fraction(0))


# -- wall spaces ------------------------------------------------------------


def box_walls(dims: tuple[int, ...], rng: random.Random):
    """Walls of a product of chains of the given lengths: one family of
    nested cuts per axis.  The points are the box corners, the points on each
    axis, and one seeded interior point.  Every pair of halfspaces from
    different families meets in a corner, so every orientation is
    consistent: the cubulation is the full grid graph with prod(dims)
    vertices."""
    d = len(dims)
    pts = set(itertools.product(*[(0, m - 1) for m in dims]))
    for k in range(d):
        for i in range(dims[k]):
            pts.add(tuple(i if t == k else 0 for t in range(d)))
    pts.add(tuple(rng.randrange(m) for m in dims))
    order = sorted(pts)
    rng.shuffle(order)
    names = ["p" + "_".join(map(str, p)) for p in order]
    walls = []
    for k in range(d):
        for cut in range(1, dims[k]):
            walls.append(([n for n, p in zip(names, order) if p[k] < cut],
                          [n for n, p in zip(names, order) if p[k] >= cut]))
    vertices = math.prod(dims)
    edges = sum((m - 1) * vertices // m for m in dims)
    return names, walls, vertices, edges


def tree_walls(n: int, rng: random.Random):
    """Edge cuts of a random tree on n points; the cubulation is the tree."""
    vs, edges = random_tree(n, rng)
    parent = {v: u for u, v in edges}
    below = {v: {v} for v in vs}
    for v in reversed(vs[1:]):          # children have larger indices
        below[parent[v]] |= below[v]
    walls = [(sorted(below[v]), sorted(set(vs) - below[v])) for v in vs[1:]]
    order = list(vs)
    rng.shuffle(order)
    return order, walls, n, n - 1


def nested_walls(n: int):
    """n collinear points cut at each gap; the cubulation is a path."""
    pts = [f"n{i}" for i in range(n)]
    return pts, [(pts[:i], pts[i:]) for i in range(1, n)], n, n - 1


def walls_json(points, walls) -> dict:
    """The trivial wall is listed explicitly, as the format expects."""
    return {"points": list(points),
            "walls": [[[], list(points)]] + [[list(a), list(b)] for a, b in walls]}


# -- point clouds and actions ------------------------------------------------


def cloud_json(n: int, dim: int, rng: random.Random) -> dict:
    return {"points": [[rng.uniform(-10.0, 10.0) for _ in range(dim)] for _ in range(n)],
            "norm": "euclidean"}


def hypercube_action(k: int, rng: random.Random):
    """Generators of Q_k's automorphisms as point maps: flip one coordinate,
    and swap two coordinates.  Both are isometries of the cube metric and
    permute its coordinate walls."""
    vs = hypercube(k)[0]
    bit = rng.randrange(k)
    a, b = rng.sample(range(k), 2)

    def swap(v: str) -> str:
        s = list(v)
        s[a], s[b] = s[b], s[a]
        return "".join(s)

    flip = {v: format(int(v, 2) ^ (1 << bit), f"0{k}b") for v in vs}
    return {"flip": flip, "swap": {v: swap(v) for v in vs}}


def cube_walls(k: int):
    vs = hypercube(k)[0]
    return vs, [([v for v in vs if v[t] == "0"], [v for v in vs if v[t] == "1"])
                for t in range(k)]
