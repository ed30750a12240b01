"""Deterministic instance generators used by tests, the CLI, and the
acceptance suite.  Every instance carries its expected verdicts so
regression runs can compare against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .algebra import IntervalStructure
from .errors import InputError
from .graphs import SimpleGraph
from .walls import WallSpace


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    kind: str                   # "graph" | "walls" | "intervals"
    payload: object
    expected: dict = field(default_factory=dict)


def path_graph(n: int) -> SimpleGraph:
    if n < 1:
        raise InputError("path needs >= 1 vertex")
    vs = [f"v{i}" for i in range(n)]
    return SimpleGraph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise InputError("cycle needs >= 3 vertices")
    vs = [f"v{i}" for i in range(n)]
    return SimpleGraph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def hypercube_graph(k: int) -> SimpleGraph:
    vs = [format(x, f"0{max(k, 1)}b") for x in range(1 << k)]
    edges = []
    for x in range(1 << k):
        for b in range(k):
            y = x ^ (1 << b)
            if y > x:
                edges.append((vs[x], vs[y]))
    return SimpleGraph(vs, edges)


def grid_graph(rows: int, cols: int) -> SimpleGraph:
    vs = [f"{r},{c}" for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                edges.append((f"{r},{c}", f"{r + 1},{c}"))
            if c + 1 < cols:
                edges.append((f"{r},{c}", f"{r},{c + 1}"))
    return SimpleGraph(vs, edges)


def complete_bipartite_graph(m: int, k: int) -> SimpleGraph:
    left = [f"a{i}" for i in range(m)]
    right = [f"b{i}" for i in range(k)]
    return SimpleGraph(left + right, [(a, b) for a in left for b in right])


def random_tree(n: int, seed: int) -> SimpleGraph:
    """Random attachment tree; deterministic for a given seed."""
    if n < 1:
        raise InputError("tree needs >= 1 vertex")
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(n)]
    edges = [(vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    return SimpleGraph(vs, edges)


def star_graph(leaves: int) -> SimpleGraph:
    vs = ["c"] + [f"l{i}" for i in range(leaves)]
    return SimpleGraph(vs, [("c", v) for v in vs[1:]])


def asymmetric_interval_fixture() -> IntervalStructure:
    """Three points whose interval map satisfies every axiom except
    symmetry; the gate for validation-first construction."""
    x, y, z = "x", "y", "z"
    table = {
        (x, x): {x}, (y, y): {y}, (z, z): {z},
        (y, z): {y, z}, (z, y): {y, z},
        (x, y): {x, y, z}, (y, x): {x, y},
        (x, z): {x, y, z}, (z, x): {x, z},
    }
    return IntervalStructure([x, y, z], table)


def nested_wall_space(n: int) -> WallSpace:
    """n collinear points with all n-1 separating cuts; cubulates to a path."""
    pts = [f"p{i}" for i in range(n)]
    walls = [(pts[:i], pts[i:]) for i in range(1, n)]
    return WallSpace(pts, walls)


def random_wall_space(seed: int, max_points: int = 8,
                      max_walls: int = 10) -> WallSpace:
    """Seeded wall space: the edge cuts of a random tree (which separate
    every pair) plus a few random crossing cuts, truncated to the cap."""
    rng = random.Random(seed)
    n = rng.randint(4, max_points)
    tree = random_tree(n, rng.randrange(1 << 30))
    pts = list(tree.vertices)
    adj = {v: set(tree.neighbors(v)) for v in pts}
    walls: list[tuple[list, list]] = []
    for u, v in tree.edges:
        # component of u after removing the edge uv
        seen = {u}
        stack = [u]
        while stack:
            w = stack.pop()
            for t in adj[w]:
                if t not in seen and not (w == u and t == v) and not (w == v and t == u):
                    seen.add(t)
                    stack.append(t)
        side = [p for p in pts if p in seen]
        walls.append((side, [p for p in pts if p not in seen]))
    extras = rng.randint(0, 3)
    for _ in range(extras):
        size = rng.randint(1, n - 1)
        side = rng.sample(pts, size)
        walls.append((side, [p for p in pts if p not in side]))
    return WallSpace(pts, walls[:max_walls])


def graph_instances() -> list[CorpusInstance]:
    out = [
        CorpusInstance("path2", "graph", path_graph(2), {"classify": "median"}),
        CorpusInstance("path3", "graph", path_graph(3), {"classify": "median"}),
        CorpusInstance("path4", "graph", path_graph(4), {"classify": "median"}),
        CorpusInstance("path6", "graph", path_graph(6), {"classify": "median"}),
        CorpusInstance("cycle4", "graph", cycle_graph(4), {"classify": "median"}),
        CorpusInstance("cycle6", "graph", cycle_graph(6), {"classify": "neither"}),
        CorpusInstance("star3", "graph", star_graph(3), {"classify": "median"}),
        CorpusInstance("cube2", "graph", hypercube_graph(2), {"classify": "median"}),
        CorpusInstance("cube3", "graph", hypercube_graph(3), {"classify": "median"}),
        CorpusInstance("grid3x3", "graph", grid_graph(3, 3), {"classify": "median"}),
        CorpusInstance("k23", "graph", complete_bipartite_graph(2, 3),
                       {"classify": "modular"}),
        CorpusInstance("tree12", "graph", random_tree(12, 7), {"classify": "median"}),
        CorpusInstance("tree15", "graph", random_tree(15, 11), {"classify": "median"}),
        CorpusInstance("tree50", "graph", random_tree(50, 13), {"classify": "median"}),
    ]
    return out


def median_graph_instances() -> list[CorpusInstance]:
    return [c for c in graph_instances() if c.expected.get("classify") == "median"]


def wall_instances(seed: int = 0) -> list[CorpusInstance]:
    out = [CorpusInstance("wallsnested4", "walls", nested_wall_space(4), {}),
           CorpusInstance("wallsnested5", "walls", nested_wall_space(5), {})]
    for k in range(6):
        out.append(CorpusInstance(f"wallsrandom{k}", "walls",
                                  random_wall_space(seed * 1000 + 101 + k), {}))
    return out


def interval_instances() -> list[CorpusInstance]:
    return [CorpusInstance(
        "asymmetric3", "intervals", asymmetric_interval_fixture(),
        {"axioms": {"idempotence": True, "symmetry": False,
                    "nesting": True, "unique_median": True}})]


def default_roster(seed: int = 0) -> list[CorpusInstance]:
    return graph_instances() + wall_instances(seed) + interval_instances()


def generate_corpus(names=None, seed: int = 0, out_dir: str = ".") -> list:
    """Write the named instances (default: the full roster) as JSON files
    with their expected verdicts embedded; deterministic per seed."""
    from pathlib import Path

    from . import formats

    roster = default_roster(seed)
    if names is not None:
        known = {inst.name for inst in roster}
        stray = [n for n in names if n not in known]
        if stray:
            raise InputError(f"unknown corpus instance names: {stray}")
        roster = [inst for inst in roster if inst.name in set(names)]
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create {out}: {exc}") from None
    written = []
    for inst in roster:
        if inst.kind == "graph":
            text = formats.graph_text(inst.payload, inst.expected)
        elif inst.kind == "walls":
            text = formats.dumps(formats.walls_to_json(inst.payload, inst.expected))
        elif inst.kind == "intervals":
            text = formats.dumps(formats.interval_structure_to_json(inst.payload, inst.expected))
        else:
            raise InputError(f"cannot serialize corpus kind {inst.kind!r}")
        path = out / f"{inst.name}.json"
        formats.write_text(path, text)
        written.append(path)
    return written
