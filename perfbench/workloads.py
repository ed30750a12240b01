"""The benchmark's workloads: seeded op lists with a check on every op.

An op is one in-process ``mediankit.cli.main([...])`` call on a JSON file
written here, or, where no subcommand exists, one public library call that
first loads its JSON file.  Each op carries the check of its outcome,
derived from what the input's construction guarantees, never from the
program's own answer.

Rung sizes are held fixed per workload and the seed draws the shapes,
labels and orders, so that every seed costs about the same and the
figures of different seeds can be compared.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import gen
# Library calls go through the module attributes, where a traced run
# wraps them in spans.
from mediankit import algebra, embedding, formats, metric


class CheckFailed(Exception):
    """An op's outcome contradicts what its input guarantees."""


@dataclass(frozen=True)
class Outcome:
    rc: int
    stdout: str
    stderr: str


@dataclass
class Op:
    label: str
    check: Callable[[Outcome], None]
    argv: list[str] | None = None          # a CLI op
    call: Callable[[], str] | None = None  # a library op; returns its outcome as text


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def report_of(out: Outcome, rc: int) -> dict:
    expect(out.rc == rc, f"exit code {out.rc}, expected {rc}; stderr: {out.stderr[:200]}")
    return json.loads(out.stdout)


class Inputs:
    """Writes a workload's input files into its own directory."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def put(self, name: str, payload) -> str:
        path = self.root / name
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text, encoding="utf-8")
        return str(path)

    def path(self, name: str) -> str:
        return str(self.root / name)


# -- graph-certify ------------------------------------------------------------


def _cube_counts(k: int) -> dict[str, int]:
    return {str(j): math.comb(k, j) * 2 ** (k - j) for j in range(1, k + 1)}


def _grid_counts(r: int, c: int) -> dict[str, int]:
    return {"1": r * (c - 1) + c * (r - 1), "2": (r - 1) * (c - 1)}


def median_graph_ops(inputs: Inputs, tag: str, graph, walls: int,
                     counts: dict[str, int]) -> list[Op]:
    """certify-graph, fill-cubes and embed --mode l1 on a median graph."""
    path = inputs.put(f"{tag}.json", gen.graph_json(graph))
    n = len(graph[0])
    dist = gen.distances(graph)

    def certified(out: Outcome) -> None:
        rep = report_of(out, 0)
        expect(rep["verdict"] == "certified", f"verdict {rep['verdict']}")
        expect(rep["walls"] == walls and rep["vertices"] == n,
               f"walls/vertices {rep['walls']}/{rep['vertices']}, expected {walls}/{n}")

    def filled(out: Outcome) -> None:
        rep = report_of(out, 0)
        expect(rep["counts"] == counts, f"cube counts {rep['counts']}, expected {counts}")
        expect(rep["dimension"] == max(map(int, counts)), "wrong cube dimension")

    def embedded(out: Outcome) -> None:
        rep = report_of(out, 0)
        expect(rep["dimension"] == walls, f"l1 dimension {rep['dimension']}")
        vec = [rep["vectors"][v] for v in graph[0]]
        for a in range(n):
            for b in range(a + 1, n):
                ham = sum(x != y for x, y in zip(vec[a], vec[b]))
                expect(ham == dist[a][b], f"Hamming {ham} != distance {dist[a][b]}")

    return [Op(f"certify-graph {tag}", certified, ["certify-graph", "--in", path]),
            Op(f"fill-cubes {tag}", filled, ["fill-cubes", "--in", path]),
            Op(f"embed-l1 {tag}", embedded, ["embed", "--mode", "l1", "--in", path])]


def rejected_graph_ops(inputs: Inputs, tag: str, graph, kind: str) -> list[Op]:
    """certify-graph and classify on a graph that is not median."""
    path = inputs.put(f"{tag}.json", gen.graph_json(graph))

    def rejected(out: Outcome) -> None:
        expect(report_of(out, 1)["verdict"] == "rejected", "non-median graph certified")

    def classified(out: Outcome) -> None:
        verdict = report_of(out, 1)["verdict"]
        expect(verdict == kind, f"classify says {verdict}, expected {kind}")

    return [Op(f"certify-graph {tag}", rejected, ["certify-graph", "--in", path]),
            Op(f"classify {tag}", classified, ["classify", "--in", path])]


def graph_certify(rng: random.Random, inputs: Inputs, small: bool) -> list[Op]:
    if small:
        grids, tree_n, cubes, cyc, bip = [(3, 4)], 10, [3], 8, (3, 3)
    else:
        m = rng.randint(5, 10)
        grids, tree_n, cubes, cyc, bip = [(8, 8)], 64, [5, 6], 60, (m, 60 - m)
    ops = []
    for r, c in grids:
        ops += median_graph_ops(inputs, f"grid{r}x{c}", gen.shuffled(gen.grid(r, c), rng),
                                r + c - 2, _grid_counts(r, c))
    if not small:
        # One op on 100 vertices, under a tenth of the ops: both percentiles
        # then fall inside the cluster of the three 64-vertex rungs, never in
        # a gap between sizes.
        ops += median_graph_ops(inputs, "grid10x10", gen.shuffled(gen.grid(10, 10), rng),
                                18, _grid_counts(10, 10))[:1]
    ops += median_graph_ops(inputs, f"tree{tree_n}",
                            gen.shuffled(gen.random_tree(tree_n, rng), rng),
                            tree_n - 1, {"1": tree_n - 1})
    for k in cubes:
        ops += median_graph_ops(inputs, f"cube{k}", gen.shuffled(gen.hypercube(k), rng),
                                k, _cube_counts(k))
    # even cycles of length >= 6 have a triple whose intervals share no point
    ops += rejected_graph_ops(inputs, f"cycle{cyc}", gen.shuffled(gen.cycle(cyc), rng),
                              "neither")
    # K_{m,n} with m, n >= 3 is modular: three vertices of one side share the other side
    ops += rejected_graph_ops(inputs, f"k{bip[0]}_{bip[1]}",
                              gen.shuffled(gen.complete_bipartite(*bip), rng), "modular")
    return ops


# -- negdef-embed ---------------------------------------------------------------


def negative_type_ops(inputs: Inputs, tag: str, points, dist) -> list[Op]:
    """certify-negdef and embed --mode gns on a metric of negative type."""
    if gen.min_centered_eigenvalue(dist) < -1e-9:
        raise ValueError(f"{tag}: construction is not of negative type")
    path = inputs.put(f"{tag}.json", gen.metric_json(points, dist))
    n = len(points)

    def certified(out: Outcome) -> None:
        rep = report_of(out, 0)
        expect(rep["verdict"] == "negative-definite" and rep["witness"] is None,
               f"verdict {rep['verdict']}")
        pivots = [Fraction(p) for p in rep["pivots"]]
        expect(len(pivots) == n and min(pivots) >= 0, "pivots are not n non-negatives")

    def embedded(out: Outcome) -> None:
        rep = report_of(out, 0)
        expect(rep["max_error"] <= 1e-9, f"max_error {rep['max_error']}")
        expect(rep["dimension"] <= n - 1, f"dimension {rep['dimension']} > n-1")
        coords = [rep["coordinates"][p] for p in points]
        for a in range(n):
            for b in range(a + 1, n):
                sq = sum((x - y) ** 2 for x, y in zip(coords[a], coords[b]))
                want = float(dist[a][b])
                expect(abs(sq - want) <= 1e-6 * max(1.0, want),
                       f"squared distance {sq} != {want}")

    return [Op(f"certify-negdef {tag}", certified, ["certify-negdef", "--in", path]),
            Op(f"embed-gns {tag}", embedded, ["embed", "--mode", "gns", "--in", path])]


def indefinite_op(inputs: Inputs, tag: str, points, dist) -> Op:
    """certify-negdef on a metric a float eigenvalue check put clearly
    outside negative type; the witness is re-evaluated here exactly."""
    path = inputs.put(f"{tag}.json", gen.metric_json(points, dist))

    def refuted(out: Outcome) -> None:
        rep = report_of(out, 1)
        expect(rep["verdict"] == "indefinite", f"verdict {rep['verdict']}")
        coeffs = [Fraction(a) for a in rep["witness"]["coefficients"]]
        expect(sum(coeffs) == 0, "witness does not sum to zero")
        value = gen.distance_form(dist, coeffs)
        expect(value > 0 and value == Fraction(rep["witness"]["form_value"]),
               f"witness form value {value} vs reported {rep['witness']['form_value']}")

    return Op(f"certify-negdef {tag}", refuted, ["certify-negdef", "--in", path])


def negdef_embed(rng: random.Random, inputs: Inputs, small: bool) -> list[Op]:
    if small:
        l1, trees, controls = [(8, 3, 4)], [8], [10]
    else:
        # clusters of near-equal cost around op_ms.p50 (l1-32, wtree-30) and
        # op_ms.p90 (l1-40, onetwo-48)
        l1, trees, controls = [(24, 3, 6), (32, 3, 7), (40, 4, 6)], [24, 30], [48, 48]
    ops = []
    for n, dim, span in l1:
        ops += negative_type_ops(inputs, f"l1-{n}", *gen.l1_metric(n, dim, span, rng))
    for n in trees:
        ops += negative_type_ops(inputs, f"wtree-{n}", *gen.weighted_tree_metric(n, rng))
    for k, n in enumerate(controls):
        ops.append(indefinite_op(inputs, f"onetwo{k}-{n}", *gen.indefinite_one_two_metric(n, rng)))
    return ops


# -- cubulate-walls -------------------------------------------------------------


def cubulate_op(inputs: Inputs, tag: str, space) -> Op:
    points, walls, vertices, edges = space
    path = inputs.put(f"{tag}.json", gen.walls_json(points, walls))
    out_path = inputs.path(f"{tag}.graph.json")
    sides = [set(a) for a, _ in walls]

    def cubulated(out: Outcome) -> None:
        rep = report_of(out, 0)
        expect((rep["vertices"], rep["edges"], rep["walls"]) == (vertices, edges, len(walls)),
               f"vertices/edges/walls {rep['vertices']}/{rep['edges']}/{rep['walls']}, "
               f"expected {vertices}/{edges}/{len(walls)}")
        emb = rep["embedding"]
        for p, q in itertools.combinations(points, 2):
            separating = sum((p in s) != (q in s) for s in sides)
            ham = sum(x != y for x, y in zip(emb[p], emb[q]))
            expect(ham == separating, f"embedding of {p},{q} is not isometric")
        graph = json.loads(Path(out_path).read_text(encoding="utf-8"))
        expect(len(graph["vertices"]) == vertices and len(graph["edges"]) == edges,
               "written graph has the wrong size")
        expect(all(sum(x != y for x, y in zip(u, v)) == 1 for u, v in graph["edges"]),
               "a written edge joins orientations that differ on more than one wall")

    return Op(f"cubulate {tag}", cubulated, ["cubulate", "--in", path, "--out", out_path])


def cubulate_walls(rng: random.Random, inputs: Inputs, small: bool) -> list[Op]:
    # cubulate picks its checks by vertex count: <= 300 certifies the median
    # graph, 301-600 runs the median-closure fixpoint, > 600 only structural
    # checks.  Each box sits near the cheap end of its regime.  The rungs
    # form clusters of near-equal cost: five boxes of about 60 vertices hold
    # op_ms.p50, four boxes above 600 vertices hold op_ms.p90.
    if small:
        trees, boxes = [6], [(2, 3), (3, 4)]
    else:
        trees = [8, 12, 20, 24]
        boxes = [(2, 3, 4), (3, 4, 5), (4, 4, 4), (2, 5, 6), (3, 3, 7), (2, 4, 8),  # <= 300
                 (4, 4, 4, 5),                                                  # 301-600
                 (5, 5, 5, 5), (7, 9, 10), (4, 4, 5, 8), (3, 6, 6, 6)]           # > 600
    ops = [cubulate_op(inputs, f"tree{n}", gen.tree_walls(n, rng)) for n in trees]
    ops += [cubulate_op(inputs, "box" + "x".join(map(str, dims)), gen.box_walls(dims, rng))
            for dims in boxes]
    return ops


# -- small-exact ----------------------------------------------------------------


def intervals_json(graph) -> dict:
    vs = graph[0]
    dist = gen.distances(graph)
    n = len(vs)
    return {"points": list(vs),
            "intervals": {f"{vs[i]},{vs[j]}": [vs[t] for t in range(n)
                                               if dist[i][t] + dist[t][j] == dist[i][j]]
                          for i in range(n) for j in range(n)}}


def _admissible(n: int, bound: int) -> int:
    """Vectors in [-bound, bound]^n summing to 1, counted by convolution."""
    ways = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for s, w in ways.items():
            for t in range(-bound, bound + 1):
                nxt[s + t] = nxt.get(s + t, 0) + w
        ways = nxt
    return ways.get(1, 0)


def small_exact(rng: random.Random, inputs: Inputs, small: bool) -> list[Op]:
    big = 12 if small else 16          # certify-graph scans all 2^(n-1) sides up to 16
    ops: list[Op] = []

    cert_graphs = [("grid4x4", gen.grid(4, 4), 6), ("cube4", gen.hypercube(4), 4),
                   (f"tree{big}", gen.random_tree(big, rng), big - 1),
                   ("grid3x4", gen.grid(3, 4), 5), ("tree12", gen.random_tree(12, rng), 11)]
    if small:
        cert_graphs = cert_graphs[3:]
    for tag, graph, walls in cert_graphs:
        graph = gen.shuffled(graph, rng)
        path = inputs.put(f"{tag}.json", gen.graph_json(graph))

        def certified(out: Outcome, walls=walls, n=len(graph[0])) -> None:
            rep = report_of(out, 0)
            expect((rep["verdict"], rep["walls"], rep["vertices"]) == ("certified", walls, n),
                   f"certify-graph gave {rep['verdict']} {rep.get('walls')}")
        ops.append(Op(f"certify-graph {tag}", certified, ["certify-graph", "--in", path]))

    def verdict_is(rc: int, key: str, value) -> Callable[[Outcome], None]:
        def check(out: Outcome) -> None:
            rep = report_of(out, rc)
            expect(rep[key] == value, f"{key} is {rep[key]!r}, expected {value!r}")
        return check

    # classify and helly on metric files; Helly holds exactly on modular
    # metrics.  No random trees here: the number of convex sets, which the
    # Helly scan visits, varies widely between them.
    metrics = [("grid3x4", gen.grid(3, 4), "median"), ("grid2x5", gen.grid(2, 5), "median"),
               ("k3_3", gen.complete_bipartite(3, 3), "modular"),
               ("cycle6", gen.cycle(6), "neither")]
    for tag, graph, kind in metrics:
        path = inputs.put(f"m-{tag}.json", gen.graph_metric_json(gen.shuffled(graph, rng)))
        ops.append(Op(f"classify {tag}", verdict_is(0 if kind == "median" else 1, "verdict", kind),
                      ["classify", "--in", path]))
        holds = kind != "neither"
        ops.append(Op(f"helly {tag}", verdict_is(0 if holds else 1, "verdict",
                                                 "holds" if holds else "fails"),
                      ["helly", "--in", path]))

    # median-graph metrics embed in l1, so they are hypermetric; K_{2,3}
    # violates the pentagonal inequality
    for tag, graph, bound, holds in [("grid2x5", gen.grid(2, 5), 1, True),
                                     ("tree8", gen.random_tree(8, rng), 2, True),
                                     ("k2_3", gen.complete_bipartite(2, 3), 2, False)]:
        graph = gen.shuffled(graph, rng)
        dist = gen.distances(graph)
        path = inputs.put(f"h-{tag}.json", gen.metric_json(graph[0], dist))

        def hyper(out: Outcome, dist=dist, bound=bound, holds=holds) -> None:
            rep = report_of(out, 0 if holds else 1)
            value = gen.distance_form(dist, rep["argmax"])
            expect(value == Fraction(rep["max_value"]) and (value <= 0) == holds,
                   f"hypermetric max {rep['max_value']} (recomputed {value})")
            expect(rep["vectors_checked"] == _admissible(len(dist), bound),
                   f"{rep['vectors_checked']} vectors checked")
        ops.append(Op(f"certify-hypermetric {tag}", hyper,
                      ["certify-hypermetric", "--in", path, "--bound", str(bound)]))

    # displacement on Q4: its automorphisms act on the metric and on the walls
    cube = gen.hypercube(4)
    gens = gen.hypercube_action(4, rng)
    base = rng.choice(cube[0])
    word = [rng.choice(sorted(gens)) for _ in range(3)]
    image = base
    for g in word:
        image = gens[g][image]
    moved = sum(x != y for x, y in zip(base, image))
    action = inputs.put("action.json", {"generators": gens, "basepoint": base})
    metric_path = inputs.put("cube4-metric.json", gen.graph_metric_json(cube))
    walls_path = inputs.put("cube4-walls.json", gen.walls_json(*gen.cube_walls(4)))

    def displaced_metric(out: Outcome) -> None:
        rep = report_of(out, 0)
        expect(rep["image"] == image and Fraction(rep["distance"]) == moved,
               f"displacement {rep['distance']} to {rep['image']}")
        expect(abs(rep["embedded_sq"] - moved) <= 1e-6, "embedded displacement off")

    def displaced_walls(out: Outcome) -> None:
        rep = report_of(out, 0)
        expect((rep["image"], rep["wall_distance"], rep["sigma_symdiff"]) ==
               (image, moved, 2 * moved), "wall displacement off")

    for space, check in [(metric_path, displaced_metric), (walls_path, displaced_walls)]:
        ops.append(Op(f"displace {Path(space).stem}", check,
                      ["displace", "--action", action, "--in", space, "--word", " ".join(word)]))

    for n, dim in [(30, 2), (60, 3)]:
        cloud = gen.cloud_json(n, dim, rng)
        path = inputs.put(f"cloud{n}.json", cloud)

        def enclosed(out: Outcome, pts=cloud["points"]) -> None:
            rep = report_of(out, 0)
            far = max(math.dist(rep["center"], p) for p in pts)
            expect(abs(far - rep["radius"]) <= 1e-7 * max(1.0, far),
                   f"radius {rep['radius']} but farthest point at {far}")
            # the ball is the smallest one iff its center lies in the convex
            # hull of the points on its sphere
            rim = np.array([p for p in pts if math.dist(rep["center"], p) >= far * (1 - 1e-7)])
            lhs = np.vstack([rim.T, np.ones(len(rim))])
            rhs = np.append(rep["center"], 1.0)
            weights = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
            expect(np.allclose(lhs @ weights, rhs, atol=1e-6) and weights.min() >= -1e-6,
                   "center is outside the hull of the points on the sphere")
        ops.append(Op(f"circumcenter cloud{n}", enclosed,
                      ["circumcenter", "--in", path, "--seed", str(rng.randrange(100))]))

    def corpus_written(out: Outcome) -> None:
        files = report_of(out, 0)["files"]
        expect(files and all(isinstance(json.loads(Path(f).read_text(encoding="utf-8")), dict)
                             for f in files), "corpus wrote no readable files")
    ops.append(Op("corpus", corpus_written, ["corpus", "--out-dir", inputs.path("corpus"),
                                             "--seed", str(rng.randrange(100))]))

    ops += library_ops(rng, inputs, big)
    return ops


def library_ops(rng: random.Random, inputs: Inputs, big: int) -> list[Op]:
    """Public calls that no subcommand reaches, each loading its JSON file."""
    ops = []
    rows = 4 if big == 16 else 3
    median = gen.shuffled(gen.grid(rows, 4), rng)
    tree = gen.shuffled(gen.random_tree(big, rng), rng)
    median_path = inputs.put("median-intervals.json", intervals_json(median))
    cycle_path = inputs.put("cycle-intervals.json",
                            intervals_json(gen.shuffled(gen.cycle(6), rng)))

    def axioms(path: str) -> Callable[[], str]:
        def call() -> str:
            s = formats.interval_structure_from_json(formats.load_json(path))
            return json.dumps(algebra.validate_axioms(s).as_dict(), sort_keys=True)
        return call

    def axioms_hold(fails: set[str]) -> Callable[[Outcome], None]:
        def check(out: Outcome) -> None:
            got = {k for k, v in json.loads(out.stdout).items() if not v["passed"]}
            expect(got == fails, f"failing axioms {sorted(got)}, expected {sorted(fails)}")
        return check

    ops.append(Op("validate_axioms median", axioms_hold(set()), call=axioms(median_path)))
    ops.append(Op("validate_axioms cycle6", axioms_hold({"unique_median"}),
                  call=axioms(cycle_path)))

    for tag, graph, walls in [("median", median, rows + 4 - 2), ("tree", tree, big - 1)]:
        path = inputs.put(f"{tag}-halfspace-intervals.json", intervals_json(graph))

        def halfspaces(path=path) -> str:
            s = formats.interval_structure_from_json(formats.load_json(path))
            hs = algebra.FiniteMedianAlgebra.promote(s).halfspaces()
            return json.dumps([sorted(h.side) for h in hs])

        def one_per_wall(out: Outcome, walls=walls, n=len(graph[0])) -> None:
            sides = json.loads(out.stdout)
            expect(len(sides) == walls + 1, f"{len(sides)} halfspaces for {walls} walls")
            expect(sum(len(s) == n for s in sides) == 1, "trivial halfspace missing")
        ops.append(Op(f"halfspaces {tag}", one_per_wall, call=halfspaces))

    # a grid, not a random tree: the peeling's cost varies with a tree's shape
    dist = gen.distances(median)
    path = inputs.put("median-metric.json", gen.metric_json(median[0], dist))
    coeffs = [rng.randint(-3, 3) for _ in median[0]]
    coeffs[-1] -= sum(coeffs)

    def decompose() -> str:
        mm = metric.MedianMetric.certify(formats.metric_from_json(formats.load_json(path)))
        trace = embedding.retraction_decomposition(mm)
        value = trace.form_value_via_trace(dict(zip(median[0], coeffs)))
        return json.dumps({"steps": len(trace.steps), "form_value": str(value)})

    def reassembled(out: Outcome) -> None:
        rep = json.loads(out.stdout)
        want = gen.distance_form(dist, coeffs)
        expect(Fraction(rep["form_value"]) == want,
               f"trace reassembles {rep['form_value']}, direct form is {want}")
        expect(rep["steps"] == rows + 4 - 2, f"{rep['steps']} peeling steps, one per wall")
    ops.append(Op("retraction_decomposition median", reassembled, call=decompose))
    return ops


# -- error paths ----------------------------------------------------------------


def error_exit(codes: tuple[int, ...]) -> Callable[[Outcome], None]:
    """Exit with one of the codes and one JSON error object on stderr."""
    def check(out: Outcome) -> None:
        expect(out.rc in codes, f"exit code {out.rc}, expected one of {codes}")
        err = json.loads(out.stderr)
        expect(isinstance(err, dict) and "error" in err, "stderr is not a JSON error")
    return check


def errors(rng: random.Random, inputs: Inputs, small: bool) -> list[Op]:
    """User-reachable bad inputs and cap overruns.  Each must end in a defined
    way: exit 2 (input) or 3 (cap) with a JSON error, or, where the input
    has a valid answer, that answer."""
    c6 = inputs.put("c6.json", gen.graph_json(gen.shuffled(gen.cycle(6), rng)))

    def l1_refused(out: Outcome) -> None:
        if out.rc == 1:
            expect(json.loads(out.stdout)["verdict"] == "rejected", "C6 not rejected")
        else:
            error_exit((2,))(out)

    ragged = inputs.put("ragged.json", {"points": [[0.0, 0.0], [1.0]], "norm": "euclidean"})
    pts, walls, vertices, _ = gen.nested_walls(66)
    nested = inputs.put("nested65.json", gen.walls_json(pts, walls))

    def nested_done(out: Outcome) -> None:
        if out.rc == 0:
            rep = json.loads(out.stdout)
            expect((rep["vertices"], rep["walls"]) == (vertices, 65), "wrong cubulation")
        else:
            error_exit((3,))(out)

    tree = inputs.put("tree30-walls.json", gen.walls_json(*gen.tree_walls(31, rng)[:2]))
    thirteen = inputs.put("path13.json", gen.graph_metric_json(gen.random_tree(13, rng)))
    listed = inputs.put("list-ids.json", {"vertices": [["a"], ["b"]], "edges": [[["a"], ["b"]]]})
    split = inputs.put("split.json", {"vertices": ["a", "b", "c"], "edges": [["a", "b"]]})
    floats = inputs.put("floats.json", {"points": ["a", "b"], "dist": [[0, 1.5], [1.5, 0]]})
    broken = inputs.put("broken.json", '{"points": [')
    return [
        Op("embed-l1 cycle6", l1_refused, ["embed", "--mode", "l1", "--in", c6]),
        Op("circumcenter ragged", error_exit((2,)), ["circumcenter", "--in", ragged]),
        Op("cubulate nested65", nested_done,
           ["cubulate", "--in", nested, "--max-walls", "80"]),
        Op("certify-graph list-ids", error_exit((2,)), ["certify-graph", "--in", listed]),
        Op("certify-graph disconnected", error_exit((2,)), ["certify-graph", "--in", split]),
        Op("certify-negdef floats", error_exit((2,)), ["certify-negdef", "--in", floats]),
        Op("classify broken-json", error_exit((2,)), ["classify", "--in", broken]),
        Op("cubulate tree30", error_exit((3,)), ["cubulate", "--in", tree]),
        Op("helly tree13", error_exit((3,)), ["helly", "--in", thirteen]),
    ]


WORKLOADS: dict[str, Callable[[random.Random, Inputs, bool], list[Op]]] = {
    "graph-certify": graph_certify,
    "negdef-embed": negdef_embed,
    "cubulate-walls": cubulate_walls,
    "small-exact": small_exact,
    "errors": errors,
}


def build(workload: str, seed: int, root: Path, small: bool = False) -> list[Op]:
    """The workload's op list for this seed, with its input files under root."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, Inputs(root), small)
    if len({op.label for op in ops}) != len(ops):
        raise ValueError(f"{workload}: op labels must be unique")
    return ops
