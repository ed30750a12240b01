"""Per-layer spans recorded from outside the program.

A traced pass wraps public mediankit calls in spans for its duration and
restores them afterwards.  Each op opens a parent span; every span records
its name, op id, parent, start and end, and a span's self time is its
duration minus that of the probe spans directly inside it.  Counters are
read from the values the wrapped calls return.

``LAYER_METRICS`` is the list of per-layer metrics, with the end-to-end
metric and workload each is expected to move.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

from mediankit import actions, algebra, convexity, embedding, formats, graphs, metric, walls

GC = "graph-certify"
ND = "negdef-embed"
CW = "cubulate-walls"
SE = "small-exact"

SUBCOMMANDS = ("classify", "certify-graph", "cubulate", "fill-cubes", "certify-negdef",
               "certify-hypermetric", "embed", "helly", "displace", "circumcenter", "corpus")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str          # "computed-*" marks a count derived from input sizes
    better: str
    moves: str         # the end-to-end metric and workload it should move


LAYER_METRICS = [
    *[LayerMetric(f"cli.{sub}_s", "s", "lower", f"op_ms.p50 on {SE}") for sub in SUBCOMMANDS],
    LayerMetric("cli.self_s", "s", "lower", f"op_ms.p50 on {SE} (cli.main minus library spans)"),
    LayerMetric("formats.load_s", "s", "lower", f"op_ms.p50 on {SE}"),
    LayerMetric("formats.dumps_s", "s", "lower", f"op_ms.p50 on {SE}"),
    LayerMetric("metric.FiniteMetric_s", "s", "lower", f"wall_s, op_ms.p90 on {GC}; some of {ND}"),
    LayerMetric("metric.between_s", "s", "lower", f"wall_s, op_ms.p90 on {GC}"),
    LayerMetric("metric.classify_s", "s", "lower", f"wall_s, op_ms.p90 on {GC}"),
    LayerMetric("metric.classify.triples", "computed-count", "lower", f"wall_s on {GC}"),
    LayerMetric("metric.MedianMetric.certify_s", "s", "lower", f"wall_s, op_ms.p90 on {GC}"),
    LayerMetric("graphs.path_metric_s", "s", "lower", f"op_ms.p90 on {GC}"),
    LayerMetric("graphs.certify_median_graph_s", "s", "lower",
                f"op_ms.p90 on {GC}, {CW}; op_ms.p50 on {SE}"),
    LayerMetric("graphs.certify_median_graph.self_s", "s", "lower",
       f"op_ms.p90 on {GC}, {CW}; op_ms.p50 on {SE} (minus path_metric, MedianMetric.certify)"),
    LayerMetric("graphs.walls", "count", "lower", f"op_ms.p90 on {GC}"),
    LayerMetric("graphs.vertices", "count", "lower", f"op_ms.p90 on {GC}"),
    LayerMetric("graphs.halfspace_exhaustive", "count", "lower", f"op_ms.p50 on {SE}"),
    LayerMetric("graphs.halfspace_hit_ratio", "computed-ratio", "higher",
       f"op_ms.p50 on {SE} (walls / 2^(n-1) sides scanned)"),
    LayerMetric("graphs.fill_cubes_s", "s", "lower", f"small share of wall_s on {GC}"),
    LayerMetric("embedding.l1_embed_s", "s", "lower", f"small share of wall_s on {GC}"),
    LayerMetric("walls.cubulate_s", "s", "lower", f"wall_s on {CW}"),
    LayerMetric("walls.cubulate.self_s", "s", "lower",
                f"wall_s on {CW} (minus certify_median_graph)"),
    LayerMetric("walls.vertices", "count", "lower", f"wall_s on {CW}"),
    LayerMetric("walls.walls", "count", "lower", f"wall_s on {CW}"),
    *[LayerMetric(f"walls.{check}.{mode}", "count", "lower", f"wall_s on {CW}")
      for check, modes in (("median_closure", ("checked", "skipped")),
                           ("wall_bijection", ("certified", "structural")),
                           ("distance_vs_hamming", ("exhaustive", "sampled")))
      for mode in modes],
    LayerMetric("walls.flip_accept_ratio", "computed-ratio", "higher",
       f"wall_s on {CW} ((vertices - principal orientations) / (vertices x walls))"),
    LayerMetric("embedding.certify_negative_definite_s", "s", "lower",
                f"wall_s, op_ms.p90 on {ND}"),
    LayerMetric("embedding.negdef.pivots", "count", "lower", f"wall_s on {ND}"),
    LayerMetric("embedding.gns_embed_s", "s", "lower",
       f"wall_s, op_ms.p90 on {ND} (timed with the certificate passed in)"),
    LayerMetric("embedding.check_helly_s", "s", "lower", f"op_ms.p90 on {SE}"),
    LayerMetric("embedding.check_helly.convex_sets", "count", "lower", f"op_ms.p90 on {SE}"),
    LayerMetric("embedding.certify_hypermetric_s", "s", "lower", f"op_ms.p90 on {SE}"),
    LayerMetric("embedding.certify_hypermetric.vectors_checked", "count", "lower",
                f"op_ms.p90 on {SE}"),
    LayerMetric("embedding.certify_hypermetric.admissible_ratio", "computed-ratio", "higher",
       f"op_ms.p90 on {SE} (vectors_checked / (2b+1)^n)"),
    LayerMetric("embedding.retraction_decomposition_s", "s", "lower", f"op_ms.p90 on {SE}"),
    LayerMetric("algebra.validate_axioms_s", "s", "lower", f"op_ms.p90 on {SE}"),
    LayerMetric("algebra.halfspaces_s", "s", "lower", f"op_ms.p90 on {SE}"),
    LayerMetric("algebra.halfspaces", "count", "lower", f"op_ms.p90 on {SE}"),
    LayerMetric("convexity.circumcenter_s", "s", "lower", f"op_ms.p90 on {SE}"),
    LayerMetric("convexity.circumcenter.iterations", "count", "lower", f"op_ms.p90 on {SE}"),
    LayerMetric("actions.displacement_s", "s", "lower", f"op_ms.p90 on {SE}"),
    LayerMetric("trace.overhead_s", "s", "lower",
                "traced wall_s minus untraced wall_s, same workload"),
]

# spans whose self time is reported, and the counters behind each ratio
SELF_TIMES = {"cli": "cli.self_s",
              "graphs.certify_median_graph": "graphs.certify_median_graph.self_s",
              "walls.cubulate": "walls.cubulate.self_s"}
RATIOS = {"graphs.halfspace_hit_ratio": ("graphs.exhaustive_walls", "graphs.sides_scanned"),
          "walls.flip_accept_ratio": ("walls.flips_accepted", "walls.flips_possible"),
          "embedding.certify_hypermetric.admissible_ratio":
              ("embedding.certify_hypermetric.vectors_checked",
               "embedding.certify_hypermetric.vectors_possible")}


class Recorder:
    """Spans and counters of one traced pass, kept in memory.  Span times
    are reported at the reference speed of ``calib``, using the factor the
    runner measured around each op."""

    def __init__(self):
        self.spans: list[list] = []        # [name, op, parent, start, end]
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self.speed: dict[int, float] = {}  # op id -> factor to the reference speed

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, self.op, self.stack[-1] if self.stack else None,
                           time.perf_counter(), None])
        self.stack.append(sid)
        try:
            yield
        finally:
            self.spans[sid][4] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def totals(self) -> dict[str, float]:
        """Per-layer values of this pass: summed span times, self times of
        the spans named in SELF_TIMES, counters and ratios."""
        out: dict[str, float] = defaultdict(float)
        took = [(end - start) * self.speed.get(op, 1.0) for _, op, _, start, end in self.spans]
        child: dict[int, float] = defaultdict(float)
        for sid, (_, _, parent, _, _) in enumerate(self.spans):
            if parent is not None:
                child[parent] += took[sid]
        for sid, (name, _, _, _, _) in enumerate(self.spans):
            if name == "op":
                continue
            out[f"{name}_s"] += took[sid]
            family = name.split(".")[0] if name.startswith("cli.") else name
            if family in SELF_TIMES:
                out[SELF_TIMES[family]] += took[sid] - child[sid]
        out.update(self.counters)
        for ratio, (num, den) in RATIOS.items():
            out[ratio] = out[num] / out[den] if out[den] else 0.0
        return out


def _cert_counters(rec: Recorder, cert) -> None:
    n = len(cert.vertices)
    rec.count("graphs.walls", len(cert.walls))
    rec.count("graphs.vertices", n)
    if cert.halfspaces_exhaustively_checked:
        rec.count("graphs.halfspace_exhaustive", 1)
        rec.count("graphs.exhaustive_walls", len(cert.walls))
        rec.count("graphs.sides_scanned", 2 ** (n - 1))


def _cubulate_counters(rec: Recorder, res, space) -> None:
    nv, nw = res.vertex_count, space.wall_count
    rec.count("walls.vertices", nv)
    rec.count("walls.walls", nw)
    for check in ("median_closure", "wall_bijection", "distance_vs_hamming"):
        rec.count(f"walls.{check}.{res.checks[check]}", 1)
    rec.count("walls.flips_accepted", nv - len(set(res.embedding.values())))
    rec.count("walls.flips_possible", nv * nw)


def _hypermetric_counters(rec: Recorder, rep, m, bound=embedding.DEFAULT_HYPERMETRIC_BOUND,
                          **_) -> None:
    rec.count("embedding.certify_hypermetric.vectors_checked", rep.vectors_checked)
    rec.count("embedding.certify_hypermetric.vectors_possible", (2 * bound + 1) ** len(m.points))


# (owner, attribute, span name, counters(recorder, result, *args, **kwargs))
FUNCTIONS = [
    (formats, "load_json", "formats.load", None),
    (formats, "dumps", "formats.dumps", None),
    (metric, "classify", "metric.classify",
     lambda rec, res, m, *a, **k:
         rec.count("metric.classify.triples", math.comb(len(m.points), 3))),
    (graphs, "certify_median_graph", "graphs.certify_median_graph",
     lambda rec, res, *a, **k: _cert_counters(rec, res)),
    (graphs, "fill_cubes", "graphs.fill_cubes", None),
    (embedding, "l1_embed", "embedding.l1_embed", None),
    (walls, "cubulate", "walls.cubulate",
     lambda rec, res, w, **k: _cubulate_counters(rec, res, w)),
    (embedding, "certify_negative_definite", "embedding.certify_negative_definite",
     lambda rec, res, *a, **k: rec.count("embedding.negdef.pivots", len(res.pivots))),
    (embedding, "check_helly", "embedding.check_helly",
     lambda rec, res, *a, **k: rec.count("embedding.check_helly.convex_sets", res.convex_count)),
    (embedding, "certify_hypermetric", "embedding.certify_hypermetric",
     lambda rec, res, m, *a, **k: _hypermetric_counters(rec, res, m, *a, **k)),
    (embedding, "retraction_decomposition", "embedding.retraction_decomposition", None),
    (algebra, "validate_axioms", "algebra.validate_axioms", None),
    (convexity, "circumcenter", "convexity.circumcenter",
     lambda rec, res, *a, **k: rec.count("convexity.circumcenter.iterations", res.iterations)),
    (actions, "displacement_metric", "actions.displacement", None),
    (actions, "displacement_walls", "actions.displacement", None),
]

METHODS = [
    (metric.FiniteMetric, "__init__", "metric.FiniteMetric", None),
    (graphs.SimpleGraph, "path_metric", "graphs.path_metric", None),
    (algebra.FiniteMedianAlgebra, "halfspaces", "algebra.halfspaces",
     lambda rec, res, *a, **k: rec.count("algebra.halfspaces", len(res))),
]


def _wrap(rec: Recorder, fn, name: str, counters):
    def probe(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if counters is not None:
            counters(rec, result, *args, **kwargs)
        return result
    return probe


class Tracing:
    """Context manager: installs the probes into every loaded mediankit
    module that holds the wrapped objects, and removes them on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace(self, original, replacement) -> None:
        """Replace a function in every mediankit module that holds it,
        including the names imported with ``from x import y``."""
        for name, module in list(sys.modules.items()):
            if name == "mediankit" or name.startswith("mediankit."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, replacement)

    def __enter__(self) -> "Tracing":
        rec = self.rec
        for owner, attr, name, counters in FUNCTIONS:
            original = getattr(owner, attr)
            self._replace(original, _wrap(rec, original, name, counters))
        for cls, attr, name, counters in METHODS:
            self._set(cls, attr, _wrap(rec, cls.__dict__[attr], name, counters))

        between = metric.FiniteMetric._between

        def built_between(m):            # the span covers building the table only
            if m._betw is not None:
                return m._betw
            with rec.span("metric.between"):
                return between(m)
        self._set(metric.FiniteMetric, "_between", built_between)

        certify = metric.MedianMetric.__dict__["certify"].__func__
        self._set(metric.MedianMetric, "certify",
                  classmethod(_wrap(rec, certify, "metric.MedianMetric.certify", None)))

        gns = embedding.gns_embed

        def gns_with_certificate(m, tol=embedding.DEFAULT_GNS_TOL, certificate=None):
            # certify first, under its own span, so the gns span holds gns only
            cert = certificate or embedding.certify_negative_definite(m)
            with rec.span("embedding.gns_embed"):
                return gns(m, tol=tol, certificate=cert)
        self._replace(gns, gns_with_certificate)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


def run_traced(rec: Recorder, op, run_op):
    """Run one op under an op span, and its CLI call under a cli.<sub> span."""
    rec.op += 1
    with rec.span("op"):
        if op.argv is None:
            return run_op(op)
        with rec.span(f"cli.{op.argv[0]}"):
            return run_op(op)


def layer_values(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of each per-layer total; 0 where a layer
    did not run on this workload."""
    return {lm.name: statistics.median(p.get(lm.name, 0.0) for p in passes)
            for lm in LAYER_METRICS if lm.name != "trace.overhead_s"}

