"""Command-line front-end.

Exit codes: 0 when the verdict is positive or matches a supplied
expectation, 1 on negative verdicts, 2 on input errors, 3 when a resource
cap is hit, 4 when a theorem-backed internal check fails (a bug, never an
answer).  A usage error (a missing or unknown subcommand or option, an
option value argparse rejects) is an input error: one JSON error on
stderr and exit 2; ``-h`` prints help and exits 0.  A known subcommand's
arguments are parsed by that subcommand's parser alone.  Reports are
JSON, byte-stable for fixed inputs and seeds; timings appear only under
--timings.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import warnings

from . import corpus as corpus_mod
from . import formats
from .actions import MetricAction, WallAction, displacement_metric, displacement_walls
from .convexity import circumcenter
from .embedding import (DEFAULT_GNS_TOL, DEFAULT_HELLY_CAP, DEFAULT_HYPERMETRIC_BOUND,
                        certify_hypermetric, certify_negative_definite, check_helly,
                        gns_embed, l1_embed)
from .errors import InputError, InternalCheckError, NotMedianError, ResourceLimitError
from .graphs import certify_median_graph, fill_cubes
from .metric import Classification, classify
from .walls import DEFAULT_WALL_CAP, cubulate

CLASSIFY_KINDS = ("median", "modular", "neither")


def _metric_payload(data: dict):
    kind = formats.detect_payload(data)
    if kind == "metric":
        return formats.metric_from_json(data)
    if kind == "graph":
        return formats.graph_from_json(data).path_metric()
    raise InputError(f"expected a metric or graph payload, found {kind!r}")


def _witness(c) -> dict | None:
    """The offending triple of a classification and its common points."""
    return None if c.witness is None else {
        "triple": [str(p) for p in c.witness],
        "common_points": sorted(str(p) for p in (c.intersection or ())),
    }


def _emit(report: dict, args) -> None:
    if getattr(args, "timings", False):
        report["timing_ms"] = round((time.perf_counter() - args._t0) * 1000, 3)
    text = formats.dumps(report)
    if getattr(args, "out", None):
        formats.write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _expected_block(data: dict) -> dict:
    """The input's ``"expected"`` object (empty if absent)."""
    expected = data.get("expected", {})
    if not isinstance(expected, dict):
        raise InputError('"expected" must be an object')
    return expected


def _expected(data: dict, override: str | None) -> str | None:
    """The expected classification: ``--expect``, else the input's
    ``"expected": {"classify": ...}``, which is validated either way."""
    value = _expected_block(data).get("classify")
    if value is not None and value not in CLASSIFY_KINDS:
        raise InputError(f'"expected.classify" must be one of {list(CLASSIFY_KINDS)}')
    return override or value


def _verdict_exit(actual: str, positive: str, expected: str | None) -> int:
    if expected is not None:
        return 0 if actual == expected else 1
    return 0 if actual == positive else 1


def cmd_classify(args) -> int:
    data = formats.load_json(args.infile)
    if formats.detect_payload(data) == "graph":
        try:    # a rejected graph's error carries the triple scan's verdict
            certify_median_graph(formats.graph_from_json(data))
            c = Classification("median")
        except NotMedianError as exc:
            c = exc.witness
    else:
        c = classify(_metric_payload(data))
    expected = _expected(data, args.expect)
    report = {
        "command": "classify",
        "input": data.digest,
        "verdict": c.kind,
        "witness": _witness(c),
    }
    _emit(report, args)
    return _verdict_exit(c.kind, "median", expected)


def cmd_certify_graph(args) -> int:
    data = formats.load_json(args.infile)
    g = formats.graph_from_json(data)
    expected = _expected(data, args.expect)
    report = {"command": "certify-graph", "input": data.digest}
    try:
        cert = certify_median_graph(g)
    except NotMedianError as exc:
        report["verdict"] = "rejected"
        report["witness"] = _witness(exc.witness)
        _emit(report, args)
        if expected is not None:
            return 0 if expected != "median" else 1
        return 1
    report["verdict"] = "certified"
    report["walls"] = len(cert.wall_bits)
    report["vertices"] = len(cert.vertices)
    _emit(report, args)
    if expected is not None:
        return 0 if expected == "median" else 1
    return 0


def cmd_cubulate(args) -> int:
    data = formats.load_json(args.infile)
    w = formats.walls_from_json(data)
    _expected_block(data)
    result = cubulate(w, max_walls=args.max_walls)
    if args.graph_out:
        formats.write_text(args.graph_out, formats.graph_text(result.graph))
    if args.dot:
        formats.write_text(args.dot, formats.dot_export(result.graph, result.cert))
    report = {
        "command": "cubulate",
        "input": data.digest,
        "vertices": result.vertex_count,
        "edges": len(result.graph.edge_src),
        "walls": w.wall_count,
        "embedding": {str(p): v for p, v in sorted(result.embedding.items(),
                                                   key=lambda kv: str(kv[0]))},
        "checks": {k: v for k, v in sorted(result.checks.items())},
    }
    _emit(report, args)
    return 0


def cmd_fill_cubes(args) -> int:
    if args.max_dim is not None and args.max_dim < 1:
        raise InputError("max_dim must be >= 1")
    data = formats.load_json(args.infile)
    g = formats.graph_from_json(data)
    report = {"command": "fill-cubes", "input": data.digest}
    try:
        cert = certify_median_graph(g)
    except NotMedianError as exc:
        report["verdict"] = "rejected"
        report["witness"] = [str(p) for p in exc.witness.witness]
        _emit(report, args)
        return 1
    cc = fill_cubes(cert, args.max_dim)
    report["verdict"] = "filled"
    report["counts"] = {str(k): v for k, v in cc.counts().items()}
    report["dimension"] = cc.dimension
    if args.out_complex:
        formats.write_text(args.out_complex, formats.dumps(formats.cube_complex_to_json(cc)))
    _emit(report, args)
    return 0


def cmd_certify_negdef(args) -> int:
    data = formats.load_json(args.infile)
    metric = _metric_payload(data)
    _expected_block(data)
    cert = certify_negative_definite(metric)
    report = {
        "command": "certify-negdef",
        "input": data.digest,
        "verdict": "negative-definite" if cert.negative_definite else "indefinite",
        "pivots": [formats.rational_str(p) for p in cert.pivots],
        "witness": None if cert.witness is None else {
            "coefficients": [formats.rational_str(a) for a in cert.witness],
            "form_value": formats.rational_str(cert.witness_value),
        },
    }
    _emit(report, args)
    return 0 if cert.negative_definite else 1


def cmd_certify_hypermetric(args) -> int:
    data = formats.load_json(args.infile)
    metric = _metric_payload(data)
    _expected_block(data)
    rep = certify_hypermetric(metric, bound=args.bound)
    report = {
        "command": "certify-hypermetric",
        "input": data.digest,
        "bound": rep.bound,
        "verdict": "hypermetric" if rep.holds else "violated",
        "max_value": formats.rational_str(rep.max_value),
        "argmax": list(rep.argmax),
        "vectors_checked": rep.vectors_checked,
    }
    _emit(report, args)
    return 0 if rep.holds else 1


def cmd_embed(args) -> int:
    data = formats.load_json(args.infile)
    _expected_block(data)
    report = {"command": "embed", "mode": args.mode, "input": data.digest}
    if args.mode == "l1":
        try:
            cert = certify_median_graph(formats.graph_from_json(data))
        except NotMedianError as exc:
            report["verdict"] = "rejected"
            report["witness"] = _witness(exc.witness)
            _emit(report, args)
            return 1
        emb = l1_embed(cert)
        report["dimension"] = emb.dimension
        report["vectors"] = dict(zip(map(str, emb.vertices), emb.strings()))
    else:
        metric = _metric_payload(data)
        emb = gns_embed(metric, tol=args.tol)
        report["dimension"] = int(emb.coords.shape[1])
        report["max_error"] = float(emb.max_error)
        report["coordinates"] = dict(zip(map(str, emb.points), formats.number_rows(emb.coords)))
    _emit(report, args)
    return 0


def cmd_helly(args) -> int:
    data = formats.load_json(args.infile)
    metric = _metric_payload(data)
    _expected_block(data)
    rep = check_helly(metric, cap=args.cap)
    report = {
        "command": "helly",
        "input": data.digest,
        "verdict": "holds" if rep.holds else "fails",
        "classification": rep.classification.kind,
        "agrees_with_modularity": rep.agrees,
        "convex_sets": rep.convex_count,
        "witness": None if rep.witness is None else
        [sorted(map(str, fam)) for fam in rep.witness],
    }
    _emit(report, args)
    return 0 if rep.holds else 1


def cmd_displace(args) -> int:
    action_data = formats.load_json(args.action)
    generators, basepoint = formats.action_from_json(action_data)
    data = formats.load_json(args.infile)
    kind = formats.detect_payload(data)
    _expected_block(data)
    report = {"command": "displace", "word": args.word,
              "input": data.digest, "action": action_data.digest}
    if kind == "walls":
        space = formats.walls_from_json(data)
        action = WallAction(space, formats.generators_on(generators, space.points),
                            basepoint)
        rep = displacement_walls(action, args.word)
        report["mode"] = "walls"
        report["wall_distance"] = rep.wall_distance
        report["sigma_symdiff"] = rep.sigma_symdiff
        report["identity"] = "sigma_symdiff == 2 * wall_distance"
    elif kind in ("metric", "graph"):
        metric = _metric_payload(data)
        action = MetricAction(metric, formats.generators_on(generators, metric.points),
                              basepoint)
        rep = displacement_metric(action, args.word, tol=args.tol)
        report["mode"] = "metric"
        report["distance"] = formats.rational_str(rep.distance)
        report["embedded_sq"] = float(f"{rep.embedded_sq:.12g}")
        report["identity"] = "embedded_sq == distance (within tol)"
    else:
        raise InputError(f"cannot displace over payload kind {kind!r}")
    report["image"] = str(rep.image)
    _emit(report, args)
    return 0


def cmd_circumcenter(args) -> int:
    data = formats.load_json(args.infile)
    cloud = formats.cloud_from_json(data)
    _expected_block(data)
    res = circumcenter(cloud, tol=args.tol, seed=args.seed)
    report = {
        "command": "circumcenter",
        "input": data.digest,
        "center": [float(f"{x:.12g}") for x in res.center],
        "radius": float(f"{res.radius:.12g}"),
        "iterations": res.iterations,
        "support": list(res.support),
        "seed": args.seed,
    }
    _emit(report, args)
    return 0


def cmd_corpus(args) -> int:
    names = args.names.split(",") if args.names else None
    written = corpus_mod.generate_corpus(names, args.seed, args.out_dir)
    report = {
        "command": "corpus",
        "seed": args.seed,
        "files": [str(p) for p in written],
    }
    _emit(report, args)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ``InputError``, so they
    end like any other bad input; ``-h`` still prints help and exits 0."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message} (see '{self.prog} -h')")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and its subcommands' parsers by name, built
    once per process: parsing never mutates them, and their handlers and
    defaults are static."""
    parser = _Parser(
        prog="mediankit",
        description="Median algebras, median graphs, wall spaces, and "
                    "embedding certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, infile=True, report_out=True):
        if infile:
            p.add_argument("--in", dest="infile", required=True,
                           help="input JSON file")
        if report_out:
            p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timing in the report")

    p = sub.add_parser("classify", help="median / modular / neither, with witness")
    common(p)
    p.add_argument("--expect", choices=CLASSIFY_KINDS)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("certify-graph", help="certify a median graph")
    common(p)
    p.add_argument("--expect", choices=CLASSIFY_KINDS)
    p.set_defaults(handler=cmd_certify_graph)

    p = sub.add_parser("cubulate", help="wall space -> median graph")
    common(p, report_out=False)
    p.add_argument("--out", dest="graph_out",
                   help="write the median graph JSON here (report goes to stdout)")
    p.add_argument("--dot", help="write a Graphviz rendering here")
    p.add_argument("--max-walls", type=int, default=DEFAULT_WALL_CAP)
    p.set_defaults(handler=cmd_cubulate)

    p = sub.add_parser("fill-cubes", help="cube complex of a median graph")
    common(p)
    p.add_argument("--max-dim", type=int, default=None)
    p.add_argument("--out-complex", help="write the cube complex JSON here")
    p.set_defaults(handler=cmd_fill_cubes)

    p = sub.add_parser("certify-negdef", help="exact negative-definiteness")
    common(p)
    p.set_defaults(handler=cmd_certify_negdef)

    p = sub.add_parser("certify-hypermetric", help="bounded hypermetric scan")
    common(p)
    p.add_argument("--bound", type=int, default=DEFAULT_HYPERMETRIC_BOUND)
    p.set_defaults(handler=cmd_certify_hypermetric)

    p = sub.add_parser("embed", help="l1 (walls) or gns (squared-distance) embedding")
    common(p)
    p.add_argument("--mode", choices=["l1", "gns"], required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_GNS_TOL)
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("helly", help="Helly property over convex sets")
    common(p)
    p.add_argument("--cap", type=int, default=DEFAULT_HELLY_CAP)
    p.set_defaults(handler=cmd_helly)

    p = sub.add_parser("displace", help="group-element displacement identities")
    common(p)
    p.add_argument("--action", required=True, help="action JSON file")
    p.add_argument("--word", required=True, help="space-separated generator names")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=cmd_displace)

    p = sub.add_parser("circumcenter", help="minimum enclosing ball (euclidean)")
    common(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_circumcenter)

    p = sub.add_parser("corpus", help="write the named corpus instances to disk")
    common(p, infile=False)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--names", help="comma-separated instance names (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_corpus)

    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace the top-level parser yields for ``argv``.  A known
    subcommand's arguments go straight to its own parser, which is what
    the top-level parser does with them after one more scan; the
    top-level parser runs only for a missing or unknown command or -h."""
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        args._t0 = time.perf_counter()
        # warnings follow a report as JSON lines, never precede a JSON error
        with warnings.catch_warnings(record=True) as caught:
            rc = args.handler(args)
        for w in caught:
            sys.stderr.write(formats.dumps({"warning": str(w.message), "kind": "warning"}))
        return rc
    except InputError as exc:
        sys.stderr.write(formats.dumps({"error": str(exc), "kind": "input"}))
        return 2
    except ResourceLimitError as exc:
        sys.stderr.write(formats.dumps({"error": str(exc), "kind": "resource",
                                        "cap": exc.cap}))
        return 3
    except InternalCheckError as exc:
        sys.stderr.write(formats.dumps({"error": str(exc), "kind": "internal"}))
        return 4


if __name__ == "__main__":
    sys.exit(main())
