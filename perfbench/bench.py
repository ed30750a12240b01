"""The benchmark's runner: workloads timed end to end, and per layer from
outside the program.  ``run.py`` is the entry point; it puts the checkout's
``src`` on ``sys.path`` before this module is imported.

Each workload is a closed loop with one client: the ops of a fixed, seeded
list run one after another, in passes, each op starting only when the one
before it has finished.  A warm-up pass checks every op's outcome against
what its input guarantees and keeps it as the reference; every measured
pass must reproduce the reference byte for byte.

Timings are reported at a reference host speed (see ``calib.py``): each op's
latency is scaled by a calibration kernel timed right before and after it,
because a shared host's speed can drift by up to 2x over a run.  The record
keeps the timings as measured too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same inputs and reports the per-layer
metrics and the tracing overhead.  ``--workload all`` runs every workload,
including the error-path set ``errors``.  Some of its ops end in uncaught
exceptions in the current CLI, and a measured workload must not fail, so it
is kept out of ``BENCHMARK.json``.

Every metric is printed by name and unit, with the commit, Python and numpy
versions, nproc and the seed; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import calib
import probes
import workloads
from mediankit import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = {"wall_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms", "setup_s": "s",
              "peak_rss_mb": "MiB"}
SETUP_SAMPLES = 7
MIN_SAMPLES = 100          # so that op_ms.p90 has ten samples beyond it
COLD_IMPORT = """
import sys, time
sys.path[:0] = sys.argv[1:]
import calib
before = calib.kernel_seconds()
t = time.perf_counter()
import mediankit
took = time.perf_counter() - t
print(took, (before + calib.kernel_seconds()) / 2)
"""


def cold_import_seconds() -> tuple[float, float]:
    """Median time of ``import mediankit`` in fresh interpreters, at the
    reference speed and as measured."""
    adjusted, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", COLD_IMPORT, str(SRC), str(HERE)],
                              cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        took, kernel = map(float, done.stdout.split())
        raw.append(took)
        adjusted.append(took * calib.REFERENCE_S / kernel)
    return statistics.median(adjusted), statistics.median(raw)


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs one workload's ops, checks them, and collects the figures."""

    def __init__(self, ops):
        self.ops = ops
        self.reference: list = []
        self.broken: dict[str, str] = {}      # op label -> why its outcome is wrong
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []      # at the reference speed
        self.raw_latencies: list[float] = []  # as measured
        self.by_op: dict[str, list[float]] = {op.label: [] for op in ops}

    @staticmethod
    def run_op(op):
        if op.call is not None:
            return workloads.Outcome(0, op.call(), "")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op.argv)
            except SystemExit as exc:     # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
        return workloads.Outcome(rc, out.getvalue(), err.getvalue())

    def one_pass(self, rec=None) -> tuple[list, list[float], list[float]]:
        """Run the ops once; returns their outcomes, and their latencies as
        measured and scaled to the reference speed by the calibration
        kernel timed before and after each op."""
        gc.collect()
        outcomes, raw, adjusted = [], [], []
        kernel = calib.kernel_seconds()
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                out = self.run_op(op) if rec is None else probes.run_traced(rec, op, self.run_op)
            except Exception as exc:     # an uncaught error is a failed op, not a crash
                out = workloads.Outcome(-1, "", f"uncaught {type(exc).__name__}: {exc}")
            took = time.perf_counter() - t0
            after = calib.kernel_seconds()
            speed = calib.REFERENCE_S / ((kernel + after) / 2)
            raw.append(took)
            adjusted.append(took * speed)
            if rec is not None:
                rec.speed[rec.op] = speed
            kernel = after
            outcomes.append(out)
        return outcomes, raw, adjusted

    def warm_up(self) -> None:
        """The reference pass: every op's outcome is checked here."""
        self.reference, _, _ = self.one_pass()
        for op, out in zip(self.ops, self.reference):
            if out.rc == -1:
                self.broken[op.label] = out.stderr
                continue
            try:
                op.check(out)
            except (workloads.CheckFailed, ValueError, KeyError, TypeError) as exc:
                self.broken[op.label] = f"{type(exc).__name__}: {exc}"

    def measured(self, rec=None) -> tuple[float, float]:
        """One measured pass; returns its seconds at the reference speed and
        as measured (the sums of its op latencies)."""
        outcomes, raw, times = self.one_pass(rec)
        self.latencies += times
        self.raw_latencies += raw
        for op, out, ref, t in zip(self.ops, outcomes, self.reference, times):
            self.by_op[op.label].append(t)
            self.attempted += 1
            if op.label in self.broken:
                self.failed += 1
            elif out != ref:
                self.broken[op.label] = "report differs from the first pass"
                self.failed += 1
        return sum(times), sum(raw)


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One run of a workload; returns its result record."""
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        t_build = time.perf_counter()
        runner = Runner(workloads.build(name, seed, work, small))
        build_s = time.perf_counter() - t_build
        runner.warm_up()
        walls, raw_walls, traced_walls, layer_passes = [], [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            wall, raw = runner.measured()
            walls.append(wall)
            raw_walls.append(raw)
            if trace:
                rec = probes.Recorder()
                with probes.Tracing(rec):
                    traced_walls.append(runner.measured(rec)[0])
                layer_passes.append(rec.totals())
            # stop at the deadline, judged by whether another pass would end
            # before it, unless p90 still lacks ten samples beyond it
            now = time.perf_counter()
            if now + (now - start) > deadline and len(runner.latencies) >= MIN_SAMPLES:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()                  # only once no other run is using it

    def p90_of(values: list[float]) -> float:
        return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]

    lat_ms = sorted(t * 1000 for t in runner.latencies)
    raw_ms = sorted(t * 1000 for t in runner.raw_latencies)
    p90 = p90_of(lat_ms)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commit": commit(), "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "ops_per_pass": len(runner.ops), "passes": len(walls),
        "pass_s": walls, "pass_raw_s": raw_walls,
        "samples": len(lat_ms), "beyond_p90": sum(t > p90 for t in lat_ms),
        "input_build_s": build_s,
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "failures": runner.broken,
        "op_ms_median": {label: statistics.median(t) * 1000 for label, t in runner.by_op.items()},
    }
    if trace:
        values = probes.layer_values(layer_passes)
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        units = {lm.name: lm.unit for lm in probes.LAYER_METRICS}
        record["traced_passes"] = len(traced_walls)
    else:
        setup, setup_raw = cold_import_seconds()
        values = {
            "wall_s": statistics.median(walls),
            "op_ms.p50": statistics.median(lat_ms),
            "op_ms.p90": p90,
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        record["as_measured"] = {"wall_s": statistics.median(raw_walls),
                                 "op_ms.p50": statistics.median(raw_ms),
                                 "op_ms.p90": p90_of(raw_ms), "setup_s": setup_raw}
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return record


def describe(record: dict) -> None:
    """Print every metric by name and unit, with how it was sampled."""
    print(f"# {record['workload']}: seed {record['seed']}, {record['seconds']} s, "
          f"trace {record['trace']}, commit {record['commit']}, python {record['python']}, "
          f"numpy {record['numpy']}, nproc {record['nproc']}")
    print(f"# {record['ops_per_pass']} ops per pass, {record['passes']} untraced passes, "
          f"{record['samples']} op samples ({record['beyond_p90']} beyond p90)")
    for label, why in sorted(record["failures"].items()):
        print(f"# FAILED {label}: {why}")
    print(f"failed_frac = {record['failed_frac']} ({record['failed']} of "
          f"{record['attempted']} ops)")
    moves = {lm.name: lm.moves for lm in probes.LAYER_METRICS}
    raw = record.get("as_measured", {})
    for name, m in record["metrics"].items():
        note = ""
        if name in moves:
            note = f"  # moves {moves[name]}"
        elif name in raw:
            note = f"  # at the reference speed; as measured {raw[name]} {m['unit']}"
        print(f"{name} = {m['value']} {m['unit']}{note}")
    print("record: " + json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="mediankit benchmark")
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' (the four workloads and 'errors')")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload, after the warm-up pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS)
    if args.workload not in names + ["all"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")

    if args.workload != "all":
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        describe(record)
        print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                          "failed": record["failed"], "metrics": record["metrics"]}))
        return 0

    # one fresh process per workload, so none inherits another's memory peak
    attempted = failed = 0
    metrics = {}
    for name in names:
        done = subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        print(done.stdout, end="")
        result = json.loads(done.stdout.splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
