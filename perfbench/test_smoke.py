"""Smoke test of the benchmark at reduced size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402

MEASURED = [name for name in workloads.WORKLOADS if name != "errors"]


@pytest.fixture
def work():
    """A fresh directory under the benchmark's work area, removed afterwards."""
    path = bench.WORK / f"smoke-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        bench.WORK.rmdir()


@pytest.mark.parametrize("name", MEASURED)
def test_small_workload_passes_its_checks(name):
    record = bench.measure(name, seed=3, seconds=0.01, trace=False, small=True)
    assert record["failures"] == {}
    assert record["failed"] == 0 and record["attempted"] % record["ops_per_pass"] == 0
    assert record["samples"] >= bench.MIN_SAMPLES
    assert set(record["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    record = bench.measure("small-exact", seed=3, seconds=0.01, trace=True, small=True)
    assert set(record["metrics"]) == {lm.name for lm in probes.LAYER_METRICS}
    values = {k: m["value"] for k, m in record["metrics"].items()}
    certify = values["graphs.certify_median_graph_s"]
    assert certify >= values["graphs.certify_median_graph.self_s"] > 0
    assert values["graphs.halfspace_exhaustive"] > 0 and values["cli.corpus_s"] > 0


def test_probes_are_removed_after_a_traced_pass():
    from mediankit import cli, graphs, metric
    before = (cli.certify_median_graph, graphs.certify_median_graph,
              metric.FiniteMetric.__init__, metric.MedianMetric.__dict__["certify"])
    with probes.Tracing(probes.Recorder()):
        assert cli.certify_median_graph is not before[0]
    assert (cli.certify_median_graph, graphs.certify_median_graph,
            metric.FiniteMetric.__init__, metric.MedianMetric.__dict__["certify"]) == before


def test_error_path_failures_are_counted(work):
    record = bench.measure("errors", seed=3, seconds=0.01, trace=False)
    labels = {op.label for op in workloads.build("errors", 3, work)}
    assert set(record["failures"]) <= labels
    assert record["failed"] == len(record["failures"]) * record["passes"]
    assert record["failed_frac"] == record["failed"] / record["attempted"]


def test_checks_reject_a_wrong_outcome(work):
    ops = workloads.build("graph-certify", 3, work, small=True)
    runner = bench.Runner(ops)
    runner.warm_up()
    assert runner.broken == {}
    for op, out in zip(ops, runner.reference):
        wrong = dataclasses.replace(out, rc=1 - out.rc)
        with pytest.raises(workloads.CheckFailed):
            op.check(wrong)


def test_inputs_follow_the_seed(work):
    def files(seed: int, tag: str) -> dict[str, bytes]:
        workloads.build("negdef-embed", seed, work / tag, small=True)
        return {p.name: p.read_bytes() for p in sorted((work / tag).iterdir())}
    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == MEASURED
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert spec["per_layer"] == [{"name": lm.name, "unit": lm.unit, "better": lm.better}
                                 for lm in probes.LAYER_METRICS]


def test_refuses_to_run_without_the_program(work):
    shutil.copytree(HERE, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", work)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=work, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
