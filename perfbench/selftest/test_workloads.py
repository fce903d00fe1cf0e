"""Every workload runs to its end at the tiny size, through the real launcher.

Run with ``python3 -m pytest perfbench/selftest``.
"""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KNOWN_FAILURES = {"uncontrolled": 1, "control": 0, "montecarlo": 0}


def launch(workload, trace=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(KNOWN_FAILURES))
def test_workload_runs_at_tiny_size(workload):
    proc = launch(workload)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == KNOWN_FAILURES[workload]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = launch("montecarlo", trace=1)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("simulate.run_batch.s", "simulate.samples", "control.load_policy.s",
                 "cli.export.rows", "mc_policy_samples_per_s", "trace.total_s"):
        assert metrics[name] > 0, name
    assert metrics["control.solve_threshold.self_s"] == 0.0  # solvers run only in set-up


def test_launcher_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = launch("uncontrolled", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
