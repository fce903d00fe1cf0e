"""One workload process: ``setup`` writes the inputs, ``run`` times whole rounds.

Started by ``run.py``; each invocation is a fresh interpreter, so every
workload starts from a cold process.  ``run`` writes its result as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse.linalg  # noqa: F401  imported lazily by the 2D HJB solver; load it before timing

import spans
import workloads as wl
from pdmp_cdf import cli

GROUPS = ("cdf_s", "min_cost_s", "bounds_s", "rate_sweep_s", "graph_s", "hjb_s",
          "threshold_s", "evaluate_policy_s")
MC_GROUPS = {"mc_uncontrolled": "mc_uncontrolled_samples_per_s",
             "mc_policy": "mc_policy_samples_per_s"}


class Round:
    """One pass over a workload's operations, each timed and then checked."""

    def __init__(self, index: int, work_dir: Path, setup_dir: Path, seed: int, tracer):
        self.index = index
        self.dir = work_dir / f"round_{index}"
        self.dir.mkdir(parents=True)
        self.setup_dir = setup_dir
        self.run_seed = seed
        self.tracer = tracer
        self.records: list[dict] = []

    def seed(self, label: str) -> int:
        """Monte-Carlo seed of one operation; every round repeats the same operations."""
        return wl.derived_seed(self.run_seed, label)

    def op(self, name, group, argv, check, known_failure=False, samples=0) -> Path:
        out = self.dir / name
        span = self.tracer.span("cli.main") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                code = cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error ends the real command with exit code 1
            traceback.print_exc(file=sys.stderr)
            code = 1
        seconds = time.perf_counter() - t0
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            try:
                problems += check(out)
            except Exception as exc:  # a check that cannot read its inputs fails the operation
                problems.append(f"check raised {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
        self.records.append({
            "round": self.index, "op": name, "group": group, "argv": argv,
            "exit_code": code, "seconds": seconds, "samples": samples,
            "failed": bool(problems), "known_failure": known_failure, "problems": problems,
        })
        return out

    def pipeline_metrics(self) -> dict[str, float]:
        """total_s and the per-pipeline times and Monte-Carlo rates of this round."""
        out = {"total_s": sum(r["seconds"] for r in self.records)}
        for g in GROUPS:
            out[g] = sum((r["seconds"] for r in self.records if r["group"] == g), 0.0)
        for g, metric in MC_GROUPS.items():
            recs = [r for r in self.records if r["group"] == g]
            seconds = sum(r["seconds"] for r in recs)
            out[metric] = sum(r["samples"] for r in recs) / seconds if seconds else 0.0
        return out


def layer_metrics(summary: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics from one traced round's span summary and counters."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    export_s = get("cli.export", "s") + get("simulate.write_samples_csv", "s")
    m = {
        "model.build_grid.s": get("model.build_grid", "s"),
        "cli.load_problem.s": get("cli.load_problem", "s"),
        "cli.export.s": export_s,
        "cli.export.rows": counts["cli.export.rows"],
        "cli.export.bytes": counts["cli.export.bytes"],
        "cli.export.rows_per_s": rate(counts["cli.export.rows"], export_s),
        "cdf_solver.SemiLagrangianStep.s": get("cdf_solver.SemiLagrangianStep", "s"),
        "cdf_solver.SemiLagrangianStep.count": get("cdf_solver.SemiLagrangianStep", "calls"),
        "cdf_solver.solve_min_cost.s": get("cdf_solver.solve_min_cost", "s"),
        "cdf_solver.solve_min_cost.calls": get("cdf_solver.solve_min_cost", "calls"),
        "cdf_solver.solve_cdf.self_s": get("cdf_solver.solve_cdf", "self_s"),
        "cdf_solver.solve_cdf.level_updates_per_s": rate(
            counts["cdf_solver.solve_cdf.updates"], get("cdf_solver.solve_cdf", "self_s")),
        "bounds.solve_min_cost_bounds.s": get("bounds.solve_min_cost_bounds", "s"),
        "bounds.solve_bounds.s": get("bounds.solve_bounds", "s"),
        "bounds.fixed_rate_sweep.self_s": get("bounds.fixed_rate_sweep", "self_s"),
        "control.solve_hjb_expectation.s": get("control.solve_hjb_expectation", "s"),
        "control.solve_hjb_expectation.calls": get("control.solve_hjb_expectation", "calls"),
        "control.solve_threshold.self_s": get("control.solve_threshold", "self_s"),
        "control.solve_threshold.updates_per_s": rate(
            counts["control.solve_threshold.updates"], get("control.solve_threshold", "self_s")),
        "control.evaluate_policy_cdf.s": get("control.evaluate_policy_cdf", "s"),
        "control.save_policy.s": get("control.save_policy", "s"),
        "control.load_policy.s": get("control.load_policy", "s"),
        "control.policy_bytes": counts["control.policy_bytes"],
        "simulate.run_batch.s": get("simulate.run_batch", "s"),
        "simulate.samples": counts["simulate.samples"],
        "simulate.switches": counts["simulate.switches"],
        "simulate.switches_per_s": rate(counts["simulate.switches"], get("simulate.run_batch", "s")),
        "simulate.censored": counts["simulate.censored"],
        "simulate.empirical_cdf.s": get("simulate.empirical_cdf", "s"),
        "simulate.write_samples_csv.s": get("simulate.write_samples_csv", "s"),
        "discrete.solve_cdf.s": get("discrete.solve_cdf", "s"),
        "discrete.solve_min_cost.s": get("discrete.solve_min_cost", "s"),
    }
    for module in spans.MODULES:
        m[f"{module}.self_s"] = sum((r["self_s"] for name, r in summary.items()
                                     if name.split(".")[0] == module), 0.0)
    return m


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "platform": platform.platform()}


def run(args) -> dict:
    """Whole rounds until ``--seconds`` have passed; metrics are medians over rounds.

    A plain run measures every round, the first one cold.  A traced run
    plays one plain warm-up round, then pairs of plain and traced rounds,
    so that its tracing overhead compares two warm rounds.
    """
    work = Path(args.dir)
    workload, size = wl.WORKLOADS[args.workload], wl.SIZES[args.size]
    rounds: list[Round] = []

    def play(tracer=None) -> dict[str, float]:
        r = Round(len(rounds), work, work / "setup", args.seed, tracer)
        first_span = len(tracer.spans) if tracer else 0
        before = dict(tracer.counts) if tracer else {}
        workload(r, size)
        rounds.append(r)
        m = r.pipeline_metrics()
        if tracer:
            counts = defaultdict(float, {k: v - before.get(k, 0.0) for k, v in tracer.counts.items()})
            m.update(layer_metrics(tracer.summary(first_span), counts))
        return m

    start = time.perf_counter()
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        play()
    measured, plain = [], []
    while not measured or time.perf_counter() - start < args.seconds:
        if tracer:
            plain.append(play()["total_s"])
            uninstall = spans.install(tracer)
            try:
                measured.append(play(tracer))
            finally:
                uninstall()
        else:
            measured.append(play())
    metrics = {k: statistics.median(m[k] for m in measured) for k in measured[0]}
    if tracer:
        metrics["trace.total_s"] = metrics.pop("total_s")
        metrics["trace.plain_total_s"] = statistics.median(plain)
        metrics["trace.overhead_s"] = metrics["trace.total_s"] - metrics["trace.plain_total_s"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    records = [rec for r in rounds for rec in r.records]
    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": bool(args.trace), "rounds": len(rounds), "measured_rounds": len(measured),
        "attempted": len(records), "failed": sum(rec["failed"] for rec in records),
        "correct": not any(rec["failed"] and not rec["known_failure"] for rec in records),
        "metrics": metrics,
        "failures": [{"round": rec["round"], "op": rec["op"], "exit_code": rec["exit_code"],
                      "known_failure": rec["known_failure"], "reasons": rec["problems"]}
                     for rec in records if rec["failed"]],
        "operations": records,
        "machine": machine_facts(),
    }
    if tracer is not None:
        result["spans"] = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                           for s in tracer.spans]
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("stage", choices=("setup", "run"))
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True, help="work directory of this run")
    p.add_argument("--size", default="full", choices=sorted(wl.SIZES))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--result", help="where the run stage writes its JSON result")
    args = p.parse_args()
    if args.stage == "setup":
        wl.setup(args.workload, args.seed, args.size, Path(args.dir) / "setup", cli.main)
    else:
        Path(args.result).write_text(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
