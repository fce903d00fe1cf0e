"""Benchmark launcher: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload uncontrolled --seed 1 --seconds 10 --trace 0

Runs the workload's set-up ``SETUP_REPEATS`` times, each in a fresh
process, and reports the median as ``setup_s``; then runs the timed rounds
in one more fresh process.  BLAS and OpenMP thread counts are capped at
the CPU count, ``PDMP_THREADS`` is removed from the environment, and all
outputs go to a temporary directory under ``perfbench/out`` that is
removed after the checks.  A full record of the run (machine facts, git
revision, seed, every operation with its exit code, and the spans of a
traced run) is written to ``perfbench/out/results``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
DEADLINE_S = 175.0  # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PDMP_THREADS", None)
    for var in THREAD_VARS:
        env[var] = str(os.cpu_count() or 1)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def call(argv: list[str], deadline: float) -> float:
    """Run one worker stage to completion; returns its wall time in seconds."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                              env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv[0]} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited with code {proc.returncode}")
    return time.perf_counter() - t0


def revision() -> dict:
    """Git revision when the checkout is a repository, and a digest of the program source."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git": rev, "source_sha256": digest.hexdigest()}


def bench(args) -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path.name} not found next to {HERE.name}/")
    if not (ROOT / "src" / "pdmp_cdf" / "cli.py").is_file():
        raise BenchError("program source src/pdmp_cdf not found in the checkout")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work),
                  "--size", args.size]
        setup_times = [call(["setup", *common], deadline) for _ in range(SETUP_REPEATS)]
        result_path = work / "result.json"
        call(["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--result", str(result_path)], deadline)
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = {**result["metrics"], "setup_s": statistics.median(setup_times)}
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result.update(setup_times_s=setup_times,
                  revision=revision(), thread_caps={v: child_env()[v] for v in THREAD_VARS},
                  seconds=args.seconds)
    results_dir = out_root / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (results_dir / name).write_text(json.dumps(result, indent=1))
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main() -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole rounds until this many seconds have passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every input, for the benchmark's self-tests")
    args = p.parse_args()
    try:
        line = bench(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
