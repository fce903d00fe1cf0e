"""Run every workload plain and traced, and print the summary tables.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Prints, as markdown: the end-to-end metrics of each workload, the median
wall time of every operation (the per-phase table of the baseline), self
time and span counts by module from the traced run, and the tracing
overhead (traced total_s minus plain total_s).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from spans import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One launcher run; returns its printed line and its full result record."""
    before = set((HERE / "out" / "results").glob("*.json"))
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    pattern = f"{workload}-seed{seed}-trace{trace}-*.json"
    (record,) = set((HERE / "out" / "results").glob(pattern)) - before
    return line, json.loads(record.read_text())


def spans_per_round(record: dict) -> dict[str, float]:
    """Number of spans of each module per traced round."""
    calls = defaultdict(int)
    for s in record["spans"]:
        calls[s["name"].split(".")[0]] += 1
    return {m: calls[m] / record["measured_rounds"] for m in MODULES}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print("## End to end (plain runs)\n")
    print("| workload | " + " | ".join(f"{n} ({u})" for n, u in units.items())
          + " | attempted | failed |")
    print("|---" * (len(units) + 3) + "|")
    ops, layers, overhead = {}, {}, {}
    for w in (w["name"] for w in spec["workloads"]):
        line, record = run(w, args.seed, args.seconds, 0)
        print(f"| {w} | " + " | ".join(f"{line['metrics'][n]['value']:.4g}" for n in units)
              + f" | {line['attempted']} | {line['failed']} |")
        per_op = defaultdict(list)
        for rec in record["operations"]:
            per_op[rec["op"]].append(rec["seconds"])
        ops[w] = {op: statistics.median(v) for op, v in per_op.items()}
        traced_line, traced = run(w, args.seed, args.seconds, 1)
        m = {k: v["value"] for k, v in traced_line["metrics"].items()}
        counts = spans_per_round(traced)
        layers[w] = [(mod, m[f"{mod}.self_s"], counts[mod]) for mod in MODULES]
        overhead[w] = (m["trace.plain_total_s"], m["trace.total_s"], m["trace.overhead_s"])

    machine = record["machine"]
    print(f"\n## Operations (median wall per round; {machine['nproc']} cores, "
          f"{machine['cpu_model']}, Python {machine['python']}, numpy {machine['numpy']}, "
          f"scipy {machine['scipy']})\n")
    print("| workload | operation | wall (s) |\n|---|---|---|")
    for w, rows in ops.items():
        for op, sec in rows.items():
            print(f"| {w} | {op} | {sec:.3f} |")

    print("\n## Self time by module (traced run, per round)\n")
    print("| workload | " + " | ".join(MODULES) + " |\n" + "|---" * (len(MODULES) + 1) + "|")
    for w, rows in layers.items():
        print(f"| {w} | " + " | ".join(f"{s:.3f} s / {c:g} spans" for _, s, c in rows) + " |")

    print("\n## Tracing overhead\n\n| workload | plain total_s | traced total_s | overhead |"
          "\n|---|---|---|---|")
    for w, (plain, traced_s, diff) in overhead.items():
        print(f"| {w} | {plain:.3f} | {traced_s:.3f} | {diff:+.3f} s ({diff / plain:+.1%}) |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
