"""Same answers: run the benchmark's commands under two source trees and compare their outputs.

    python tools/same_answers.py REV

Extracts ``REV``'s ``src/`` with ``git archive`` into a temporary directory
and compares it with the checkout's own ``src/``.  For each tree, each
workload of ``perfbench/workloads.py`` and each of its two sizes, one
fresh process with ``PYTHONPATH`` set to that tree runs the workload's
set-up and one round of its operations at run seed ``SEED``.  The commands
are read from ``perfbench/workloads.py`` through ``Recorder``, a stand-in for the
benchmark's runner that runs each command with ``pdmp_cdf.cli.main`` and
records its argv and exit code; ``perfbench/`` is imported, never edited,
and no check is run.  Exit codes and the SHA-256 of every output file
are compared, each ``manifest.json`` without its ``wall_time_s``, so the
manifests' counters (clamps, min-cost solves, simulated outcomes, warnings)
count as answers too.  Every difference is printed with the argv of the
command that wrote the file.
Each process also reports its own peak resident set size (``ru_maxrss``,
in MB of 10**6 bytes, as the benchmark's ``peak_rss_mb``), and one line
per workload and size prints both trees' peaks, so one run shows the
same answers and the memory change.  Exit status: 0 when nothing differs, 1 when something does, 2 on a usage
or git error.  This is differential testing (McKeeman, Digital Technical
Journal 10(1), 1998): two revisions are compared live, nothing is stored.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("uncontrolled", "control", "montecarlo")
SIZES = ("full", "tiny")
SEED = 1


class Recorder:
    """Stand-in for the benchmark's round runner: runs every command, records argv and exit code."""

    def __init__(self, work: Path, seed: int, main, records: list):
        self.dir = work / "round"
        self.dir.mkdir(parents=True)
        self.setup_dir = work / "setup"
        self.run_seed = seed
        self.main = main
        self.records = records

    def seed(self, label: str) -> int:
        import workloads
        return workloads.derived_seed(self.run_seed, label)

    def op(self, name, group, argv, check, known_failure=False, samples=0) -> Path:
        out = self.dir / name
        self.records.append({"op": name, "argv": argv, "out": str(out),
                             "exit_code": run_command(self.main, [*argv, "--out", str(out)])})
        return out


def run_command(main, argv: list[str]) -> int:
    """Exit code of one command, as the command line would end it."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error ends the real command with exit code 1
        traceback.print_exc(file=sys.stderr)
        return 1


def collect(workload: str, size: str, work: Path, seed: int) -> dict:
    """Run one workload's set-up and round in this process: records, file digests, peak RSS."""
    import workloads
    from pdmp_cdf import cli

    records: list[dict] = []

    def setup_main(argv):
        out = argv[argv.index("--out") + 1]
        code = run_command(cli.main, argv)
        records.append({"op": f"setup:{Path(out).name}", "argv": argv[:-2], "out": out,
                        "exit_code": code})
        return code

    runner = Recorder(work, seed, cli.main, records)
    workloads.setup(workload, seed, size, runner.setup_dir, setup_main)
    workloads.WORKLOADS[workload](runner, workloads.SIZES[size])
    files = {}
    for path in sorted(work.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "manifest.json":  # the one value that differs between reruns
                manifest = json.loads(data)
                del manifest["wall_time_s"]
                data = json.dumps(manifest, sort_keys=True).encode()
            files[path.relative_to(work).as_posix()] = hashlib.sha256(data).hexdigest()
    for rec in records:
        rec["out"] = Path(rec["out"]).relative_to(work).as_posix()
        rec["argv"] = [arg.replace(str(work), "{work}") for arg in rec["argv"]]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB
    return {"records": records, "files": files, "peak_rss_mb": peak_mb}


def run_tree(src: Path, workload: str, size: str, seed: int) -> dict:
    """``collect`` in a fresh process whose ``PYTHONPATH`` is ``src`` and ``perfbench/``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]))
    env.pop("PDMP_THREADS", None)
    with tempfile.TemporaryDirectory(prefix="same-answers-") as work:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--collect", workload, size,
             work, str(seed)],
            env=env, cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}/{size} under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def differences(old: dict, new: dict) -> list[str]:
    """Every exit code and output file that differs between two ``collect`` results."""
    out = []
    ops_old = {rec["op"]: rec for rec in old["records"]}
    ops_new = {rec["op"]: rec for rec in new["records"]}
    for op in sorted(ops_old.keys() | ops_new.keys()):
        a, b = ops_old.get(op), ops_new.get(op)
        if a is None or b is None:
            out.append(f"{op}: run only under {'the new' if a is None else 'the old'} tree")
        elif a["exit_code"] != b["exit_code"]:
            out.append(f"{op}: exit code {a['exit_code']} -> {b['exit_code']}\n"
                       f"  old argv {a['argv']}\n  new argv {b['argv']}")

    def writer(records: list[dict], path: str) -> dict | None:
        owners = [rec for rec in records if path.startswith(rec["out"] + "/")]
        return owners[0] if owners else None

    for path in sorted(old["files"].keys() | new["files"].keys()):
        a, b = old["files"].get(path), new["files"].get(path)
        if a == b:
            continue
        what = "missing under the new tree" if b is None else (
            "missing under the old tree" if a is None else "differs")
        line = f"{path}: {what}"
        for side, result in (("old", old), ("new", new)):
            rec = writer(result["records"], path)
            if rec is not None:
                line += f"\n  {side} argv {rec['argv']}"
        out.append(line)
    return out


def compare(old_src: Path, new_src: Path, workloads=WORKLOADS, sizes=SIZES) -> list[str]:
    """Differences of the new tree's outputs from the old tree's, each prefixed workload/size.

    Prints each workload and size's peak RSS under both trees as it goes.
    """
    found = []
    for size in sizes:
        for workload in workloads:
            old = run_tree(old_src, workload, size, SEED)
            new = run_tree(new_src, workload, size, SEED)
            found += [f"{workload}/{size} {d}" for d in differences(old, new)]
            a, b = old["peak_rss_mb"], new["peak_rss_mb"]
            print(f"{workload}/{size} peak RSS: old {a:.1f} MB, new {b:.1f} MB ({b / a - 1:+.1%})",
                  flush=True)
    return found


def extract(rev: str, into: Path) -> Path:
    """``rev``'s ``src/`` written under ``into``; returns the extracted ``src`` directory."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True)
    if archive.returncode != 0:
        raise RuntimeError(archive.stderr.decode(errors="replace").strip())
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into / "src"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Compare the benchmark commands' outputs of REV's "
                                            "src/ with this checkout's.")
    p.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-answers-src-") as tmp:
        try:
            old_src = extract(args.rev, Path(tmp))
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"cannot extract {args.rev}: {exc}", file=sys.stderr)
            return 2
        found = compare(old_src, ROOT / "src")
    for line in found:
        print(line)
    print(f"{len(found)} difference(s) against {args.rev}")
    return 1 if found else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--collect"]:
        workload, size, work, seed = sys.argv[2:6]
        result = collect(workload, size, Path(work), int(seed))
        print(json.dumps(result))
    else:
        sys.exit(main())
