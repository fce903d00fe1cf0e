"""Phase costs and same answers at acceptance scale: the acceptance-8 pipeline under two trees.

    python tools/phases.py REV [--pairs N]

Extracts ``REV``'s ``src/`` with ``same_answers.extract`` and runs the steps
of the acceptance suite's ``ex6_pipeline`` fixture under it and under the
checkout's own ``src/``: the expectation HJB on the coarse grid, the HJB on
the fine grid warm-started from its prolongation, the min-cost solve and
the restricted threshold sweep (``example6`` with 32 angles, coarse dx
2e-2, fine dx and ds 5e-3, s_max 0.5, tol 1e-7).  Each run is a fresh
process whose ``PYTHONPATH`` is that tree, and the trees alternate, REV
first in odd pairs and the checkout first in even ones.  Each process
prints each phase's wall time and its peak resident set size
(``ru_maxrss``, MiB) once the phase is done, and saves its outputs.  After
each pair the outputs are compared: the fine HJB's u, its actions, and the
threshold sweep's W, V and actions.  Equal outputs are the same bit for
bit; otherwise the count of entries that differ is printed, and for
values the largest difference.  Exit status: 0 when every output of every
pair is the same, 1 when one differs, 2 on a usage or git error.  Only
the tool's own processes are measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import same_answers  # noqa: E402

# (angles, coarse dx, fine dx, ds, s_max, tol): acceptance 8's grid, and a coarse one for tests
SIZES = {"acceptance": (32, 2e-2, 5e-3, 5e-3, 0.5, 1e-7),
         "coarse": (4, 0.1, 0.05, 0.05, 0.5, 1e-7)}
PHASES = ("coarse_hjb", "fine_hjb", "min_cost", "threshold")
OUTPUTS = ("u", "hjb_actions", "w", "v", "actions")
_CHUNK = 2**20  # entries compared at once


def pipeline(size: str, out: Path) -> list[dict]:
    """Run the pipeline in this process; save its outputs under ``out``, return its phases."""
    from pdmp_cdf import build_grid, catalog
    from pdmp_cdf.cdf_solver import solve_min_cost
    from pdmp_cdf.control import prolong, solve_hjb_expectation, solve_threshold

    n_angles, coarse_dx, dx, ds, s_max, tol = SIZES[size]
    spec = catalog.example6(n_angles)
    phases = []

    def phase(name, run):
        start = time.perf_counter()
        result = run()
        phases.append({"phase": name, "wall_s": time.perf_counter() - start,
                       "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
        return result

    coarse = build_grid(spec, coarse_dx, coarse_dx, s_max)
    v_coarse, _ = phase("coarse_hjb", lambda: solve_hjb_expectation(spec, coarse, tol=tol))
    grid = build_grid(spec, dx, ds, s_max)
    hjb = phase("fine_hjb", lambda: solve_hjb_expectation(
        spec, grid, tol=tol, initial=prolong(v_coarse.u, coarse, grid)))
    mc = phase("min_cost", lambda: solve_min_cost(spec, grid))
    tv = phase("threshold", lambda: solve_threshold(spec, grid, hjb=hjb, restrict=mc))
    arrays = dict(zip(OUTPUTS, (hjb[0].u, hjb[1].actions, tv.w.values, tv.v, tv.actions)))
    for name, values in arrays.items():
        np.save(out / f"{name}.npy", values)
    return phases


def run_tree(src: Path, size: str, out: Path) -> list[dict]:
    """``pipeline`` in a fresh process whose ``PYTHONPATH`` is ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run", size, str(out)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"the pipeline under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def difference(old: Path, new: Path) -> str | None:
    """None when the two saved arrays are the same bit for bit, else what differs."""
    if _digest(old) == _digest(new):
        return None
    a, b = np.load(old, mmap_mode="r"), np.load(new, mmap_mode="r")
    if a.shape != b.shape or a.dtype != b.dtype:
        return f"{a.dtype}{list(a.shape)} -> {b.dtype}{list(b.shape)}"
    a, b = a.reshape(-1), b.reshape(-1)
    bits = f"u{a.itemsize}"
    count, largest = 0, 0.0
    for lo in range(0, a.size, _CHUNK):
        x, y = np.asarray(a[lo:lo + _CHUNK]), np.asarray(b[lo:lo + _CHUNK])
        differ = x.view(bits) != y.view(bits)
        count += int(np.count_nonzero(differ))
        if np.any(differ):
            largest = max(largest, float(np.max(np.abs(x[differ].astype(float)
                                                       - y[differ].astype(float)))))
    text = f"{count} of {a.size} entries differ"
    return text if a.dtype.kind in "iu" else f"{text}, largest difference {largest:.3g}"


def compare(old_src: Path, new_src: Path, size: str = "acceptance", pairs: int = 1) -> list[str]:
    """Every output of the new tree that differs from the old tree's, over ``pairs`` pairs.

    Prints each run's phases as it goes and, at the end, each phase's
    median wall time and largest peak RSS under both trees.
    """
    found = []
    runs = {"old": [], "new": []}
    for pair in range(pairs):
        order = ("old", "new") if pair % 2 == 0 else ("new", "old")
        with tempfile.TemporaryDirectory(prefix="phases-") as work:
            for side in order:
                out = Path(work) / side
                out.mkdir()
                phases = run_tree(old_src if side == "old" else new_src, size, out)
                runs[side].append(phases)
                print(f"pair {pair + 1} {side}: " + ", ".join(
                    f"{p['phase']} {p['wall_s']:.2f} s ({p['rss_mib']:.0f} MiB)" for p in phases),
                    flush=True)
            for name in OUTPUTS:
                what = difference(Path(work) / "old" / f"{name}.npy",
                                  Path(work) / "new" / f"{name}.npy")
                if what is not None:
                    found.append(f"pair {pair + 1} {name}: {what}")
    for i, name in enumerate(PHASES):
        cells = []
        for side in ("old", "new"):
            wall = statistics.median(run[i]["wall_s"] for run in runs[side])
            rss = max(run[i]["rss_mib"] for run in runs[side])
            cells.append(f"{side} {wall:.2f} s, {rss:.0f} MiB")
        print(f"{name}: " + "; ".join(cells), flush=True)
    return found


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Time the acceptance-8 pipeline's phases under REV's "
                                            "src/ and this checkout's, and compare its outputs.")
    p.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    p.add_argument("--pairs", type=int, default=1, help="alternating pairs of runs (default 1)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="phases-src-") as tmp:
        try:
            old_src = same_answers.extract(args.rev, Path(tmp))
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"cannot extract {args.rev}: {exc}", file=sys.stderr)
            return 2
        found = compare(old_src, ROOT / "src", pairs=args.pairs)
    for line in found:
        print(line)
    print(f"{len(found)} difference(s) against {args.rev}")
    return 1 if found else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        size, out = sys.argv[2:4]
        print(json.dumps(pipeline(size, Path(out))))
    else:
        sys.exit(main())
