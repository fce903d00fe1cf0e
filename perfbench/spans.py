"""Span tracing from outside the program.

``install`` wraps the public functions of each package module with timing
wrappers defined here, so the program's source stays untouched.  A span
records (id, name, start, end, parent); spans stay in memory until the
benchmark writes them out.  Self time is a span's duration minus the time
covered by its direct children (spans never overlap their siblings: the
program runs on one thread).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("model", "cli", "cdf_solver", "bounds", "control", "simulate", "discrete")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, name, time.perf_counter(), 0.0, parent))
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            _, _, start, _, _ = self.spans[sid]
            self.spans[sid] = (sid, name, start, time.perf_counter(), parent)

    def summary(self, first_span: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        spans = self.spans[first_span:]
        child_time = defaultdict(float)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, name, start, end, _ in spans:
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return dict(out)


# ---------------------------------------------------------------------------
# counters computed from the arguments and results of traced calls
# ---------------------------------------------------------------------------


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _count_export(counts, args, result):
    counts["cli.export.rows"] += len(args["rows"])
    counts["cli.export.bytes"] += _file_bytes(result)


def _count_samples_csv(counts, args, result):
    counts["cli.export.rows"] += args["batch"].n
    counts["cli.export.bytes"] += _file_bytes(args["path"])


def _count_level_updates(counts, args, result):
    grid = args["grid"]
    counts["cdf_solver.solve_cdf.updates"] += result.values.shape[0] * (grid.n_levels - 1) * grid.n_nodes


def _count_threshold_updates(counts, args, result):
    spec, grid = args["spec"], args["grid"]
    counts["control.solve_threshold.updates"] += (
        spec.n_modes * spec.controls.n_actions * (grid.n_levels - 1) * grid.n_nodes)


def _count_policy_bytes(counts, args, result):
    counts["control.policy_bytes"] += _file_bytes(args["path"])


def _count_batch(counts, args, result):
    counts["simulate.samples"] += result.n
    counts["simulate.switches"] += int(result.switch_counts.sum())
    counts["simulate.censored"] += int(result.censored.sum())


# (module, attribute path, span name, counter); the span name is the metric prefix
HOOKS = (
    ("model", "build_grid", "model.build_grid", None),
    ("cli", "load_problem", "cli.load_problem", None),
    ("cli", "Exporter.write_rows", "cli.export", _count_export),
    ("cdf_solver", "SemiLagrangianStep.__init__", "cdf_solver.SemiLagrangianStep", None),
    ("cdf_solver", "solve_min_cost", "cdf_solver.solve_min_cost", None),
    ("cdf_solver", "solve_cdf", "cdf_solver.solve_cdf", _count_level_updates),
    ("bounds", "solve_min_cost_bounds", "bounds.solve_min_cost_bounds", None),
    ("bounds", "solve_bounds", "bounds.solve_bounds", None),
    ("bounds", "fixed_rate_sweep", "bounds.fixed_rate_sweep", None),
    ("control", "solve_hjb_expectation", "control.solve_hjb_expectation", None),
    ("control", "solve_threshold", "control.solve_threshold", _count_threshold_updates),
    ("control", "evaluate_policy_cdf", "control.evaluate_policy_cdf", None),
    ("control", "save_policy", "control.save_policy", _count_policy_bytes),
    ("control", "load_policy", "control.load_policy", _count_policy_bytes),
    ("simulate", "run_batch", "simulate.run_batch", _count_batch),
    ("simulate", "empirical_cdf", "simulate.empirical_cdf", None),
    ("simulate", "write_samples_csv", "simulate.write_samples_csv", _count_samples_csv),
    ("discrete", "solve_cdf", "discrete.solve_cdf", None),
    ("discrete", "solve_min_cost", "discrete.solve_min_cost", None),
)


def _wrap(tracer: Tracer, fn, name: str, counter):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counter(tracer.counts, bound.arguments, result)
        return result

    return traced


def install(tracer: Tracer, package: str = "pdmp_cdf"):
    """Wrap every hooked function; returns a callable that restores the originals.

    A function imported by name into other package modules (for example
    ``solve_cdf`` into ``bounds`` and ``control``) is replaced there too.
    """
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    undo = []
    for mod_name, attr, span_name, counter in HOOKS:
        owner = sys.modules[f"{package}.{mod_name}"]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, fn_name)
        wrapper = _wrap(tracer, original, span_name, counter)
        if cls_path:
            targets = [owner]
        else:
            targets = [m for m in modules if getattr(m, fn_name, None) is original]
        for target in targets:
            setattr(target, fn_name, wrapper)
            undo.append((target, fn_name, original))

    def uninstall():
        for target, fn_name, original in reversed(undo):
            setattr(target, fn_name, original)

    return uninstall

