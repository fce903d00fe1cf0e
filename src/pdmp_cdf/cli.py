"""Command-line front end: problem loading, solver orchestration, CSV export.

Configurations are strict JSON documents, checked once before any solve
against `SCHEMA`, the one table of what each command reads.  Every run
writes long-form CSV slices plus a JSON manifest carrying the config hash,
so reruns are verifiable byte for byte.  No plotting happens here; the
column contract is documented in the README so any external plotter can
reproduce the figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging.handlers
import math
import sys
import time
from dataclasses import replace
from functools import cache, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import catalog, cdf_solver, control, discrete, simulate
from .csvtable import Table, write_csv
from .errors import ConfigError, ConvergenceError, NumericsError, PdmpError
from .model import (
    CdfField,
    ControlSet,
    ExitSpec,
    Grid,
    Keep,
    MinCostField,
    ModeSpec,
    ProblemSpec,
    RateBounds,
    RateMatrix,
    ScalarField,
    VectorField,
    build_grid,
    cfl_max_ds,
    grid_desc,
)
from .reader import (_ANGLES, _AXES, _COUNT, _FINITE, _HORIZON, _OBJECT, _POSITIVE, _STRING,
                     CONTROLS, Obj, Rule, _array, _check_keys, _instance, _read, _value, _whole)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_CONVERGENCE = 4


# ---------------------------------------------------------------------------
# the config schema: one table of every numerics, run and output key
# ---------------------------------------------------------------------------

SECTIONS = ("numerics", "run", "output")
SWEEPS = frozenset({"solve-cdf", "bounds", "sweep", "threshold", "evaluate-policy"})  # level sweeps
GRID = SWEEPS | {"min-cost", "hjb", "simulate"}  # every command, on a grid problem
GRAPH = "graph"  # the column of a graph problem, which runs solve-cdf and min-cost only
_ITERATION, _SIMULATE = frozenset({"hjb", "threshold"}), frozenset({"simulate"})


def _numbers(values) -> list[float]:
    """Finite numbers from a comma list ('0.2,0.4') or a JSON list; at least one."""
    items = values.split(",") if isinstance(values, str) else values
    out = [float(v) for v in items]
    if not out or any(isinstance(v, bool) for v in items) or not all(map(math.isfinite, out)):
        raise ValueError(values)
    return out


def _spacing(value):
    """One spacing, or a list of one per axis."""
    if isinstance(value, list) and value:
        return [_POSITIVE.parse(v) for v in value]
    return _POSITIVE.parse(value)


def _slice_texts(value) -> list[str]:
    """One slice request or a list of them; `_parse_slices` reads them against the grid."""
    texts = [value] if isinstance(value, str) else value
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError(value)
    return texts


def _start(value) -> tuple[list[float], int]:
    """``'x[,y]:mode'`` (the flag) or ``[[x, y], mode]`` (a config; a bare number is a 1D
    point), the mode 1-based: (point, mode index)."""
    if isinstance(value, str):
        point, _, mode = value.rpartition(":")
        return _numbers(point), int(mode) - 1
    point, mode = value
    return _array(0, 1)(point).reshape(-1).tolist(), _whole(1)(mode) - 1


_SWITCH = Rule("true or false", _instance(bool), {"action": "store_const", "const": True})
_NUMBERS = Rule("finite numbers, as a comma list or a JSON list", _numbers)


class Key(NamedTuple):
    """One row of `SCHEMA`: the key's value rule, default, readers (columns) and flag.

    A dict ``default`` holds one value per column, its ``None`` entry the
    rest.  Every command takes the flag, which reads its text as the rule's
    ``flag`` says; ``flag_readers`` narrows the columns that read it
    (`_check` rejects it elsewhere), and ``problem`` names the one problem
    that reads the key.
    """

    rule: Rule
    default: object
    readers: frozenset
    flag: str | None = None
    flag_readers: frozenset | None = None
    problem: str | None = None


SCHEMA: dict[tuple[str, str], Key] = {
    ("numerics", "dx"): Key(Rule("a finite number > 0, or a list of one per axis", _spacing,
                                 {"type": float}), None, GRID, "--dx"),
    ("numerics", "ds"): Key(_POSITIVE, {GRAPH: 1.0, None: None}, GRID | {GRAPH}, "--ds", GRID),
    ("numerics", "s_max"): Key(_POSITIVE, {GRAPH: 10.0, None: None}, GRID | {GRAPH}, "--s-max", GRID),
    ("numerics", "tau"): Key(_POSITIVE, None, SWEEPS | {"hjb"}),
    ("numerics", "n_angles"): Key(_ANGLES, None, GRID, "--n-angles", problem="example6"),
    ("numerics", "tol"): Key(_POSITIVE, 1e-8, _ITERATION),
    ("numerics", "max_iter"): Key(_COUNT, 1000, _ITERATION),
    ("run", "slices"): Key(Rule("a slice request or a list of them", _slice_texts,
                                {"action": "append"}), None, SWEEPS, "--slice"),
    ("run", "thresholds"): Key(_NUMBERS, None, frozenset({"threshold"}), "--thresholds"),
    ("run", "rates"): Key(_NUMBERS, (1.0, 2.0, 3.0, 4.0), frozenset({"sweep"}), "--rates"),
    ("run", "restrict"): Key(_SWITCH, {"threshold": False, None: True},
                             frozenset({"solve-cdf", "bounds", "sweep", "threshold"})),
    ("run", "samples"): Key(_COUNT, 10000, _SIMULATE, "--n"),
    ("run", "seed"): Key(Rule("a whole number in [0, 2**64)", _whole(0, 2**64), _COUNT.flag),
                         0, _SIMULATE, "--seed"),
    ("run", "start"): Key(Rule("'x[,y]:mode' or [[x, y], mode], 1-based", _start), None, _SIMULATE,
                          "--start"),
    ("run", "threshold"): Key(_FINITE, None, _SIMULATE, "--threshold"),
    ("run", "horizon_cap"): Key(_HORIZON, None, _SIMULATE),
    ("run", "dump_samples"): Key(_SWITCH, False, _SIMULATE, "--dump-samples"),
    ("output", "dir"): Key(_STRING, "out", GRID | {GRAPH}, "--out"),
}
_UNSET = object()


def _check(doc: dict, flags: dict, column: str | None, name: str | None) -> tuple[dict, ...]:
    """The one config check: a config and its flags against ``column`` of `SCHEMA`.

    A flag replaces its key's config value.  An unknown key, a key or flag
    the column does not read, and a value that breaks its rule are
    ConfigErrors naming it.  Returns (numerics, run, output): the value of
    every key the column reads (every key without a column), an unset key
    taking the built-in problem's default, else the table's.
    """
    for section in SECTIONS:
        _check_keys(doc[section], {key for sec, key in SCHEMA if sec == section}, f"config.{section}")
    values = {section: {} for section in SECTIONS}
    builtin = catalog.DEFAULT_NUMERICS.get(name, {})
    for (section, key), entry in SCHEMA.items():
        flagged = flags.get(section, {}).get(key)
        if flagged is None:
            value, what, readers = doc[section].get(key, _UNSET), f"{section}.{key}", entry.readers
        else:
            value, what = flagged, entry.flag or f"{section}.{key}"
            readers = entry.flag_readers or entry.readers
        reads = column is None or column in readers
        if value is _UNSET:
            if reads:
                default = entry.default
                if isinstance(default, dict):
                    default = default.get(column, default[None])
                values[section][key] = builtin.get(key, default)
        elif not reads:
            raise ConfigError(f"{'a graph problem' if column == GRAPH else column} does not read {what}")
        elif entry.problem not in (None, name):
            raise ConfigError(f"{what} is read by the built-in {entry.problem} only")
        else:
            values[section][key] = _value(entry.rule, value, what)
    return tuple(values[section] for section in SECTIONS)


# ---------------------------------------------------------------------------
# the problem schema: one table of every problem object, its kinds and keys
# ---------------------------------------------------------------------------


def _boxes(value) -> tuple:
    boxes = _array(3)(value)
    if boxes.shape[2] != 2:
        raise ValueError(value)
    return tuple(tuple(map(tuple, box)) for box in boxes.tolist())


def _problem(dimension, domain, exit, modes, rates, controls=ControlSet.none(), name="custom"):
    return ProblemSpec(dimension, domain["lo"], domain["hi"], exit, tuple(modes), rates, controls,
                       name)


def _graph(successors, step_costs, exit_costs, exit_nodes, switch_probs, name=None):
    """A routed graph from its problem object's keys; the ``name`` is read and dropped."""
    n = successors.shape[1]
    if np.any((exit_nodes < 0) | (exit_nodes >= n)):
        raise ConfigError(f"exit_nodes must be node indices 0 to {n - 1}")
    return discrete.RoutedGraph(successors, step_costs, exit_costs,
                                np.isin(np.arange(n), exit_nodes), switch_probs)


_MODES = Rule("a matrix of finite numbers, one row per mode", _array(2))
_ROUTES = Rule("a matrix of finite numbers, one row per route", _array(2))

# A key's shape is a `Rule` (a value), the name of an object here, or [name] (a list of them).
PROBLEM: dict[str, Obj | dict[str, Obj]] = {
    "problem": Obj(_problem, {"name": _STRING, "dimension": Rule("1 or 2", _whole(1, 3)),
                              "domain": "domain", "exit": "exit", "modes": ["mode"], "rates": "rates",
                              "controls": "controls"}, frozenset({"name", "controls"})),
    "domain": Obj(dict, {"lo": _AXES, "hi": _AXES}),
    "exit": {kind: Obj(partial(ExitSpec, kind), keys) for kind, keys in (
        ("boundary", {}), ("none", {}),
        ("faces", {"faces": Rule("a list of face names", lambda v: tuple(_instance(list)(v)))}),
        ("boxes", {"boxes": Rule("a list of boxes, each a [lo, hi] pair per axis", _boxes)}))},
    "mode": Obj(ModeSpec, {"dynamics": "velocity", "cost": "cost", "exit_cost": "cost"}),
    "velocity": {"constant": Obj(VectorField.constant, {"vector": _AXES}),
                 "control_offset": Obj(VectorField.control_offset, {"offset": _AXES}),
                 "tabulated": Obj(partial(VectorField, "tabulated"), {"values": Rule(
                     "a list of velocities (lists of finite numbers), one per grid node",
                     _array(2))})},
    "cost": {"constant": Obj(ScalarField.constant, {"value": _FINITE}),
             "tabulated": Obj(partial(ScalarField, "tabulated"), {"values": Rule(
                 "a list of finite numbers, one per grid node", _array(1))})},
    "rates": {"fixed": Obj(lambda matrix: RateMatrix(matrix), {"matrix": _MODES}),
              "bounds": Obj(RateBounds, {"lower": _MODES, "upper": _MODES})},
    "controls": CONTROLS,
    "graph": {"graph": Obj(_graph, {
        "name": _STRING, "step_costs": _ROUTES, "exit_costs": _ROUTES, "switch_probs": _ROUTES,
        "successors": Rule("a matrix of node indices, one row per route", _array(2, integral=True)),
        "exit_nodes": Rule("a list of node indices", _array(1, integral=True)),
    }, frozenset({"name"}))},
}


def parse_graph(doc: dict) -> "discrete.RoutedGraph":
    """Build a routed graph from a problem document with kind 'graph'."""
    return _read(doc, "graph", "problem", PROBLEM)


def parse_problem(doc: dict | str, n_angles: int | None = None) -> ProblemSpec:
    """Build a ProblemSpec from a builtin name or a full problem document."""
    if isinstance(doc, str):
        return catalog.builtin(doc, n_angles=n_angles)
    return _read(doc, "problem", "problem", PROBLEM)


def _config(schema_version, problem, **sections) -> dict:
    return {"schema_version": schema_version, "problem": problem,
            **{section: sections.get(section, {}) for section in SECTIONS}}


# the outline of a config document; `SCHEMA` reads its sections, `PROBLEM` its problem object
CONFIG = {"config": Obj(_config, {
    "schema_version": Rule(f"{SCHEMA_VERSION}, the version this tool reads",
                           _whole(SCHEMA_VERSION, SCHEMA_VERSION + 1)),
    "problem": Rule("a built-in name or a problem object", _instance((str, dict))),
    **dict.fromkeys(SECTIONS, _OBJECT)}, frozenset(SECTIONS))}


def load_config(path_or_name: str) -> dict:
    """Read a config file, or synthesize one from a builtin problem name.

    This reads the outline only (`CONFIG`): ``schema_version`` 1, a
    problem name or object, and sections that are objects.
    """
    if path_or_name in catalog.BUILTIN_NAMES:
        return _config(SCHEMA_VERSION, path_or_name)
    p = Path(path_or_name)
    if not p.exists():
        raise ConfigError(f"no such problem file or builtin name: {path_or_name}")
    try:
        doc = json.loads(p.read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"config {path_or_name} is not valid JSON: {exc}") from exc
    return _read(doc, "config", "config", CONFIG)


def load_problem(config: str | dict, flags: dict | None = None, command: str | None = None):
    """Load a config (or take a document `load_config` read), check it once for
    ``command`` (`_check`), and discretize it.

    ``flags`` holds flag values by section, None where unset.  Returns
    (problem, grid, numerics, run, output), with slices and thresholds
    checked against the grid; a graph comes back as its
    `discrete.RoutedGraph` with grid None.  Non-causal level-sweep steps
    are rejected outright (``cdf_solver.check_causality``); ``hjb``'s
    ``tau`` is its expected-cost step, which has no such rule.  The
    uniform-step inequality binds only space-varying velocities, where the
    solvers' exact boundary capping is unavailable.
    """
    doc = config if isinstance(config, dict) else load_config(config)
    name = doc["problem"] if isinstance(doc["problem"], str) else None
    if isinstance(doc["problem"], dict) and doc["problem"].get("kind") == "graph":
        if command not in (None, "solve-cdf", "min-cost"):
            raise ConfigError("graph problems run only solve-cdf and min-cost")
        return (parse_graph(doc["problem"]), None, *_check(doc, flags or {}, GRAPH, name))
    numerics, run, output = _check(doc, flags or {}, command, name)
    spec = parse_problem(doc["problem"], n_angles=numerics["n_angles"])
    for key in ("dx", "ds", "s_max"):
        if numerics[key] is None:
            raise ConfigError(f"config.numerics.{key} is required for custom problems")
    dx, ds = numerics["dx"], numerics["ds"]
    if isinstance(dx, list) and len(dx) != spec.dim:
        raise ConfigError(f"numerics.dx lists {len(dx)} spacings for a {spec.dim}D problem")
    grid = build_grid(spec, dx, ds, numerics["s_max"])
    if numerics.get("tau") is not None and command != "hjb":
        cdf_solver.check_causality(numerics["tau"], spec.min_cost_rate(), grid.ds)
    ds_max = cfl_max_ds(spec, dx)
    exact_capping = all(m.dynamics.constant_in_space for m in spec.modes)
    if ds > ds_max * (1 + 1e-9) and not exact_capping:
        raise NumericsError(
            f"threshold spacing ds={ds:.6g} exceeds the uniform-step limit "
            f"{ds_max:.6g} and the velocity fields are space-varying; refine ds or dx"
        )
    if "slices" in run:
        run["slices"] = _parse_slices(run["slices"], grid)
    if run.get("thresholds"):
        run["thresholds"] = _sheet_levels(run["thresholds"], grid)
    return spec, grid, numerics, run, output


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


class Exporter:
    """Writes long-form CSV slices plus a manifest for one run.

    The directory is made with the first file, so a run that fails before
    it writes anything leaves none.
    """

    def __init__(self, out_dir: str, grid_desc: dict, config_doc: dict, seed=None):
        self.dir = Path(out_dir)
        self.files: list[str] = []
        self.t0 = time.time()
        canonical = json.dumps(config_doc, sort_keys=True, default=str).encode()
        self.config_hash = hashlib.sha256(canonical).hexdigest()
        self.grid_desc = grid_desc
        self.seed = seed

    def write_rows(self, name: str, header: list[str], rows: Table) -> Path:
        """Write one CSV file from the columns of ``rows`` (see `csvtable`)."""
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / name
        write_csv(path, header, rows)
        self.files.append(name)
        return path

    def finish(self, extra: dict | None = None) -> Path:
        from . import __version__
        manifest = {
            "config_sha256": self.config_hash,
            "tool_version": __version__,
            "grid": self.grid_desc,
            "seed": self.seed,
            "wall_time_s": round(time.time() - self.t0, 3),
            "files": self.files,
        }
        if extra:
            manifest.update(extra)
        path = self.dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        return path


def _sheet_levels(values: list[float], grid: Grid) -> list[int]:
    """Level indices of threshold sheets, each of which must be a level of the grid."""
    levels = [int(round(s / grid.ds)) for s in values]
    for s, n in zip(values, levels):
        if not 0 <= n < grid.n_levels or abs(n * grid.ds - s) > 1e-9 * max(1.0, abs(s)):
            raise ConfigError(f"slice threshold {s} is not a grid level "
                              f"(0 to {grid.s_max:.6g} by {grid.ds:.6g})")
    return levels


def _parse_slices(texts: list[str] | None, grid: Grid) -> list[tuple[str, list]]:
    """Parse and check slice requests: 's=0.25,0.5' sheets, 'x=0.3,0.7' or 'at=0.4:0.3' curves.

    Sheets become level indices and must be grid levels; curve points must
    lie in the domain.  A bad request is a ConfigError, raised before any
    solve.  Without requests: sheets at 1/4, 1/2, 3/4 and all of s_max
    (nearest levels).
    """
    if not texts:
        last = grid.n_levels - 1
        return [("s", list(dict.fromkeys(round(f * last) for f in (0.25, 0.5, 0.75, 1.0))))]
    out: list[tuple[str, list]] = []
    for text in texts:
        axis, _, vals = text.partition("=")
        axis = axis.strip()
        try:
            if axis == "s":
                out.append(("s", _sheet_levels(_numbers(vals), grid)))
                continue
            if axis == "at" or axis == "x" and grid.dim == 1:  # a 1D point is one number
                pts = [_numbers(chunk.split(":")) for chunk in vals.split(",")]
            else:
                raise ConfigError(f"bad slice {text!r} for dimension {grid.dim}; "
                                  "use s=..., x=... (1D) or at=... (2D)")
        except ValueError:
            raise ConfigError(f"bad slice {text!r}; use a comma list of finite numbers") from None
        if any(len(pt) != grid.dim for pt in pts):
            raise ConfigError(f"slice points {vals!r} have the wrong dimension")
        if not np.all(grid.contains(np.array(pts))):
            raise ConfigError(f"slice points {vals!r} lie outside the domain")
        out.append(("point", pts))
    return out


def _keep(slices, grid: Grid) -> Keep:
    """What a sweep must store for checked slices: their sheet levels and curve stencil nodes."""
    return Keep.of(grid, [n for kind, items in slices if kind == "s" for n in items],
                   [pt for kind, items in slices if kind == "point" for pt in items])


def _field_rows(field, grid: Grid, slices, lo=None, hi=None, extra=()) -> Table:
    """Long-form rows (x[, y], mode, s, value[, lo, hi], *extra) for checked slices, as columns.

    The slices come from `_parse_slices`.  ``field``, ``lo`` and ``hi`` are
    CdfFields, whole or swept with the slices' `_keep`, or (M, L, N) arrays.
    A sheet runs over (level, mode, node), read by `CdfField.sheets`, and a
    point curve over (mode, level), read by `CdfField.curve`.  Index
    arithmetic lays out the nodes, modes and levels of each slice, the
    slices are stacked, and ``extra`` appends constant columns.
    """
    fields = [f if isinstance(f, CdfField) else CdfField(grid, f)
              for f in (field, lo, hi) if f is not None]
    m = fields[0].n_modes
    parts = []
    for kind, items in slices:
        if kind == "s":
            node = np.tile(np.arange(grid.n_nodes), len(items) * m)
            mode = np.tile(np.repeat(np.arange(m), grid.n_nodes), len(items))
            level = np.repeat(np.asarray(items, dtype=int), m * grid.n_nodes)
            coords = grid.points[node]
            values = [f.sheets(items).transpose(1, 0, 2).reshape(-1) for f in fields]
        else:
            per_point = m * grid.n_levels
            coords = np.repeat(np.asarray(items, dtype=float), per_point, axis=0)
            mode = np.tile(np.repeat(np.arange(m), grid.n_levels), len(items))
            level = np.tile(np.arange(grid.n_levels), len(items) * m)
            values = [np.concatenate([f.curve(i, pt) for pt in items for i in range(m)])
                      for f in fields]
        parts.append([*coords.T, mode + 1, level * grid.ds, *values])
    return Table([*(np.concatenate(col) for col in zip(*parts)), *extra])


def _node_mode_columns(grid: Grid, n_modes: int) -> list[np.ndarray]:
    """Coordinate and 1-based mode columns of per-(node, mode) rows, node slowest."""
    return [*np.repeat(grid.points, n_modes, axis=0).T,
            np.tile(np.arange(1, n_modes + 1), grid.n_nodes)]


def _inf_if_not_finite(values: np.ndarray) -> np.ndarray:
    """Minimal costs as written: every non-finite value reads ``inf``."""
    return np.where(np.isfinite(values), values, np.inf)


def _header(dim: int, with_bounds: bool = False, extra: list[str] | None = None) -> list[str]:
    cols = ["x", "y"][:dim] + ["mode", "s", "value"]
    if with_bounds:
        cols += ["value_lo", "value_hi"]
    return cols + (extra or [])


# ---------------------------------------------------------------------------
# subcommands: each gets the checked values and the run's exporter, and
# returns the manifest's extra entries
# ---------------------------------------------------------------------------


def _graph_cdf(args, g, grid, numerics, run, exporter):
    ds, s_max = float(numerics["ds"]), float(numerics["s_max"])
    w = discrete.solve_cdf(g, s_max=s_max, ds=ds)
    exporter.grid_desc.update({"ds": ds, "n_levels": w.n_levels})
    per_node = g.n_routes * w.n_levels
    rows = Table([np.repeat(np.arange(g.n_nodes), per_node),
                  np.tile(np.repeat(np.arange(1, g.n_routes + 1), w.n_levels), g.n_nodes),
                  np.tile(np.arange(w.n_levels) * ds, g.n_nodes * g.n_routes),
                  w.values.transpose(2, 0, 1).reshape(-1)])
    exporter.write_rows("cdf.csv", ["node", "route", "s", "value"], rows)


def _graph_min_cost(args, g, grid, numerics, run, exporter):
    s0, w0 = discrete.solve_min_cost(g)
    exporter.grid_desc.update({"ds": 1.0, "n_levels": 0})
    rows = Table([np.repeat(np.arange(g.n_nodes), g.n_routes),
                  np.tile(np.arange(1, g.n_routes + 1), g.n_nodes),
                  _inf_if_not_finite(s0).T.reshape(-1), w0.T.reshape(-1)])
    exporter.write_rows("min_cost.csv", ["node", "route", "min_cost", "attain_prob"], rows)


def _sweep_report(clamp, restrict: MinCostField | None = None) -> dict:
    """A sweep's manifest entries: its clamp (null unrestricted) and its seed's counters."""
    report = {"clamp": None if clamp is None else {"count": clamp.count, "largest": clamp.largest}}
    if restrict is not None:
        report["min_cost"] = restrict.counters
    return report


def _cmd_solve_cdf(args, spec, grid, numerics, run, exporter):
    restrict = cdf_solver.solve_min_cost(spec, grid) if run["restrict"] else None
    field = cdf_solver.solve_cdf(spec, grid, tau=numerics["tau"], restrict=restrict,
                                 keep=_keep(run["slices"], grid))
    exporter.write_rows("cdf.csv", _header(spec.dim), _field_rows(field, grid, run["slices"]))
    return _sweep_report(field.clamp, restrict)


def _cmd_min_cost(args, spec, grid, numerics, run, exporter):
    mc = cdf_solver.solve_min_cost(spec, grid)
    rows = Table([*_node_mode_columns(grid, spec.n_modes),
                  np.repeat(_inf_if_not_finite(mc.s0), spec.n_modes), mc.w0.T.reshape(-1)])
    exporter.write_rows("min_cost.csv", ["x", "y"][:spec.dim] + ["mode", "min_cost", "attain_prob"], rows)
    return {"unreachable_nodes": int(np.count_nonzero(np.isinf(mc.s0) & ~grid.exit_mask)),
            "min_cost": mc.counters}


def _cmd_bounds(args, spec, grid, numerics, run, exporter):
    restrict = bounds_mod.solve_min_cost_bounds(spec, grid) if run["restrict"] else None
    keep = _keep(run["slices"], grid)
    pair = bounds_mod.solve_bounds(spec, grid, tau=numerics["tau"], restrict=restrict, keep=keep)
    lo, hi = pair.lower, pair.upper
    # the midpoint of the kept slices only: each value as the whole fields' midpoint has it
    mid = CdfField(grid, 0.5 * (lo.values + hi.values), keep=keep,
                   columns=0.5 * (lo.columns + hi.columns))
    exporter.write_rows("bounds.csv", _header(spec.dim, with_bounds=True),
                        _field_rows(mid, grid, run["slices"], lo=lo, hi=hi))
    return _sweep_report(pair.lower.clamp, restrict)


def _cmd_sweep(args, spec, grid, numerics, run, exporter):
    if spec.n_modes != 2:
        raise ConfigError("the rate sweep grid is defined for two-mode problems")
    rate_grid = bounds_mod.default_rate_grid(run["rates"])
    restrict = cdf_solver.MinimalCost(spec, grid).stacked(
        [(replace(spec, rates=rm), None) for rm in rate_grid]) if run["restrict"] else None
    fields = bounds_mod.fixed_rate_sweep(spec, grid, rate_grid, tau=numerics["tau"],
                                         restrict=restrict, keep=_keep(run["slices"], grid))
    tables = []
    for rm, field in zip(rate_grid, fields):
        off = rm.off_diagonal()
        tables.append(_field_rows(field, grid, run["slices"],
                                  extra=(float(off[0, 1]), float(off[1, 0]), "sample")))
    rows = Table.concat(tables)
    exporter.write_rows("sweep.csv", _header(spec.dim, extra=["rate_12", "rate_21", "kind"]), rows)
    return {"rate_matrices": len(rate_grid), **_sweep_report(fields[0].clamp, restrict)}


def _cmd_hjb(args, spec, grid, numerics, run, exporter):
    value, policy = control.solve_hjb_expectation(spec, grid, tau=numerics["tau"],
                                                  tol=numerics["tol"], max_iter=numerics["max_iter"])
    rows = Table([*_node_mode_columns(grid, spec.n_modes), value.u.T.reshape(-1),
                  policy.actions[:, 0, :].T.reshape(-1)])
    exporter.write_rows("expected_cost.csv", ["x", "y"][:spec.dim] + ["mode", "value", "action"], rows)
    if args.policy_out:
        control.save_policy(policy, args.policy_out)


def _cmd_threshold(args, spec, grid, numerics, run, exporter):
    slices = run["slices"] + ([("s", run["thresholds"])] if run["thresholds"] else [])
    restrict = cdf_solver.solve_min_cost(spec, grid) if run["restrict"] else None
    # tau is the sweep's step; the tie-breaking expectation solve keeps its own default step
    hjb = control.solve_hjb_expectation(spec, grid, tol=numerics["tol"], max_iter=numerics["max_iter"])
    tv = control.solve_threshold(spec, grid, tau=numerics["tau"], restrict=restrict, hjb=hjb,
                                 keep=_keep(slices, grid))
    exporter.write_rows("threshold_cdf.csv", _header(spec.dim), _field_rows(tv.w, grid, slices))
    # synthesized action map at the fixed-threshold slices; actions are
    # per-node labels, so only node-exact sheets are exported
    sheet_slices = [(kind, items) for kind, items in slices if kind == "s"]
    if sheet_slices:
        exporter.write_rows("policy_map.csv", ["x", "y"][:spec.dim] + ["mode", "s", "action"],
                            _field_rows(tv.actions, grid, sheet_slices))
    policy = control.synthesize_policy(tv, spec, grid)
    if args.policy_out:
        control.save_policy(policy, args.policy_out)
    return _sweep_report(tv.w.clamp, restrict)


def _cmd_simulate(args, spec, grid, numerics, run, exporter):
    policy = control.load_policy(args.policy_in) if args.policy_in else None
    start = run["start"] or (0.5 * (spec.lo + spec.hi), 0)
    batch = simulate.run_batch(spec, start, run["samples"], run["seed"], policy=policy,
                               threshold=run["threshold"], horizon_cap=run["horizon_cap"], grid=grid)
    ecdf = simulate.empirical_cdf(batch)
    rows = Table([ecdf.costs, ecdf.evaluate(ecdf.costs)])
    exporter.write_rows("empirical_cdf.csv", ["cost", "cdf"], rows)
    if run["dump_samples"]:
        simulate.write_samples_csv(batch, str(exporter.dir / "samples.csv"))
        exporter.files.append("samples.csv")
    extra = {
        "n_samples": run["samples"],
        "rng": simulate.RNG_CONTRACT,
        "switches": int(batch.switch_counts.sum()),
        "events": int(batch.events.sum()),
        "exited": int(batch.exited.sum()),
        "escaped": int(batch.escaped.sum()),
        "censored": int(batch.censored.sum()),
        "dkw_99": ecdf.dkw_epsilon(0.01),
    }
    if bool(batch.exited.all()):
        mean, se = simulate.estimate_mean(batch)
        extra.update({"mean": mean, "standard_error": se})
    return extra


def _cmd_evaluate_policy(args, spec, grid, numerics, run, exporter):
    if not args.policy_in:
        raise ConfigError("evaluate-policy requires --policy-in")
    policy = control.load_policy(args.policy_in)
    field = control.evaluate_policy_cdf(policy, spec, grid, tau=numerics["tau"],
                                        keep=_keep(run["slices"], grid))
    exporter.write_rows("policy_cdf.csv", _header(spec.dim), _field_rows(field, grid, run["slices"]))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _execute(args) -> None:
    """Check the config and flags once (`load_problem`), then run the command and export.

    The manifest lists the messages of the ``pdmp_cdf`` WARNING records the
    command logged, under ``warnings``, when there is one.
    """
    flags = {section: {} for section in SECTIONS}
    for (section, key), entry in SCHEMA.items():
        if entry.flag:
            flags[section][key] = getattr(args, entry.flag[2:].replace("-", "_"))
    doc = load_config(args.problem)
    problem, grid, numerics, run, output = load_problem(doc, flags, args.command)
    desc = ({"nodes": problem.n_nodes, "routes": problem.n_routes} if grid is None
            else grid_desc(grid))
    # the config hash covers the command, the problem run (not its file) and every value read
    exporter = Exporter(output["dir"], desc, {"cmd": args.command, "problem": doc["problem"],
                                              "numerics": numerics, "run": run},
                        seed=run.get("seed"))
    command = args.graph_fn if grid is None else args.fn
    log, caught = logging.getLogger("pdmp_cdf"), logging.handlers.BufferingHandler(math.inf)
    caught.setLevel(logging.WARNING)  # fallbacks taken, such as a failed sparse LU
    log.addHandler(caught)
    try:
        extra = command(args, problem, grid, numerics, run, exporter) or {}
    finally:
        log.removeHandler(caught)
    if caught.buffer:
        extra["warnings"] = [record.getMessage() for record in caught.buffer]
    exporter.finish(extra)


def _flag_reading(entry: Key) -> dict:
    """argparse keywords of ``entry``'s flag.  A text its ``type`` cannot read is a
    ConfigError naming the flag: argparse exits on a ValueError but lets it through."""
    keywords = dict(entry.rule.flag)
    if "type" in keywords:
        keywords["type"] = partial(_value, entry.rule._replace(parse=keywords["type"]),
                                   what=entry.flag)
    return keywords


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built once: parsing leaves an argparse parser as it was."""
    parser = argparse.ArgumentParser(
        prog="pdmp-cdf",
        description="Exit-cost CDFs, bounds, and threshold-optimal controls for "
                    "piecewise-deterministic Markov processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, graph_fn in (
        ("solve-cdf", _cmd_solve_cdf, _graph_cdf),
        ("min-cost", _cmd_min_cost, _graph_min_cost),
        ("bounds", _cmd_bounds, None),
        ("sweep", _cmd_sweep, None),
        ("hjb", _cmd_hjb, None),
        ("threshold", _cmd_threshold, None),
        ("simulate", _cmd_simulate, None),
        ("evaluate-policy", _cmd_evaluate_policy, None),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn, graph_fn=graph_fn)
        p.add_argument("--problem", required=True,
                       help="builtin name (example1..example6) or path to a JSON config")
        # every command takes every table flag; `_check` rejects those it does not read
        for (section, key), entry in SCHEMA.items():
            if entry.flag:
                p.add_argument(entry.flag, help=f"{section}.{key}: {entry.rule.text}",
                               **_flag_reading(entry))
        if name in ("hjb", "threshold"):
            p.add_argument("--policy-out", dest="policy_out", default=None,
                           help="write the synthesized policy to this file")
        if name in ("simulate", "evaluate-policy"):
            p.add_argument("--policy-in", dest="policy_in", default=None)
    return parser


def main(argv=None) -> int:
    try:
        _execute(_parser().parse_args(argv))
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except PdmpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
