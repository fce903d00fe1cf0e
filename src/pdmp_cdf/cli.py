"""Command-line front end: problem loading, solver orchestration, CSV export.

Configurations are strict JSON documents (unknown keys are errors); every
run writes long-form CSV slices plus a JSON manifest carrying the config
hash, so reruns are verifiable byte for byte.  No plotting happens here;
the column contract is documented in the README so any external plotter
can reproduce the figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import catalog, cdf_solver, control, discrete, simulate
from .csvtable import Table, write_csv
from .errors import ConfigError, ConvergenceError, NumericsError, PdmpError
from .model import (
    ControlSet,
    ExitSpec,
    Grid,
    ModeSpec,
    ProblemSpec,
    RateBounds,
    RateMatrix,
    ScalarField,
    VectorField,
    build_grid,
    cfl_max_ds,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_CONVERGENCE = 4


# ---------------------------------------------------------------------------
# strict config validation
# ---------------------------------------------------------------------------


def _check_keys(doc: dict, allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys at {path}: {sorted(unknown)}")


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"missing required key {path}.{key}")
    return doc[key]


def _scalar_field(doc: dict, path: str) -> ScalarField:
    _check_keys(doc, {"kind", "value", "values"}, path)
    kind = _need(doc, "kind", path)
    if kind == "constant":
        return ScalarField.constant(float(_need(doc, "value", path)))
    if kind == "tabulated":
        return ScalarField("tabulated", values=np.array(_need(doc, "values", path), dtype=float))
    raise ConfigError(f"unknown scalar field kind {kind!r} at {path}")


def _vector_field(doc: dict, path: str) -> VectorField:
    _check_keys(doc, {"kind", "vector", "offset", "values"}, path)
    kind = _need(doc, "kind", path)
    if kind == "constant":
        return VectorField.constant(_need(doc, "vector", path))
    if kind == "control_offset":
        return VectorField.control_offset(_need(doc, "offset", path))
    if kind == "tabulated":
        return VectorField("tabulated", values=np.array(_need(doc, "values", path), dtype=float))
    raise ConfigError(f"unknown velocity field kind {kind!r} at {path}")


def _exit_spec(doc: dict, path: str) -> ExitSpec:
    _check_keys(doc, {"kind", "faces", "boxes"}, path)
    kind = _need(doc, "kind", path)
    if kind in ("boundary", "none"):
        return ExitSpec(kind)
    if kind == "faces":
        return ExitSpec("faces", faces=tuple(_need(doc, "faces", path)))
    if kind == "boxes":
        boxes = tuple(
            tuple((float(lo), float(hi)) for lo, hi in box)
            for box in _need(doc, "boxes", path)
        )
        return ExitSpec("boxes", boxes=boxes)
    raise ConfigError(f"unknown exit set kind {kind!r} at {path}")


def _controls(doc: dict, path: str) -> ControlSet:
    _check_keys(doc, {"kind", "vectors", "n_angles"}, path)
    kind = _need(doc, "kind", path)
    if kind == "none":
        return ControlSet.none()
    if kind == "list":
        return ControlSet.from_list(_need(doc, "vectors", path))
    if kind == "unit_circle":
        return ControlSet.unit_circle(int(_need(doc, "n_angles", path)))
    raise ConfigError(f"unknown control set kind {kind!r} at {path}")


def parse_graph(doc: dict) -> "discrete.RoutedGraph":
    """Build a routed graph from a problem document with kind 'graph'."""
    path = "problem"
    _check_keys(doc, {"kind", "name", "successors", "step_costs", "exit_costs",
                      "exit_nodes", "switch_probs"}, path)
    succ = np.array(_need(doc, "successors", path), dtype=int)
    n = succ.shape[1] if succ.ndim == 2 else 0
    mask = np.zeros(n, dtype=bool)
    mask[np.array(_need(doc, "exit_nodes", path), dtype=int)] = True
    return discrete.RoutedGraph(
        successors=succ,
        step_costs=np.array(_need(doc, "step_costs", path), dtype=float),
        exit_costs=np.array(_need(doc, "exit_costs", path), dtype=float),
        exit_mask=mask,
        switch_probs=np.array(_need(doc, "switch_probs", path), dtype=float),
    )


def parse_problem(doc: dict | str, n_angles: int | None = None) -> ProblemSpec:
    """Build a ProblemSpec from a builtin name or a full problem document."""
    if isinstance(doc, str):
        return catalog.builtin(doc, n_angles=n_angles)
    path = "problem"
    _check_keys(doc, {"name", "dimension", "domain", "exit", "modes", "rates", "controls"}, path)
    dim = int(_need(doc, "dimension", path))
    dom = _need(doc, "domain", path)
    _check_keys(dom, {"lo", "hi"}, f"{path}.domain")
    modes = []
    for k, mdoc in enumerate(_need(doc, "modes", path)):
        mpath = f"{path}.modes[{k}]"
        _check_keys(mdoc, {"dynamics", "cost", "exit_cost"}, mpath)
        modes.append(ModeSpec(
            dynamics=_vector_field(_need(mdoc, "dynamics", mpath), f"{mpath}.dynamics"),
            cost=_scalar_field(_need(mdoc, "cost", mpath), f"{mpath}.cost"),
            exit_cost=_scalar_field(_need(mdoc, "exit_cost", mpath), f"{mpath}.exit_cost"),
        ))
    rdoc = _need(doc, "rates", path)
    _check_keys(rdoc, {"kind", "matrix", "lower", "upper"}, f"{path}.rates")
    rkind = _need(rdoc, "kind", f"{path}.rates")
    if rkind == "fixed":
        rates = RateMatrix(np.array(_need(rdoc, "matrix", f"{path}.rates"), dtype=float))
    elif rkind == "bounds":
        rates = RateBounds(
            np.array(_need(rdoc, "lower", f"{path}.rates"), dtype=float),
            np.array(_need(rdoc, "upper", f"{path}.rates"), dtype=float),
        )
    else:
        raise ConfigError(f"unknown rates kind {rkind!r} at {path}.rates")
    controls = _controls(doc["controls"], f"{path}.controls") if "controls" in doc else ControlSet.none()
    return ProblemSpec(
        dim=dim, lo=np.array(dom["lo"], dtype=float), hi=np.array(dom["hi"], dtype=float),
        exit_set=_exit_spec(_need(doc, "exit", path), f"{path}.exit"),
        modes=tuple(modes), rates=rates, controls=controls,
        name=str(doc.get("name", "custom")),
    )


_NUMERICS_KEYS = {"dx", "ds", "s_max", "tau", "n_angles", "tol", "max_iter"}
_RUN_KEYS = {"slices", "thresholds", "threshold", "rates", "samples", "seed", "start",
             "restrict", "horizon_cap", "dump_samples"}
_OUTPUT_KEYS = {"dir"}


def load_config(path_or_name: str) -> dict:
    """Read a config file, or synthesize one from a builtin problem name."""
    if path_or_name in catalog.BUILTIN_NAMES:
        return {"schema_version": SCHEMA_VERSION, "problem": path_or_name,
                "numerics": {}, "run": {}, "output": {}}
    p = Path(path_or_name)
    if not p.exists():
        raise ConfigError(f"no such problem file or builtin name: {path_or_name}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path_or_name} is not valid JSON: {exc}") from exc
    _check_keys(doc, {"schema_version", "problem", "numerics", "run", "output"}, "config")
    version = _need(doc, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}; this tool reads {SCHEMA_VERSION}")
    _check_keys(doc.get("numerics", {}), _NUMERICS_KEYS, "config.numerics")
    _check_keys(doc.get("run", {}), _RUN_KEYS, "config.run")
    _check_keys(doc.get("output", {}), _OUTPUT_KEYS, "config.output")
    doc.setdefault("numerics", {})
    doc.setdefault("run", {})
    doc.setdefault("output", {})
    return doc


def _grid_numerics(numerics: dict, dim: int) -> None:
    """Check ``ds``, ``s_max``, ``tau`` and ``dx`` (a scalar, or one entry per axis) before use.

    Each must be a finite number > 0; anything else is a ConfigError.
    """
    for key in ("ds", "s_max", "tau"):
        if key in numerics:
            _positive_number(numerics[key], f"numerics.{key}")
    dx = numerics["dx"]
    if isinstance(dx, list):
        if len(dx) != dim:
            raise ConfigError(f"numerics.dx lists {len(dx)} spacings for a {dim}D problem")
        for a, value in enumerate(dx):
            _positive_number(value, f"numerics.dx[{a}]")
    else:
        _positive_number(dx, "numerics.dx")


def load_problem(path_or_name: str, overrides: dict | None = None):
    """Load, validate, and discretize a problem configuration.

    Returns (spec, grid, numerics, run, output).  The grid numerics are
    checked first (`_grid_numerics`).  Validation rejects non-causal step
    policies outright (``cdf_solver.check_causality``, the solvers' rule);
    the uniform-step inequality is enforced only for space-varying
    velocities, where the exact boundary capping used by the solvers is
    unavailable.
    """
    doc = load_config(path_or_name)
    if overrides:
        for section in ("numerics", "run", "output"):
            doc[section].update({k: v for k, v in overrides.get(section, {}).items() if v is not None})
    numerics = doc["numerics"]
    if _is_graph(doc):
        raise ConfigError("graph problems run only solve-cdf and min-cost")
    name = doc["problem"] if isinstance(doc["problem"], str) else None
    defaults = dict(catalog.DEFAULT_NUMERICS.get(name, {})) if name else {}
    merged = {**defaults, **{k: v for k, v in numerics.items() if v is not None}}
    if "n_angles" in merged:
        if name != "example6":
            raise ConfigError("n_angles is read by the built-in example6 only; a unit-circle "
                              "control set takes controls.n_angles from the problem document")
        merged["n_angles"] = _whole_number(merged["n_angles"], "numerics.n_angles")
    spec = parse_problem(doc["problem"], n_angles=merged.get("n_angles"))
    for key in ("dx", "ds", "s_max"):
        if key not in merged:
            raise ConfigError(f"config.numerics.{key} is required for custom problems")
    _grid_numerics(merged, spec.dim)
    grid = build_grid(spec, merged["dx"], merged["ds"], merged["s_max"])
    if "tau" in merged:
        cdf_solver.check_causality(merged["tau"], spec.min_cost_rate(), grid.ds)
    ds_max = cfl_max_ds(spec, merged["dx"])
    exact_capping = all(m.dynamics.constant_in_space for m in spec.modes)
    if merged["ds"] > ds_max * (1 + 1e-9) and not exact_capping:
        raise NumericsError(
            f"threshold spacing ds={merged['ds']:.6g} exceeds the uniform-step limit "
            f"{ds_max:.6g} and the velocity fields are space-varying; refine ds or dx"
        )
    return spec, grid, merged, doc["run"], doc["output"]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


class Exporter:
    """Writes long-form CSV slices plus a manifest for one run."""

    def __init__(self, out_dir: str, grid_desc: dict, config_doc: dict, seed=None):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files: list[str] = []
        self.t0 = time.time()
        canonical = json.dumps(config_doc, sort_keys=True, default=str).encode()
        self.config_hash = hashlib.sha256(canonical).hexdigest()
        self.grid_desc = grid_desc
        self.seed = seed

    def write_rows(self, name: str, header: list[str], rows: Table) -> Path:
        """Write one CSV file from the columns of ``rows`` (see `csvtable`)."""
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


def _grid_desc(grid: Grid) -> dict:
    return {"lo": grid.lo.tolist(), "dx": grid.dx.tolist(), "shape": list(grid.shape),
            "ds": grid.ds, "n_levels": grid.n_levels}


def _out_dir(args, output: dict) -> str:
    """``--out``, else the config's ``output.dir``, else ``./out``."""
    return args.out or output.get("dir", "out")


def _numbers(values, what: str) -> list[float]:
    """Finite numbers from a comma list ('0.2,0.4') or a JSON list; anything else is a ConfigError."""
    items = values.split(",") if isinstance(values, str) else values
    try:
        out = [float(v) for v in items]
    except (TypeError, ValueError):
        out = []
    if not out or any(isinstance(v, bool) for v in items) or not all(map(math.isfinite, out)):
        raise ConfigError(f"bad {what} {values!r}; use a comma list of finite numbers")
    return out


def _sheet_levels(values: list[float], grid: Grid) -> list[int]:
    """Level indices of threshold sheets, each of which must be a level of the grid."""
    levels = [int(round(s / grid.ds)) for s in values]
    for s, n in zip(values, levels):
        if not 0 <= n < grid.n_levels or abs(n * grid.ds - s) > 1e-9 * max(1.0, abs(s)):
            raise ConfigError(f"slice threshold {s} is not a grid level "
                              f"(0 to {grid.s_max:.6g} by {grid.ds:.6g})")
    return levels


def _parse_slices(texts: list[str], grid: Grid) -> list[tuple[str, list]]:
    """Parse and check slice requests: 's=0.25,0.5' sheets, 'x=0.3,0.7' or 'at=0.4:0.3' curves.

    Sheets become level indices and must be grid levels; curve points must
    lie in the domain.  A bad request is a ConfigError, raised before any solve.
    """
    out: list[tuple[str, list]] = []
    for text in texts:
        if not isinstance(text, str) or "=" not in text:
            raise ConfigError(f"bad slice {text!r}; use s=..., x=..., or at=...")
        axis, _, vals = text.partition("=")
        axis = axis.strip()
        if axis == "s":
            out.append(("s", _sheet_levels(_numbers(vals, "slice thresholds"), grid)))
            continue
        if axis == "x" and grid.dim == 1:
            pts = [[v] for v in _numbers(vals, "slice points")]
        elif axis == "at":
            pts = [_numbers(chunk.split(":"), "slice point") for chunk in vals.split(",")]
            if any(len(pt) != grid.dim for pt in pts):
                raise ConfigError(f"slice points {vals!r} have the wrong dimension")
        else:
            raise ConfigError(f"bad slice axis {axis!r} for dimension {grid.dim}")
        if not np.all(grid.contains(np.array(pts))):
            raise ConfigError(f"slice points {vals!r} lie outside the domain")
        out.append(("point", pts))
    return out


def _field_rows(field_values, grid: Grid, slices, lo=None, hi=None, extra=()) -> Table:
    """Long-form rows (x[, y], mode, s, value[, lo, hi], *extra) for checked slices, as columns.

    The slices come from `_parse_slices`.  A sheet runs over (level, mode,
    node) and a point curve over (mode, level).  Index arithmetic picks the
    nodes, modes and levels of each slice, the slices are stacked, and
    ``extra`` appends constant columns.
    """
    m = field_values.shape[0]
    fields = [f for f in (field_values, lo, hi) if f is not None]
    parts = []
    for kind, items in slices:
        if kind == "s":
            per_level = m * grid.n_nodes
            node = np.tile(np.arange(grid.n_nodes), len(items) * m)
            mode = np.tile(np.repeat(np.arange(m), grid.n_nodes), len(items))
            level = np.repeat(np.asarray(items, dtype=int), per_level)
            coords = grid.points[node]
            values = [f[mode, level, node] for f in fields]
        else:
            per_point = m * grid.n_levels
            coords = np.repeat(np.asarray(items, dtype=float), per_point, axis=0)
            mode = np.tile(np.repeat(np.arange(m), grid.n_levels), len(items))
            level = np.tile(np.arange(grid.n_levels), len(items) * m)
            values = [np.concatenate([grid.curve(f[i], pt) for pt in items for i in range(m)])
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


def _default_slices(run: dict, args, grid: Grid):
    """The requested slices, else sheets at 1/4, 1/2, 3/4 and all of s_max (nearest levels)."""
    texts = args.slice if args.slice else run.get("slices")
    if not texts:
        last = grid.n_levels - 1
        return [("s", list(dict.fromkeys(round(f * last) for f in (0.25, 0.5, 0.75, 1.0))))]
    if isinstance(texts, str):
        texts = [texts]
    return _parse_slices(texts, grid)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _is_graph(doc: dict) -> bool:
    return isinstance(doc["problem"], dict) and doc["problem"].get("kind") == "graph"


_GRAPH_NUMERICS = {"ds": 1.0, "s_max": 10.0}  # the only numerics a graph reads, with defaults


def _graph_doc(args) -> dict | None:
    """The checked config of a graph problem, or None for any other problem.

    The config passes ``load_config`` like every other.  A graph reads only
    ``numerics.ds`` and ``numerics.s_max``, each a finite number > 0; any
    other numerics or run key and every grid flag are configuration errors.
    """
    doc = load_config(args.problem)
    if not _is_graph(doc):
        return None
    flags = [f"--{key.replace('_', '-')}" for key in ("dx", "ds", "s_max", "n_angles", "slice")
             if getattr(args, key, None) is not None]
    if flags:
        raise ConfigError(f"a graph problem reads no grid flags: {', '.join(flags)}")
    _check_keys(doc["numerics"], set(_GRAPH_NUMERICS), "config.numerics of a graph problem")
    _check_keys(doc["run"], set(), "config.run of a graph problem")
    for key, default in _GRAPH_NUMERICS.items():
        _positive_number(doc["numerics"].get(key, default), f"numerics.{key}")
    return doc


def _cmd_solve_cdf(args) -> int:
    gdoc = _graph_doc(args)
    if gdoc is not None:
        g = parse_graph(gdoc["problem"])
        ds, s_max = (float(gdoc["numerics"].get(k, v)) for k, v in _GRAPH_NUMERICS.items())
        w = discrete.solve_cdf(g, s_max=s_max, ds=ds)
        exporter = Exporter(_out_dir(args, gdoc["output"]),
                            {"nodes": g.n_nodes, "routes": g.n_routes, "ds": ds,
                             "n_levels": w.n_levels}, gdoc)
        per_node = g.n_routes * w.n_levels
        rows = Table([np.repeat(np.arange(g.n_nodes), per_node),
                      np.tile(np.repeat(np.arange(1, g.n_routes + 1), w.n_levels), g.n_nodes),
                      np.tile(np.arange(w.n_levels) * ds, g.n_nodes * g.n_routes),
                      w.values.transpose(2, 0, 1).reshape(-1)])
        exporter.write_rows("cdf.csv", ["node", "route", "s", "value"], rows)
        exporter.finish()
        return EXIT_OK
    spec, grid, numerics, run, output = load_problem(args.problem, _overrides(args))
    slices = _default_slices(run, args, grid)
    exporter = Exporter(_out_dir(args, output), _grid_desc(grid),
                        {"cmd": "solve-cdf", "problem": args.problem, "numerics": numerics, "run": run})
    restrict = None
    if _run_flag(run, "restrict", True):
        restrict = cdf_solver.solve_min_cost(spec, grid)
    field = cdf_solver.solve_cdf(spec, grid, tau=numerics.get("tau"), restrict=restrict)
    exporter.write_rows("cdf.csv", _header(spec.dim), _field_rows(field.values, grid, slices))
    exporter.finish()
    return EXIT_OK


def _cmd_min_cost(args) -> int:
    gdoc = _graph_doc(args)
    if gdoc is not None:
        g = parse_graph(gdoc["problem"])
        s0, w0 = discrete.solve_min_cost(g)
        exporter = Exporter(_out_dir(args, gdoc["output"]),
                            {"nodes": g.n_nodes, "routes": g.n_routes, "ds": 1.0, "n_levels": 0},
                            gdoc)
        rows = Table([np.repeat(np.arange(g.n_nodes), g.n_routes),
                      np.tile(np.arange(1, g.n_routes + 1), g.n_nodes),
                      _inf_if_not_finite(s0).T.reshape(-1), w0.T.reshape(-1)])
        exporter.write_rows("min_cost.csv", ["node", "route", "min_cost", "attain_prob"], rows)
        exporter.finish()
        return EXIT_OK
    spec, grid, numerics, run, output = load_problem(args.problem, _overrides(args))
    exporter = Exporter(_out_dir(args, output), _grid_desc(grid),
                        {"cmd": "min-cost", "problem": args.problem, "numerics": numerics})
    mc = cdf_solver.solve_min_cost(spec, grid)
    rows = Table([*_node_mode_columns(grid, spec.n_modes),
                  np.repeat(_inf_if_not_finite(mc.s0), spec.n_modes), mc.w0.T.reshape(-1)])
    exporter.write_rows("min_cost.csv", ["x", "y"][:spec.dim] + ["mode", "min_cost", "attain_prob"], rows)
    exporter.finish({"unreachable_nodes": int(np.count_nonzero(np.isinf(mc.s0) & ~grid.exit_mask)),
                     "min_cost": mc.counters})
    return EXIT_OK


def _cmd_bounds(args) -> int:
    spec, grid, numerics, run, output = load_problem(args.problem, _overrides(args))
    slices = _default_slices(run, args, grid)
    exporter = Exporter(_out_dir(args, output), _grid_desc(grid),
                        {"cmd": "bounds", "problem": args.problem, "numerics": numerics, "run": run})
    restrict = None
    if _run_flag(run, "restrict", True):
        restrict = bounds_mod.solve_min_cost_bounds(spec, grid)
    pair = bounds_mod.solve_bounds(spec, grid, tau=numerics.get("tau"), restrict=restrict)
    mid = 0.5 * (pair.lower.values + pair.upper.values)
    exporter.write_rows(
        "bounds.csv", _header(spec.dim, with_bounds=True),
        _field_rows(mid, grid, slices, lo=pair.lower.values, hi=pair.upper.values))
    exporter.finish()
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec, grid, numerics, run, output = load_problem(args.problem, _overrides(args))
    slices = _default_slices(run, args, grid)
    levels = _numbers(args.rates or run.get("rates", [1.0, 2.0, 3.0, 4.0]), "rate levels")
    exporter = Exporter(_out_dir(args, output), _grid_desc(grid),
                        {"cmd": "sweep", "problem": args.problem, "numerics": numerics, "run": run})
    if spec.n_modes != 2:
        raise ConfigError("the rate sweep grid is defined for two-mode problems")
    rate_grid = bounds_mod.default_rate_grid(levels)
    fields = bounds_mod.fixed_rate_sweep(spec, grid, rate_grid, tau=numerics.get("tau"),
                                         restrict=_run_flag(run, "restrict", True))
    tables = []
    for rm, field in zip(rate_grid, fields):
        off = rm.off_diagonal()
        tables.append(_field_rows(field.values, grid, slices,
                                  extra=(float(off[0, 1]), float(off[1, 0]), "sample")))
    rows = Table.concat(tables)
    exporter.write_rows("sweep.csv", _header(spec.dim, extra=["rate_12", "rate_21", "kind"]), rows)
    clamp = fields[0].clamp
    exporter.finish({"rate_matrices": len(rate_grid),
                     "clamp": None if clamp is None else {"count": clamp.count,
                                                          "largest": clamp.largest}})
    return EXIT_OK


def _run_flag(run: dict, key: str, default: bool) -> bool:
    """A run switch such as ``restrict``: a JSON true or false, else a ConfigError naming the key."""
    value = run.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"run.{key} must be true or false, got {value!r}")
    return value


def _positive_number(value, what: str):
    """A finite number > 0 from a config; bools, strings and lists are ConfigErrors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise ConfigError(f"{what} must be a finite number > 0, got {value!r}")
    return value


def _iteration_numerics(numerics: dict) -> dict:
    """The policy iteration's ``tol`` and ``max_iter``, checked before any solve."""
    tol = _positive_number(numerics.get("tol", 1e-8), "numerics.tol")
    max_iter = _whole_number(numerics.get("max_iter", 1000), "numerics.max_iter")
    if max_iter < 1:
        raise ConfigError(f"numerics.max_iter {max_iter} must be at least 1")
    return {"tol": tol, "max_iter": max_iter}


def _cmd_hjb(args) -> int:
    spec, grid, numerics, run, output = load_problem(args.problem, _overrides(args))
    iteration = _iteration_numerics(numerics)
    exporter = Exporter(_out_dir(args, output), _grid_desc(grid),
                        {"cmd": "hjb", "problem": args.problem, "numerics": numerics})
    value, policy = control.solve_hjb_expectation(spec, grid, tau=numerics.get("tau"), **iteration)
    rows = Table([*_node_mode_columns(grid, spec.n_modes), value.u.T.reshape(-1),
                  policy.actions[:, 0, :].T.reshape(-1)])
    exporter.write_rows("expected_cost.csv", ["x", "y"][:spec.dim] + ["mode", "value", "action"], rows)
    if args.policy_out:
        control.save_policy(policy, args.policy_out)
    exporter.finish()
    return EXIT_OK


def _cmd_threshold(args) -> int:
    spec, grid, numerics, run, output = load_problem(args.problem, _overrides(args))
    iteration = _iteration_numerics(numerics)
    slices = _default_slices(run, args, grid)
    thresholds = args.thresholds or run.get("thresholds")
    if thresholds:
        slices = slices + [("s", _sheet_levels(_numbers(thresholds, "thresholds"), grid))]
    exporter = Exporter(_out_dir(args, output), _grid_desc(grid),
                        {"cmd": "threshold", "problem": args.problem, "numerics": numerics, "run": run})
    restrict = cdf_solver.solve_min_cost(spec, grid) if _run_flag(run, "restrict", False) else None
    hjb = control.solve_hjb_expectation(spec, grid, tau=numerics.get("tau"), **iteration)
    tv = control.solve_threshold(spec, grid, tau=numerics.get("tau"), restrict=restrict, hjb=hjb)
    exporter.write_rows("threshold_cdf.csv", _header(spec.dim),
                        _field_rows(tv.w.values, grid, slices))
    # synthesized action map at the fixed-threshold slices; actions are
    # per-node labels, so only node-exact sheets are exported
    sheet_slices = [(kind, items) for kind, items in slices if kind == "s"]
    if sheet_slices:
        exporter.write_rows("policy_map.csv", ["x", "y"][:spec.dim] + ["mode", "s", "action"],
                            _field_rows(tv.actions, grid, sheet_slices))
    policy = control.synthesize_policy(tv, spec, grid)
    if args.policy_out:
        control.save_policy(policy, args.policy_out)
    exporter.finish()
    return EXIT_OK


def _whole_number(value, what: str) -> int:
    """An integer run value; integral floats such as ``1e5`` are accepted."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return value


def _cmd_simulate(args) -> int:
    spec, grid, numerics, run, output = load_problem(args.problem, _overrides(args))
    seed = _whole_number(args.seed if args.seed is not None else run.get("seed", 0), "seed")
    n = _whole_number(args.n if args.n is not None else run.get("samples", 10000), "sample count")
    if n < 1:
        raise ConfigError(f"sample count {n} must be at least 1")
    exporter = Exporter(_out_dir(args, output), _grid_desc(grid),
                        {"cmd": "simulate", "problem": args.problem, "numerics": numerics,
                         "run": run, "n": n, "seed": seed}, seed=seed)
    policy = control.load_policy(args.policy_in) if args.policy_in else None
    threshold = args.threshold if args.threshold is not None else run.get("threshold")
    start_doc = run.get("start")
    dump_samples = _run_flag(run, "dump_samples", False) or args.dump_samples
    try:
        if args.start:
            coords, _, mode = args.start.rpartition(":")
            start = (np.array([float(v) for v in coords.split(",")]), int(mode) - 1)
        elif start_doc:
            start = (np.array(start_doc[0], dtype=float).reshape(-1), int(start_doc[1]) - 1)
        else:
            start = (0.5 * (spec.lo + spec.hi), 0)
    except (ValueError, TypeError, IndexError, KeyError):
        raise ConfigError("bad start; use 'x[,y]:mode' or [[x, y], mode] (1-based mode)") from None
    batch = simulate.run_batch(spec, start, n, seed, policy=policy, threshold=threshold,
                               horizon_cap=run.get("horizon_cap"), grid=grid)
    ecdf = simulate.empirical_cdf(batch)
    rows = Table([ecdf.costs, ecdf.evaluate(ecdf.costs)])
    exporter.write_rows("empirical_cdf.csv", ["cost", "cdf"], rows)
    if dump_samples:
        simulate.write_samples_csv(batch, str(exporter.dir / "samples.csv"))
        exporter.files.append("samples.csv")
    extra = {
        "n_samples": n,
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
    exporter.finish(extra)
    return EXIT_OK


def _cmd_evaluate_policy(args) -> int:
    spec, grid, numerics, run, output = load_problem(args.problem, _overrides(args))
    if not args.policy_in:
        raise ConfigError("evaluate-policy requires --policy-in")
    exporter = Exporter(_out_dir(args, output), _grid_desc(grid),
                        {"cmd": "evaluate-policy", "problem": args.problem,
                         "numerics": numerics, "run": run})
    slices = _default_slices(run, args, grid)
    policy = control.load_policy(args.policy_in)
    field = control.evaluate_policy_cdf(policy, spec, grid, tau=numerics.get("tau"))
    exporter.write_rows("policy_cdf.csv", _header(spec.dim), _field_rows(field.values, grid, slices))
    exporter.finish()
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _overrides(args) -> dict:
    return {
        "numerics": {"dx": args.dx, "ds": args.ds, "s_max": args.s_max,
                     "n_angles": getattr(args, "n_angles", None)},
        "run": {},
        "output": {},
    }


def _add_common(p: argparse.ArgumentParser, policy_io: bool = False) -> None:
    p.add_argument("--problem", required=True,
                   help="builtin name (example1..example6) or path to a JSON config")
    p.add_argument("--dx", type=float, default=None, help="spatial grid spacing")
    p.add_argument("--ds", type=float, default=None, help="cost-threshold spacing")
    p.add_argument("--s-max", dest="s_max", type=float, default=None, help="largest threshold")
    p.add_argument("--n-angles", dest="n_angles", type=int, default=None,
                   help="control directions for unit-circle control sets")
    p.add_argument("--slice", action="append", default=None,
                   help="export slice: 's=0.25,0.5', 'x=0.3' (1D) or 'at=0.4:0.3' (2D)")
    p.add_argument("--out", default=None,
                   help="output directory (default: the config's output.dir, else ./out)")
    if policy_io:
        p.add_argument("--policy-out", dest="policy_out", default=None,
                       help="write the synthesized policy to this file")


_WRITES_NO_SLICES = {"min-cost", "hjb", "simulate"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdmp-cdf",
        description="Exit-cost CDFs, bounds, and threshold-optimal controls for "
                    "piecewise-deterministic Markov processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, policy_io in (
        ("solve-cdf", _cmd_solve_cdf, False),
        ("min-cost", _cmd_min_cost, False),
        ("bounds", _cmd_bounds, False),
        ("sweep", _cmd_sweep, False),
        ("hjb", _cmd_hjb, True),
        ("threshold", _cmd_threshold, True),
        ("simulate", _cmd_simulate, False),
        ("evaluate-policy", _cmd_evaluate_policy, False),
    ):
        p = sub.add_parser(name)
        _add_common(p, policy_io=policy_io)
        p.set_defaults(fn=fn)
        if name == "sweep":
            p.add_argument("--rates", default=None, help="comma list of sweep rate levels")
        if name == "threshold":
            p.add_argument("--thresholds", default=None,
                           help="comma list of deadline values to export as sheets")
        if name == "simulate":
            p.add_argument("--policy-in", dest="policy_in", default=None)
            p.add_argument("--threshold", type=float, default=None)
            p.add_argument("--n", type=int, default=None, help="sample count")
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--start", default=None, help="start as 'x[,y]:mode' (1-based mode)")
            p.add_argument("--dump-samples", dest="dump_samples", action="store_true")
        if name == "evaluate-policy":
            p.add_argument("--policy-in", dest="policy_in", default=None)

    args = parser.parse_args(argv)
    try:
        if args.slice and args.command in _WRITES_NO_SLICES:
            raise ConfigError(f"{args.command} writes no slices; --slice is not read")
        return args.fn(args)
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
