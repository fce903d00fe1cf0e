"""Output checks for the benchmark, independent of the program's own tests.

Every check takes plain arrays read back from the exported CSV files and
returns a list of problems (empty when the output is correct), so the
self-tests can feed deliberately corrupted copies of real outputs.  No
check compares against a stored copy of earlier output: each one tests an
analytic value, a property the method must have, or agreement with an
independent method.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# slack for float rounding on quantities that are exact in exact arithmetic
# (the acceptance suite uses the same 1e-12 for range and monotonicity)
EXACT_TOL = 1e-12
# envelope bracketing slack for sweep samples against the bounds command
ENVELOPE_TOL = 1e-10
# grid thresholds vs continuous Monte-Carlo costs: absorb float dust at atoms
ATOM_EPS = 1e-9


def dkw99(n: int) -> float:
    """Half-width of the 99% Dvoretzky-Kiefer-Wolfowitz band for n samples."""
    return math.sqrt(math.log(200.0) / (2.0 * n))


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Numeric columns of an exported CSV by header name ('inf' reads as +inf)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
        first = next(csv.reader(fh), None)
    if first is None:
        return {name: np.zeros(0) for name in header}
    numeric = [k for k, v in enumerate(first) if _is_number(v)]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=numeric, ndmin=2)
    return {header[k]: data[:, j] for j, k in enumerate(numeric)}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# properties every CDF output must have
# ---------------------------------------------------------------------------


def in_unit_interval(values: np.ndarray, what: str) -> list[str]:
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return [f"{what}: no values exported"]
    lo, hi = float(v.min()), float(v.max())
    if not (np.all(np.isfinite(v)) and lo >= -EXACT_TOL and hi <= 1.0 + EXACT_TOL):
        return [f"{what}: values leave [0, 1] (min {lo!r}, max {hi!r})"]
    return []


def nondecreasing_in_s(keys: np.ndarray, s: np.ndarray, values: np.ndarray,
                       what: str) -> list[str]:
    """Every curve (rows sharing a key, e.g. point and mode) rises with s.

    ``keys`` is an (n_rows, k) array identifying the curve of each row.
    """
    keys = np.asarray(keys, dtype=float).reshape(len(s), -1)
    order = np.lexsort((s, *keys.T[::-1]))
    k_sorted, v_sorted = keys[order], np.asarray(values)[order]
    same = np.all(k_sorted[1:] == k_sorted[:-1], axis=1)
    drops = (v_sorted[1:] - v_sorted[:-1])[same]
    if drops.size and float(drops.min()) < -EXACT_TOL:
        return [f"{what}: a curve decreases in s by {-float(drops.min()):.3g}"]
    return []


def cdf_properties(rows: dict[str, np.ndarray], what: str,
                   key_cols=("x", "y", "mode")) -> list[str]:
    """Range and monotonicity of a long-form (coords, mode, s, value) export."""
    keys = np.column_stack([rows[c] for c in key_cols if c in rows])
    return (in_unit_interval(rows["value"], what)
            + nondecreasing_in_s(keys, rows["s"], rows["value"], what))


# ---------------------------------------------------------------------------
# analytic values
# ---------------------------------------------------------------------------


def dead_zone(rows: dict[str, np.ndarray], s: float, x_lo: float, x_hi: float,
              what: str) -> list[str]:
    """The CDF is exactly zero at threshold s for x strictly inside (x_lo, x_hi)."""
    sel = np.isclose(rows["s"], s) & (rows["x"] > x_lo) & (rows["x"] < x_hi)
    if not sel.any():
        return [f"{what}: no exported node in the dead zone"]
    worst = float(np.abs(rows["value"][sel]).max())
    return [] if worst == 0.0 else [f"{what}: dead zone value {worst:.3g} is not exactly 0"]


def value_near(rows: dict[str, np.ndarray], x: float, mode: int, s: float,
               target: float, tol: float, what: str) -> list[str]:
    sel = np.isclose(rows["x"], x) & (rows["mode"] == mode) & np.isclose(rows["s"], s)
    if sel.sum() != 1:
        return [f"{what}: expected one row at x={x}, mode={mode}, s={s}, found {int(sel.sum())}"]
    got = float(rows["value"][sel][0])
    if abs(got - target) > tol:
        return [f"{what}: value {got:.6f} differs from {target:.6f} by more than {tol}"]
    return []


def mirror_symmetric(rows: dict[str, np.ndarray], what: str) -> list[str]:
    """Two-mode mirror problem: W(x, mode 1, s) = W(1 - x, mode 2, s) at every row."""
    mirrored = {**rows, "x": 1.0 - rows["x"], "mode": 3 - rows["mode"]}
    keys = ("x", "mode", "s")
    ia, ib = _join({k: np.round(mirrored[k], 9) for k in keys} | {"value": rows["value"]},
                   {k: np.round(rows[k], 9) for k in keys}, keys)
    if ia.size != rows["value"].size:
        return [f"{what}: {rows['value'].size - ia.size} rows have no mirror row"]
    gap = float(np.abs(rows["value"][ia] - rows["value"][ib]).max())
    return [] if gap <= EXACT_TOL else [f"{what}: mirror symmetry breaks by {gap:.3g}"]


def min_cost_is_distance(rows: dict[str, np.ndarray], speed: float, what: str) -> list[str]:
    """s0 = distance to the nearest face of the unit box over the fastest speed.

    Valid when the fastest speed toward every face is ``speed`` and the
    running cost is one, as in example3 (speed 1) and example6 (speed 1.5).
    """
    coords = np.column_stack([rows[c] for c in ("x", "y") if c in rows])
    dist = np.minimum(coords, 1.0 - coords).min(axis=1)
    gap = float(np.abs(rows["min_cost"] - dist / speed).max())
    problems = [] if gap <= EXACT_TOL else [
        f"{what}: s0 differs from distance/{speed} by {gap:.3g}"]
    return problems + in_unit_interval(rows["attain_prob"], f"{what} attainment probability")


# ---------------------------------------------------------------------------
# agreement between outputs
# ---------------------------------------------------------------------------


def _join(a: dict[str, np.ndarray], b: dict[str, np.ndarray], keys) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of a and b that share the same key tuple (b's keys must be unique)."""
    index = {tuple(r): k for k, r in enumerate(np.column_stack([b[c] for c in keys]).tolist())}
    ia, ib = [], []
    for k, r in enumerate(np.column_stack([a[c] for c in keys]).tolist()):
        j = index.get(tuple(r))
        if j is not None:
            ia.append(k)
            ib.append(j)
    return np.array(ia, dtype=int), np.array(ib, dtype=int)


def inside_envelope(samples: dict[str, np.ndarray], env: dict[str, np.ndarray],
                    what: str, keys=("x", "mode", "s")) -> list[str]:
    """Every fixed-rate sample lies between the lower and upper bound envelopes."""
    ia, ib = _join(samples, env, keys)
    if ia.size != samples["value"].size:
        return [f"{what}: {samples['value'].size - ia.size} sample rows have no envelope row"]
    v, lo, hi = samples["value"][ia], env["value_lo"][ib], env["value_hi"][ib]
    below = float((lo - v).max())
    above = float((v - hi).max())
    if below > ENVELOPE_TOL or above > ENVELOPE_TOL:
        return [f"{what}: samples leave the envelope (below by {below:.3g}, above by {above:.3g})"]
    return []


def dominates(upper: dict[str, np.ndarray], lower: dict[str, np.ndarray], what: str,
              keys=("x", "mode", "s")) -> list[str]:
    """upper >= lower at every exported point the two share, to within EXACT_TOL."""
    ia, ib = _join(lower, upper, keys)
    if ia.size != lower["value"].size:
        return [f"{what}: {lower['value'].size - ia.size} rows have no counterpart"]
    gap = float((lower["value"][ia] - upper["value"][ib]).max())
    return [] if gap <= EXACT_TOL else [f"{what}: dominance fails by {gap:.3g}"]


def expected_cost_bounds(rows: dict[str, np.ndarray], speed: float, what: str) -> list[str]:
    """Expected cost is 0 on the exit set (x = 0, 1) and at least distance/speed inside."""
    x = rows["x"]
    exit_nodes = (x == 0.0) | (x == 1.0)
    problems = []
    if not exit_nodes.any() or float(np.abs(rows["value"][exit_nodes]).max()) != 0.0:
        problems.append(f"{what}: expected cost is not 0 on the exit nodes")
    short = float((np.minimum(x, 1.0 - x) / speed - EXACT_TOL - rows["value"]).max())
    if short > 0.0:
        problems.append(f"{what}: expected cost undercuts distance/{speed} by {short:.3g}")
    return problems


def actions_in_range(actions: np.ndarray, n_actions: int, what: str) -> list[str]:
    a = np.asarray(actions)
    if a.size == 0:
        return [f"{what}: no actions exported"]
    if np.any(a != np.round(a)) or a.min() < 0 or a.max() >= n_actions:
        return [f"{what}: actions leave [0, {n_actions}) (min {a.min()}, max {a.max()})"]
    return []


def zero_below_min_cost(cdf: dict[str, np.ndarray], mc: dict[str, np.ndarray],
                        what: str) -> list[str]:
    """Graph CDF rows with s below the node's minimal attainable cost are exactly 0."""
    ia, ib = _join(cdf, mc, ("node", "route"))
    if ia.size != cdf["value"].size:
        return [f"{what}: {cdf['value'].size - ia.size} CDF rows have no min-cost row"]
    below = cdf["s"][ia] < mc["min_cost"][ib] - EXACT_TOL
    if not below.any():
        return [f"{what}: no row lies below its minimal cost"]
    worst = float(np.abs(cdf["value"][ia][below]).max())
    return [] if worst == 0.0 else [f"{what}: CDF is {worst:.3g} below the minimal cost"]


def equal_to_oracle(rows: dict[str, np.ndarray], oracle: np.ndarray, ds: float,
                    what: str) -> list[str]:
    """Graph CDF rows equal oracle[route, level, node] to within EXACT_TOL."""
    route = rows["route"].astype(int) - 1
    level = np.round(rows["s"] / ds).astype(int)
    node = rows["node"].astype(int)
    if rows["value"].size != oracle.size:
        return [f"{what}: {rows['value'].size} rows for {oracle.size} oracle values"]
    gap = float(np.abs(rows["value"] - oracle[route, level, node]).max())
    return [] if gap <= EXACT_TOL else [f"{what}: differs from the brute-force oracle by {gap:.3g}"]


# ---------------------------------------------------------------------------
# Monte-Carlo
# ---------------------------------------------------------------------------


def ecdf_at(ecdf: dict[str, np.ndarray], t) -> np.ndarray | float:
    """Evaluate an exported empirical CDF (cost, cdf rows at sorted costs) at t."""
    pos = np.searchsorted(ecdf["cost"], np.asarray(t, dtype=float), side="right")
    vals = np.concatenate([[0.0], ecdf["cdf"]])[pos]
    return float(vals) if np.ndim(t) == 0 else vals


def ecdf_shape(ecdf: dict[str, np.ndarray], n: int, what: str) -> list[str]:
    problems = in_unit_interval(ecdf["cdf"], what)
    if np.any(np.diff(ecdf["cost"]) < 0) or np.any(np.diff(ecdf["cdf"]) < 0):
        problems.append(f"{what}: costs or CDF values are not sorted")
    if ecdf["cdf"].size and abs(ecdf["cdf"][-1] - ecdf["cost"].size / n) > EXACT_TOL:
        problems.append(f"{what}: last CDF value disagrees with the finite-cost count")
    return problems


def ecdf_matches_curve(ecdf: dict[str, np.ndarray], s: np.ndarray, curve: np.ndarray,
                       tol: float, what: str) -> list[str]:
    """sup over grid levels of |empirical - grid curve| stays within tol."""
    sup = float(np.abs(ecdf_at(ecdf, s + ATOM_EPS) - curve).max())
    return [] if sup <= tol else [f"{what}: sup distance {sup:.4f} exceeds {tol:.4f}"]


def no_cost_below(ecdf: dict[str, np.ndarray], s_min: float, what: str) -> list[str]:
    low = float(ecdf["cost"].min()) if ecdf["cost"].size else math.inf
    return [] if low >= s_min - EXACT_TOL else [f"{what}: a cost {low!r} lies below {s_min}"]


def samples_match_manifest(samples: dict[str, np.ndarray], manifest: dict,
                           what: str) -> list[str]:
    """Row count and outcome flags of samples.csv agree with manifest.json."""
    problems = []
    if samples["sample"].size != manifest["n_samples"]:
        problems.append(f"{what}: {samples['sample'].size} rows for n_samples "
                        f"{manifest['n_samples']}")
    for flag in ("exited", "escaped", "censored"):
        got = int(samples[flag].sum())
        if got != manifest[flag]:
            problems.append(f"{what}: {got} {flag} rows but manifest says {manifest[flag]}")
    if np.any(samples["exited"] + samples["escaped"] + samples["censored"] != 1):
        problems.append(f"{what}: a sample does not have exactly one outcome flag")
    finite = np.isfinite(samples["cost"])
    if np.any(finite != (samples["exited"] == 1)):
        problems.append(f"{what}: finite costs and exited flags disagree")
    return problems
