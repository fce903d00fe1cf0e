"""Fully discrete route-switching processes on directed graphs.

A deterministic route is a feedback map F_i on the node set; after every
step the active route may switch with known probabilities.  This module
computes the full cost CDF (single upward sweep over thresholds), the
minimal attainable cost with its attainment probability (Dijkstra on the
extended node-route graph), and an exact forward-propagation oracle used
to verify both.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError

UNREACHABLE = math.inf  # sentinel for nodes that never reach the exit set


@dataclass(frozen=True)
class RoutedGraph:
    """Directed graph with M feedback routes and route-switching probabilities.

    ``successors[i, k]`` is the node route i moves to from node k,
    ``step_costs[i, k]`` the (strictly positive) cost of that step,
    ``exit_costs[i, k]`` the terminal cost when the walk ends at node k on
    route i, and ``switch_probs`` the row-stochastic switching matrix.
    """

    successors: np.ndarray
    step_costs: np.ndarray
    exit_costs: np.ndarray
    exit_mask: np.ndarray
    switch_probs: np.ndarray

    def __post_init__(self):
        succ = np.array(self.successors, dtype=int)
        costs = np.array(self.step_costs, dtype=float)
        qexit = np.array(self.exit_costs, dtype=float)
        mask = np.array(self.exit_mask, dtype=bool).reshape(-1)
        p = np.array(self.switch_probs, dtype=float)
        m, n = succ.shape
        if costs.shape != (m, n) or qexit.shape != (m, n) or mask.size != n:
            raise ConfigError("graph arrays have inconsistent shapes")
        if p.shape != (m, m):
            raise ConfigError("switch-probability matrix must be M x M")
        if np.any(succ < 0) or np.any(succ >= n):
            raise ConfigError("route successors must be valid node indices")
        if np.any(costs[:, ~mask] <= 0.0):
            raise ConfigError("step costs must be strictly positive off the exit set")
        if np.any(qexit < 0.0):
            raise ConfigError("exit costs must be nonnegative")
        if np.any(p < -1e-15) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-12):
            raise ConfigError("switch probabilities must be row-stochastic")
        for name, arr in (("successors", succ), ("step_costs", costs),
                          ("exit_costs", qexit), ("exit_mask", mask), ("switch_probs", p)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_nodes(self) -> int:
        return self.successors.shape[1]

    @property
    def n_routes(self) -> int:
        return self.successors.shape[0]


@dataclass(frozen=True)
class DiscreteCdf:
    """CDF values w[route, level, node] on a regular threshold grid."""

    values: np.ndarray
    ds: float

    @property
    def n_levels(self) -> int:
        return self.values.shape[1]

    @property
    def s_levels(self) -> np.ndarray:
        return np.arange(self.n_levels) * self.ds

    def at(self, route: int, node: int, s: float) -> float:
        if s < 0.0:
            return 0.0
        n = min(int(math.floor(s / self.ds + 1e-12)), self.n_levels - 1)
        return float(self.values[route, n, node])


def _bc_values(g: RoutedGraph, s: float) -> np.ndarray:
    """Boundary/initial values at threshold s: indicator on exit nodes, else 0."""
    vals = np.zeros((g.n_routes, g.n_nodes))
    ex = g.exit_mask
    vals[:, ex] = (s >= g.exit_costs[:, ex] - 1e-15).astype(float)
    return vals


def solve_cdf(g: RoutedGraph, s_max: float, ds: float = 1.0) -> DiscreteCdf:
    """Cost CDF by one upward sweep over thresholds.

    Each level reads only strictly lower levels (step costs are positive),
    so no iteration is needed.  Step costs that fall between levels are
    resolved by linear interpolation in the threshold, which requires
    every step cost to be at least ``ds``.
    """
    if ds <= 0.0:
        raise NumericsError("threshold spacing must be positive")
    min_k = float(g.step_costs[:, ~g.exit_mask].min()) if np.any(~g.exit_mask) else ds
    if min_k <= 0.0:
        raise NumericsError("step costs must be positive for a causal sweep")
    if min_k < ds - 1e-12:
        raise NumericsError(
            f"smallest step cost {min_k:.6g} is below the threshold spacing {ds:.6g}; "
            "the sweep would not be causal"
        )
    n_levels = int(round(s_max / ds)) + 1
    m, n = g.n_routes, g.n_nodes
    w = np.zeros((m, n_levels, n))
    for lvl in range(n_levels):
        w[:, lvl, g.exit_mask] = _bc_values(g, lvl * ds)[:, g.exit_mask]

    interior = ~g.exit_mask
    # per (route, node): reading position lvl - offset with interpolation
    offs = g.step_costs / ds
    lo_shift = np.ceil(offs - 1e-12).astype(int)  # lower level distance
    hi_w = np.where(lo_shift - offs > 1e-12, lo_shift - offs, 0.0)  # weight on lvl - lo_shift + 1

    for lvl in range(1, n_levels):
        for i in range(m):
            # value at the successor node with threshold lvl*ds - K_i
            succ = g.successors[i]
            lo_lvl = lvl - lo_shift[i]
            hi_lvl = lo_lvl + 1
            # thresholds below zero take the flat zero extension, not a
            # partial interpolation against level zero
            lo_ok = lo_lvl >= 0
            hi_ok = lo_ok & (hi_w[i] > 0.0)
            vals = np.zeros(n)
            for j in range(m):
                # index the successors' levels directly: no (levels, nodes) copy per route pair
                contrib = np.zeros(n)
                contrib[lo_ok] = (1.0 - hi_w[i][lo_ok]) * w[j, lo_lvl[lo_ok], succ[lo_ok]]
                contrib[hi_ok] += hi_w[i][hi_ok] * w[j, np.minimum(hi_lvl[hi_ok], lvl - 1), succ[hi_ok]]
                vals += g.switch_probs[i, j] * contrib
            w[i, lvl, interior] = vals[interior]
    return DiscreteCdf(w, ds)


def solve_min_cost(g: RoutedGraph, tie_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Minimal attainable cost and its probability per (route, node).

    Treats switches as free choices among routes with positive switching
    probability and runs label-setting over (node, route) labels; the
    attainment probability accumulates over the argmin routes as labels
    become final.  Unreachable labels get (+inf, 0).
    """
    m, n = g.n_routes, g.n_nodes
    s0 = np.full((m, n), UNREACHABLE)
    w0 = np.zeros((m, n))
    s0[:, g.exit_mask] = g.exit_costs[:, g.exit_mask]
    w0[:, g.exit_mask] = 1.0

    allowed = [np.where(g.switch_probs[i] > 0.0)[0] for i in range(m)]
    # reverse adjacency: label (y, j) finalized -> labels (x, i) with F_i(x) = y, p_ij > 0
    rev: list[list[tuple[int, int]]] = [[] for _ in range(m * n)]
    for i in range(m):
        for k in range(n):
            if g.exit_mask[k]:
                continue
            y = int(g.successors[i, k])
            for j in allowed[i]:
                rev[j * n + y].append((i, k))

    final = np.zeros((m, n), dtype=bool)
    heap: list[tuple[float, int, int]] = []
    for i in range(m):
        for k in np.where(g.exit_mask)[0]:
            heapq.heappush(heap, (s0[i, k], int(k), i))

    def settle(i: int, k: int) -> None:
        """Recompute the tentative label and probability of (node k, route i)."""
        y = int(g.successors[i, k])
        opts = s0[allowed[i], y]
        best = float(opts.min(initial=UNREACHABLE))
        if not math.isfinite(best):
            return
        cand = g.step_costs[i, k] + best
        if cand < s0[i, k] - tie_tol:
            s0[i, k] = cand
            members = allowed[i][opts <= best + tie_tol]
            w0[i, k] = float(np.sum(g.switch_probs[i, members] * w0[members, y]))
            heapq.heappush(heap, (cand, k, i))

    while heap:
        val, k, i = heapq.heappop(heap)
        if final[i, k] or val > s0[i, k] + tie_tol:
            continue
        final[i, k] = True
        for (i2, k2) in rev[i * n + k]:
            if not final[i2, k2]:
                settle(i2, k2)
    return s0, w0


def brute_force_cdf(
    g: RoutedGraph, s_max: float, depth_max: int, ds: float = 1.0,
    mass_tol: float = 1e-12,
) -> tuple[DiscreteCdf, float]:
    """Exact CDF oracle by forward propagation of (node, route, cost) mass.

    Propagates the joint probability mass on the extended node-route graph
    from every start, accumulating exit-cost mass, and returns the CDF plus
    the largest still-in-flight mass over all starts (a truncation bound).
    Raises when the in-flight mass at ``depth_max`` exceeds ``mass_tol``
    while relevant (cheapest continuation could still land under ``s_max``).
    """
    max_step = float(g.step_costs.max())
    if depth_max * float(g.step_costs[:, ~g.exit_mask].min(initial=max_step)) < s_max - 1e-12:
        raise NumericsError("depth_max is too small to cover the requested threshold range")
    n_levels = int(round(s_max / ds)) + 1
    m, n = g.n_routes, g.n_nodes
    out = np.zeros((m, n_levels, n))
    worst_leftover = 0.0
    for i0 in range(m):
        for k0 in range(n):
            if g.exit_mask[k0]:
                out[i0, :, k0] = (np.arange(n_levels) * ds >= g.exit_costs[i0, k0] - 1e-15)
                continue
            exited: dict[float, float] = {}
            # accumulated cost is path-dependent, so track (route, node, cost) jointly
            flux: dict[tuple[int, int, float], float] = {(i0, k0, 0.0): 1.0}
            for _ in range(depth_max):
                if not flux:
                    break
                nxt: dict[tuple[int, int, float], float] = {}
                for (i, k, c), p in flux.items():
                    y = int(g.successors[i, k])
                    c2 = c + float(g.step_costs[i, k])
                    if c2 > s_max + max_step:  # cannot matter for any level
                        continue
                    for j in range(m):
                        pj = p * g.switch_probs[i, j]
                        if pj == 0.0:
                            continue
                        if g.exit_mask[y]:
                            total = c2 + float(g.exit_costs[j, y])
                            exited[total] = exited.get(total, 0.0) + pj
                        else:
                            key = (j, y, c2)
                            nxt[key] = nxt.get(key, 0.0) + pj
                flux = nxt
            leftover = sum(p for (_, _, c), p in flux.items() if c <= s_max + 1e-12)
            if leftover > mass_tol:
                raise NumericsError(
                    f"brute force truncated with {leftover:.3g} mass in flight from "
                    f"start (route {i0}, node {k0}); increase depth_max"
                )
            worst_leftover = max(worst_leftover, leftover)
            if exited:
                costs = np.array(sorted(exited))
                cum = np.cumsum([exited[c] for c in costs])
                levels = np.arange(n_levels) * ds
                pos = np.searchsorted(costs, levels + 1e-12, side="right")
                out[i0, :, k0] = np.concatenate([[0.0], cum])[pos]
    return DiscreteCdf(out, ds), worst_leftover
