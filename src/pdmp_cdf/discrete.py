"""Fully discrete route-switching processes on directed graphs.

A deterministic route is a feedback map F_i on the node set; after every
step the active route may switch with known probabilities.  This module
computes the full cost CDF (the grid solvers' upward sweep over thresholds),
the minimal attainable cost with its attainment probability (``label_setting``,
the package's one shortest-path routine, on the extended node-route graph),
and an exact forward-propagation oracle used to verify both.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError

UNREACHABLE = math.inf  # sentinel for nodes that never reach the exit set
TIE_TOL = 1e-12  # slack for the routes that attain a label's minimal cost


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


def solve_cdf(g: RoutedGraph, s_max: float, ds: float = 1.0) -> DiscreteCdf:
    """Cost CDF by one upward sweep over thresholds, ``cdf_solver._sweep``.

    A route step is a one-point stencil: route i at a live node k reads its
    successor ``shift`` = ceil(K_i(k) / ds) levels below, with weight ``hi_w``
    on the level above (linear interpolation, which needs every step cost to
    be at least ``ds``; a whole shift below level 0 reads zero), and mixes
    the source routes by p_ij in route order.  The past levels sit in one
    array, so a level is one gather of every row, whatever the shifts.
    """
    from .cdf_solver import _sweep  # cdf_solver imports label_setting from here

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
    m, n = g.n_routes, g.n_nodes
    rows = np.flatnonzero(np.tile(~g.exit_mask, m))  # live (route, node) rows i * n + k
    offs = g.step_costs.ravel()[rows] / ds
    shift = np.ceil(offs - 1e-12).astype(int)
    hi_w = np.where(shift - offs > 1e-12, shift - offs, 0.0)
    hi_shift = np.maximum(shift - 1, 1)  # the level above, but never the level being swept
    depth = int(shift.max(initial=1))
    past = np.zeros((depth, m, n))  # level k at k % depth; one not yet swept (below 0) reads 0
    cols = np.arange(m)[:, None] * n + g.successors.ravel()[rows]  # (M, rows): (j, successor)
    probs = g.switch_probs[rows // n].T  # (M, rows): p_ij of each row's route i

    def read(levels: np.ndarray) -> np.ndarray:
        return past.reshape(-1)[levels % depth * (m * n) + cols]

    def update(level, lvl: int) -> np.ndarray:
        past[(lvl - 1) % depth] = level(lvl - 1)[0]
        x = read(lvl - shift)
        if hi_w.any():
            hi = np.where(shift <= lvl, hi_w, 0.0)  # a whole shift below level 0 reads zero
            x = (1.0 - hi) * x + hi * read(lvl - hi_shift)
        vals = np.zeros((1, m, n))
        vals.reshape(-1)[rows] = sum(pj * xj for pj, xj in zip(probs, x))  # in route order
        return vals

    ((w, _),), _ = _sweep(g.exit_mask, g.exit_costs[:, g.exit_mask], ds,
                          int(round(s_max / ds)) + 1, None, update, "graph CDF sweep", 1, 1)
    return DiscreteCdf(w, ds)


def label_setting(src: np.ndarray, dst: np.ndarray, cost: np.ndarray,
                  s0: np.ndarray) -> tuple[np.ndarray, int]:
    """Shortest paths from the finite labels of ``s0`` (Dijkstra's label setting).

    Label u starts at ``s0[u]``, and edge e runs from label ``src[e]`` to
    label ``dst[e]`` at a nonnegative ``cost[e]``.  Every label ends at the
    least ``s0[src] + cost`` over its in-edges, or keeps its own ``s0``
    where that is smaller; a candidate replaces a label only when strictly
    smaller.  Returns the labels and the number of decreases.
    """
    order = np.argsort(src, kind="stable")
    start = np.searchsorted(src[order], np.arange(s0.size + 1)).tolist()
    to, step = dst[order].tolist(), cost[order].tolist()
    s = s0.tolist()
    heap = [(v, u) for u, v in enumerate(s) if v < math.inf]
    heapq.heapify(heap)
    decreases = 0
    while heap:
        d, u = heapq.heappop(heap)
        if d > s[u]:  # a stale entry: u has decreased since
            continue
        for e in range(start[u], start[u + 1]):
            cand, v = d + step[e], to[e]
            if cand < s[v]:
                s[v] = cand
                decreases += 1
                heapq.heappush(heap, (cand, v))
    return np.array(s), decreases


def solve_min_cost(g: RoutedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Minimal attainable cost and its probability per (route, node).

    Treats switches as free choices among routes with positive switching
    probability, so s0 is a shortest path over (route, node) labels: an
    edge runs from (j, succ_i(k)) to every live (i, k) with p_ij > 0 at
    cost K_i(k) (``label_setting``).  w0 is then filled in increasing s0:
    each label sums p_ij * w0[j, succ_i(k)] over the routes j that attain
    its minimum within ``TIE_TOL``, in route order.  Unreachable labels
    get (+inf, 0).
    """
    m, n = g.n_routes, g.n_nodes
    live = np.flatnonzero(~g.exit_mask)
    s0 = np.where(g.exit_mask, g.exit_costs, UNREACHABLE)
    route, to = np.nonzero(g.switch_probs > 0.0)  # every (i, j) with p_ij > 0
    src = to[:, None] * n + g.successors[route][:, live]
    dst = np.broadcast_to(route[:, None] * n + live, src.shape)
    s0, _ = label_setting(src.ravel(), dst.ravel(), g.step_costs[route][:, live].ravel(),
                          s0.ravel())
    s0 = s0.reshape(m, n)

    # per label, (j * n, p_ij) for the routes j that attain its minimum, in route order
    pairs = []
    for i in range(m):
        allowed = np.flatnonzero(g.switch_probs[i] > 0.0)
        opts = s0[allowed][:, g.successors[i]]
        offer = list(zip((allowed * n).tolist(), g.switch_probs[i, allowed].tolist()))
        pairs += [[jp for jp, hit in zip(offer, row) if hit]
                  for row in (opts <= opts.min(axis=0) + TIE_TOL).T.tolist()]
    labels = np.flatnonzero(np.isfinite(s0) & ~g.exit_mask)
    labels = labels[np.argsort(s0.ravel()[labels], kind="stable")]
    flat = np.where(g.exit_mask, 1.0, np.zeros((m, n))).ravel().tolist()
    succ = g.successors.ravel().tolist()
    for u in labels.tolist():
        flat[u] = sum(p * flat[jn + succ[u]] for jn, p in pairs[u])
    return s0, np.array(flat).reshape(m, n)


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
