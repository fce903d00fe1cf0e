"""Plain oracles for the route-switching graphs of `pdmp_cdf.discrete`.

The per-route cost without switching, the expected cost by one dense
linear solve, and the minimal cost with its attainment probability by a
fixed-point iteration.  They share only `RoutedGraph` with the package, so
a test against them checks the package's solvers and not a copy of them.
`reference_graph_cdf` is the graph CDF as its own level loop, route by
route and source route by source route; ``discrete.solve_cdf``, which runs
through ``cdf_solver._sweep``, must equal it bit for bit.
"""

import math

import numpy as np

from pdmp_cdf.discrete import UNREACHABLE, RoutedGraph
from pdmp_cdf.errors import PdmpError


class SingularSystemError(PdmpError):
    """A linear system has no usable solution (process may never terminate)."""


def reference_graph_cdf(g: RoutedGraph, s_max: float, ds: float = 1.0) -> np.ndarray:
    """The graph CDF w[route, level, node] by a plain upward loop over the levels.

    Exit rows hold the indicator of ``s >= exit cost``; route i at node k
    reads its successor at threshold s - K_i(k), interpolated linearly
    between levels, and a whole shift below level 0 reads zero.
    """
    n_levels = int(round(s_max / ds)) + 1
    m, n = g.n_routes, g.n_nodes
    w = np.zeros((m, n_levels, n))
    ex = g.exit_mask
    for lvl in range(n_levels):
        w[:, lvl, ex] = (lvl * ds >= g.exit_costs[:, ex] - 1e-15).astype(float)

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
                contrib = np.zeros(n)
                contrib[lo_ok] = (1.0 - hi_w[i][lo_ok]) * w[j, lo_lvl[lo_ok], succ[lo_ok]]
                contrib[hi_ok] += hi_w[i][hi_ok] * w[j, np.minimum(hi_lvl[hi_ok], lvl - 1), succ[hi_ok]]
                vals += g.switch_probs[i, j] * contrib
            w[i, lvl, interior] = vals[interior]
    return w


def solve_deterministic_cost(g: RoutedGraph, route: int) -> np.ndarray:
    """Cumulative cost of following one route with no switching.

    Nodes whose route path loops without reaching the exit set get the
    ``UNREACHABLE`` (+inf) sentinel.
    """
    n = g.n_nodes
    cost = np.full(n, np.nan)
    cost[g.exit_mask] = g.exit_costs[route, g.exit_mask]
    state = np.zeros(n, dtype=np.int8)  # 0 new, 1 on stack, 2 done
    state[g.exit_mask] = 2
    for start in range(n):
        if state[start]:
            continue
        path = []
        k = start
        while state[k] == 0:
            state[k] = 1
            path.append(k)
            k = int(g.successors[route, k])
        if state[k] == 1:  # walked into our own stack: a loop off the exit set
            tail = UNREACHABLE
        else:
            tail = cost[k]
        for node in reversed(path):
            tail = g.step_costs[route, node] + tail if math.isfinite(tail) else UNREACHABLE
            cost[node] = tail
            state[node] = 2
    return cost


def solve_expected_cost(g: RoutedGraph, residual_tol: float = 1e-10) -> np.ndarray:
    """Expected cumulative cost u[route, node] via a dense linear solve."""
    m, n = g.n_routes, g.n_nodes
    size = m * n
    a = np.eye(size)
    b = np.zeros(size)
    for i in range(m):
        for k in range(n):
            row = i * n + k
            if g.exit_mask[k]:
                b[row] = g.exit_costs[i, k]
                continue
            b[row] = g.step_costs[i, k]
            succ = int(g.successors[i, k])
            for j in range(m):
                a[row, j * n + succ] -= g.switch_probs[i, j]
    try:
        u = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "expected-cost system is singular; the process may never exit"
        ) from exc
    residual = float(np.max(np.abs(a @ u - b)))
    if residual > residual_tol * max(1.0, float(np.max(np.abs(u)))):
        raise SingularSystemError(
            f"expected-cost solve is unreliable (residual {residual:.3g}); "
            "the process may exit with probability below one"
        )
    return u.reshape(m, n)


def bellman_ford_min_cost(g: RoutedGraph, tie_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point iteration oracle for ``solve_min_cost`` (independent path)."""
    m, n = g.n_routes, g.n_nodes
    s0 = np.full((m, n), UNREACHABLE)
    s0[:, g.exit_mask] = g.exit_costs[:, g.exit_mask]
    allowed = [np.where(g.switch_probs[i] > 0.0)[0] for i in range(m)]
    for _ in range(m * n + 1):
        changed = False
        for i in range(m):
            for k in range(n):
                if g.exit_mask[k]:
                    continue
                y = int(g.successors[i, k])
                best = float(s0[allowed[i], y].min(initial=UNREACHABLE))
                cand = g.step_costs[i, k] + best if math.isfinite(best) else UNREACHABLE
                if cand < s0[i, k] - tie_tol:
                    s0[i, k] = cand
                    changed = True
        if not changed:
            break
    # probabilities by increasing label order (labels strictly decrease along steps)
    w0 = np.zeros((m, n))
    w0[:, g.exit_mask] = 1.0
    order = sorted(
        ((s0[i, k], k, i) for i in range(m) for k in range(n)
         if math.isfinite(s0[i, k]) and not g.exit_mask[k])
    )
    for _, k, i in order:
        y = int(g.successors[i, k])
        opts = s0[allowed[i], y]
        best = float(opts.min())
        members = allowed[i][opts <= best + tie_tol]
        w0[i, k] = float(np.sum(g.switch_probs[i, members] * w0[members, y]))
    return s0, w0
