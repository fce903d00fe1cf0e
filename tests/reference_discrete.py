"""Plain oracles for the route-switching graphs of `pdmp_cdf.discrete`.

The per-route cost without switching, the expected cost by one dense
linear solve, and the minimal cost with its attainment probability by a
fixed-point iteration.  They share only `RoutedGraph` with the package, so
a test against them checks the package's solvers and not a copy of them.
"""

import math

import numpy as np

from pdmp_cdf.discrete import UNREACHABLE, RoutedGraph
from pdmp_cdf.errors import SingularSystemError


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
