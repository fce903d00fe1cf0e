"""Slow, plain reference solvers that the tests compare the package against.

They share the package's discretization (the semi-Lagrangian steps and the
min-cost update candidates) but not its iterations, so a test against them
checks the solver and not the scheme.
"""

import heapq
import math

import numpy as np

from pdmp_cdf.cdf_solver import ESCAPE_COST, SemiLagrangianStep, _min_cost_candidates


def value_iteration(spec, grid, tol=1e-13, max_iter=200_000):
    """Expectation-optimal value u[mode, node] by plain value iteration."""
    tau = grid.dx.min() / spec.max_speed()
    steps = [[SemiLagrangianStep(spec, grid, tau, i, action=a) for a in spec.controls.vectors]
             for i in range(spec.n_modes)]
    ex = grid.exit_mask
    q = np.array([mode.exit_cost.node_values(grid) for mode in spec.modes])
    u = np.where(ex, q, 0.0)
    for _ in range(max_iter):
        new = np.empty_like(u)
        for i, row in enumerate(steps):
            per_action = []
            for st in row:
                vals = np.full(grid.n_nodes, ESCAPE_COST)
                foot = sum(st.probs[j] * (st.reg_w * u[j][st.reg_idx]).sum(axis=0)
                           for j in range(spec.n_modes))
                vals[st.reg_nodes] = st.tau * st.node_cost[st.reg_nodes] + foot
                vals[st.cap_nodes] = st.cap_ds + (st.cap_probs * st.cap_q).sum(axis=1)
                per_action.append(vals)
            new[i] = np.min(per_action, axis=0)
        new[:, ex] = q[:, ex]
        if np.abs(new - u).max() < tol:
            return new
        u = new
    raise AssertionError("value iteration did not converge")


def _candidate_value(cand, values, k):
    a, b, frac = cand.foot_a[k], cand.foot_b[k], cand.frac[k]
    if a < 0 or (frac > 0.0 and b < 0):
        return math.inf
    foot = (1.0 - frac) * values[a] + (frac * values[b] if frac > 0.0 else 0.0)
    return cand.cost[k] * cand.h[k] + foot


def label_setting_min_cost(spec, grid, argmin_rtol=1e-9):
    """2D minimal cost s0 by label setting and w0 filled in increasing-s0 order."""
    cands = _min_cost_candidates(spec, grid)
    n, m, ex = grid.n_nodes, spec.n_modes, grid.exit_mask
    q = np.array([mode.exit_cost.node_values(grid) for mode in spec.modes])
    s0 = np.where(ex, q.min(axis=0), math.inf)
    multi = np.array(np.unravel_index(np.arange(n), grid.shape)).T
    final = np.zeros(n, dtype=bool)
    heap = [(s0[k], k) for k in np.where(ex)[0]]
    while heap:
        val, k = heapq.heappop(heap)
        if final[k] or val > s0[k]:
            continue
        final[k] = True
        for off in ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)):
            nb = multi[k] + off
            if np.any(nb < 0) or np.any(nb >= grid.shape):
                continue
            k2 = int(grid.flat_index(nb))
            best = min(_candidate_value(c, s0, k2) for c in cands)
            if not final[k2] and not ex[k2] and best < s0[k2]:
                s0[k2] = best
                heapq.heappush(heap, (best, k2))

    lam = spec.rates.off_diagonal()
    w0 = np.where(ex & (q <= s0 + argmin_rtol * np.maximum(1.0, s0)), 1.0, 0.0)
    interior = np.where(~ex & np.isfinite(s0))[0]
    for k in interior[np.argsort(s0[interior], kind="stable")]:
        per_mode = {}
        for c in cands:
            val = _candidate_value(c, s0, k)
            if val < per_mode.get(c.mode, (math.inf, None))[0]:
                per_mode[c.mode] = (val, c)
        best = min(val for val, _ in per_mode.values())
        for i, (val, c) in per_mode.items():
            if val <= best + argmin_rtol * max(1.0, abs(best)):
                a, b, frac = c.foot_a[k], c.foot_b[k], c.frac[k]
                foot = (1.0 - frac) * w0[:, a] + (frac * w0[:, b] if frac > 0.0 else 0.0)
                drift = sum(lam[i, j] * (foot[j] - foot[i]) for j in range(m) if j != i)
                w0[i, k] = np.clip(foot[i] + c.h_at_foot[k] * drift, 0.0, 1.0)
    return s0, w0
