"""Slow, plain reference solvers that the tests compare the package against.

They share the package's semi-Lagrangian steps (node classification and
boundary data) but not its iterations or its sparse operators: feet are
interpolated node by node with ``grid.interp_nodes``.  The min-cost update
candidates are built here too, node by node in scalar arithmetic, so the
label-setting reference shares neither the package's candidate table nor
its sweeps.  A test against them checks the solver and not the scheme.
`solve_expected` (the uncontrolled expected cost) and `eulerian_step` (an
upwind finite-difference form of the 1D level update) are cross-checks of
the scheme itself.  `howard_every_pass` is plain Howard policy iteration
over the package's stacked operators, with a sparse LU on every pass.
`per_side_bounds` is the bound sweep run one envelope at a time, each
side with its own gather, seed and clamp, which the two-field sweep of
``bounds.solve_bounds`` must equal bit for bit.  `reference_sweep` is the
level sweep with its seeding and monotone clamp as whole-array
``np.where`` steps, and `reference_w0_ordered` the 1D attainment fill as a
per-node loop over numpy vectors of the rate choices; ``cdf_solver._sweep``
and ``cdf_solver._w0_ordered`` must equal them bit for bit.
The references mix modes with one-step probabilities they compute
themselves (``step_probs``, ``cap_probs``), and `transition_probabilities`
keeps the exact matrix exponential that the package's first-order rule is
checked against.
"""

import heapq
import itertools
import math
from dataclasses import replace

import numpy as np

from pdmp_cdf import model
from pdmp_cdf.cdf_solver import (
    ARGMIN_RTOL,
    ESCAPE_COST,
    MinimalCost,
    SemiLagrangianStep,
    StepStack,
    _sweep,
    causal_tau,
    exit_costs,
    policy_iteration,
)
from pdmp_cdf.errors import ConfigError, NumericsError
from pdmp_cdf.model import CdfField, Grid, ProblemSpec


def transition_probabilities(rates, tau, method="first_order"):
    """The package's first-order I + tau*Q, or the exact exp(tau*Q) with ``method="exact"``."""
    if method == "first_order":
        return model.transition_probabilities(rates, tau)
    if method == "exact":
        return _expm(tau * rates.matrix)
    raise ConfigError(f"unknown transition-probability method {method!r}")


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring over a Taylor series."""
    norm = float(np.max(np.sum(np.abs(a), axis=1), initial=0.0))
    n_squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0.5 else 0
    b = a / (2.0**n_squarings)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 80):
        term = term @ b / k
        result = result + term
        if float(np.max(np.abs(term))) < 1e-16 * max(1.0, float(np.max(np.abs(result)))):
            break
    for _ in range(n_squarings):
        result = result @ result
    return result


def step_probs(q, step):
    """The step's mode row of the one-step probabilities, I + tau*Q, entry by entry."""
    m = q.shape[0]
    return np.array([(j == step.mode) + step.tau * q[step.mode, j] for j in range(m)])


def cap_probs(q, step):
    """The capped nodes' mode mix over their shortened steps, I + theta*tau*Q, row by row."""
    m = q.shape[0]
    return np.array([[(j == step.mode) + tt * q[step.mode, j] for j in range(m)]
                     for tt in step.cap_theta_tau]).reshape(-1, m)


def _feet(spec, grid, step, action=None):
    """Foot points of every node's step, clipped to the box as the solver clips them."""
    vel = spec.modes[step.mode].dynamics.at(grid, grid.points, action)
    return np.clip(grid.points + step.tau * vel, grid.lo, grid.hi)


def value_iteration(spec, grid, tol=1e-13, max_iter=200_000):
    """Expectation-optimal value u[mode, node] by plain value iteration."""
    tau = grid.dx.min() / spec.max_speed()
    steps = [[SemiLagrangianStep(spec, grid, tau, i, action=a) for a in spec.controls.vectors]
             for i in range(spec.n_modes)]
    feet = [[_feet(spec, grid, st, a)[st.reg_nodes] for a, st in zip(spec.controls.vectors, row)]
            for row in steps]
    ex = grid.exit_mask
    q = np.array([mode.exit_cost.node_values(grid) for mode in spec.modes])
    rates = spec.rates.matrix
    u = np.where(ex, q, 0.0)
    for _ in range(max_iter):
        new = np.empty_like(u)
        for i, row in enumerate(steps):
            per_action = []
            for st, foot_pts in zip(row, feet[i]):
                vals = np.full(grid.n_nodes, ESCAPE_COST)
                probs = step_probs(rates, st)
                foot = sum(probs[j] * grid.interp_nodes(u[j], foot_pts)
                           for j in range(spec.n_modes))
                vals[st.reg_nodes] = st.tau * st.node_cost[st.reg_nodes] + foot
                vals[st.cap_nodes] = st.cap_ds + (cap_probs(rates, st) * st.cap_q).sum(axis=1)
                per_action.append(vals)
            new[i] = np.min(per_action, axis=0)
        new[:, ex] = q[:, ex]
        if np.abs(new - u).max() < tol:
            return new
        u = new
    raise AssertionError("value iteration did not converge")


def level_sweep(spec, grid, tau, u=None, action=None):
    """W and its companion expected cost V, swept level by level node by node.

    Every regular node reads its foot point with ``grid.interp_nodes`` on
    the levels n - shift and n - shift + 1 its running cost reaches, weighted
    (1 - frac) and frac; a foot below threshold zero reads zero for W and
    level 0 for V.  Capped and escaping nodes take the step's boundary data.
    With ``u`` (the expectation-optimal value) V follows the one-action
    threshold sweep: it is pinned to u where W is zero.
    """
    m, ns, nn = spec.n_modes, grid.n_levels, grid.n_nodes
    ex = grid.exit_mask
    q = np.array([mode.exit_cost.node_values(grid) for mode in spec.modes])
    steps = [SemiLagrangianStep(spec, grid, tau, i, action=action) for i in range(m)]
    probs = [step_probs(spec.rates.matrix, st) for st in steps]
    caps = [cap_probs(spec.rates.matrix, st) for st in steps]
    feet = [_feet(spec, grid, st, action) for st in steps]
    costs = [spec.modes[i].cost.at(grid, grid.points) for i in range(m)]
    w = np.zeros((m, ns, nn))
    v = np.zeros((m, ns, nn))
    w[:, 0] = ex & (0.0 >= q - 1e-15)
    v[:, 0] = np.where(ex, q, 0.0 if u is None else u)
    for n in range(1, ns):
        for i, st in enumerate(steps):
            for k in st.reg_nodes:
                off = tau * costs[i][k] / grid.ds
                shift = math.ceil(off - 1e-12)
                frac = shift - off if shift > 1 and shift - off >= 1e-12 else 0.0

                def at(arr, lvl):
                    return sum(probs[i][j] * grid.interp_nodes(arr[j, lvl], feet[i][k:k + 1])[0]
                               for j in range(m))

                lo = n - shift
                if lo >= 0:
                    w[i, n, k] = (1.0 - frac) * at(w, lo) + frac * at(w, lo + 1)
                v[i, n, k] = tau * costs[i][k] + (1.0 - frac) * at(v, max(lo, 0)) \
                    + frac * at(v, max(lo + 1, 0))
            bc = (n * grid.ds - st.cap_ds)[:, None] >= st.cap_q - 1e-15
            w[i, n, st.cap_nodes] = (caps[i] * bc).sum(axis=1)
            v[i, n, st.cap_nodes] = st.cap_ds + (caps[i] * st.cap_q).sum(axis=1)
            v[i, n, st.esc_nodes] = ESCAPE_COST
            if u is not None:
                v[i, n] = np.where(w[i, n] <= 0.0, u[i], v[i, n])
            w[i, n, ex] = n * grid.ds >= q[i, ex] - 1e-15
            v[i, n, ex] = q[i, ex]
    return w, v


def _cell_times(grid, v):
    with np.errstate(over="ignore"):  # a tiny speed never crosses: inf
        return [grid.dx[a] / abs(v[a]) if abs(v[a]) > 0 else math.inf for a in range(grid.dim)]


def plain_candidates(spec, grid):
    """Min-cost update candidates, one dict of per-node arrays per (mode, action).

    Node by node: the step runs to the first cell face (the lower axis on
    a tie), its foot is the neighbour across that face, and in 2D the
    foot leans towards the diagonal neighbour by the fraction of a cell
    the other velocity component covers meanwhile.  ``const`` is the
    running cost times the step duration, inf when the foot leaves the
    grid; ``h_at_foot`` is the duration with the foot node's velocity for
    tabulated dynamics.  Rows come mode by mode, action by action.
    """
    actions = list(spec.controls.vectors) if spec.controlled else [None]
    n, d = grid.n_nodes, grid.dim
    multi = np.array(np.unravel_index(np.arange(n), grid.shape)).T
    cands = []
    for i, mode in enumerate(spec.modes):
        for act in actions:
            vel = mode.dynamics.at(grid, grid.points, act)
            cost = mode.cost.at(grid, grid.points)
            c = {"mode": i, "const": np.full(n, math.inf), "frac": np.zeros(n),
                 "foot_a": np.full(n, -1), "foot_b": np.full(n, -1), "h_at_foot": np.zeros(n)}
            for k in range(n):
                t = _cell_times(grid, vel[k])
                axis = 0 if d == 1 or t[0] <= t[1] else 1
                h = t[axis]
                nb = multi[k].copy()
                nb[axis] += int(np.sign(vel[k, axis]))
                inside = math.isfinite(h) and all(0 <= nb[a] < grid.shape[a] for a in range(d))
                c["h_at_foot"][k] = h
                if not inside:
                    continue
                c["const"][k] = cost[k] * h
                c["foot_a"][k] = flat_index(grid, nb)
                if d == 2:
                    other = 1 - axis
                    f = abs(vel[k, other]) * h / grid.dx[other]
                    f = min(max(f if math.isfinite(f) else 0.0, 0.0), 1.0)
                    nb2 = nb.copy()
                    nb2[other] += int(np.sign(vel[k, other]))
                    if f > 1e-15 and all(0 <= nb2[a] < grid.shape[a] for a in range(d)):
                        c["foot_b"][k] = flat_index(grid, nb2)
                        c["frac"][k] = f
                if mode.dynamics.kind == "tabulated":
                    c["h_at_foot"][k] = min(_cell_times(grid, vel[c["foot_a"][k]]))
            cands.append(c)
    return cands


def _candidate_value(cand, values, k):
    a, b, frac = cand["foot_a"][k], cand["foot_b"][k], float(cand["frac"][k])
    if a < 0:
        return math.inf
    val = cand["const"][k] + (1.0 - frac) * float(values[a])
    if frac > 0.0:
        val += frac * float(values[b])
    return val if not math.isnan(val) else math.inf


def label_setting_min_cost(spec, grid, argmin_rtol=1e-9):
    """Minimal cost s0 by label setting over each node's 3^d neighbourhood, and w0 filled
    in dependency order."""
    cands = plain_candidates(spec, grid)
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
        for off in itertools.product((-1, 0, 1), repeat=grid.dim):
            nb = multi[k] + off
            if not any(off):
                continue
            if np.any(nb < 0) or np.any(nb >= grid.shape):
                continue
            k2 = int(flat_index(grid, nb))
            best = min(_candidate_value(c, s0, k2) for c in cands)
            if not final[k2] and not ex[k2] and best < s0[k2]:
                s0[k2] = best
                heapq.heappush(heap, (best, k2))

    # w0 node by node, each after the feet of its best candidates: a foot
    # can have a larger s0 than its node (the diagonal foot), so the order
    # is the dependency graph's, which must be acyclic
    lam = spec.rates.off_diagonal()
    w0 = np.where(ex & (q <= s0 + argmin_rtol * np.maximum(1.0, s0)), 1.0, 0.0)
    picks = {}
    for k in np.where(~ex & np.isfinite(s0))[0]:
        per_mode = {}
        for c in cands:
            val = _candidate_value(c, s0, k)
            if val < per_mode.get(c["mode"], (math.inf, None))[0]:
                per_mode[c["mode"]] = (val, c)
        best = min(val for val, _ in per_mode.values())
        picks[k] = [(i, c) for i, (val, c) in per_mode.items()
                    if val <= best + argmin_rtol * max(1.0, abs(best))]
    waits = {k: {f for _, c in pk for f in (c["foot_a"][k], c["foot_b"][k]) if f in picks}
             for k, pk in picks.items()}
    users = {k: [] for k in picks}
    for k, feet in waits.items():
        for f in feet:
            users[f].append(k)
    ready = [k for k, feet in waits.items() if not feet]
    filled = 0
    while ready:
        k = ready.pop()
        filled += 1
        for i, c in picks[k]:
            a, b, frac = c["foot_a"][k], c["foot_b"][k], c["frac"][k]
            foot = (1.0 - frac) * w0[:, a] + (frac * w0[:, b] if frac > 0.0 else 0.0)
            drift = sum(lam[i, j] * (foot[j] - foot[i]) for j in range(m) if j != i)
            w0[i, k] = np.clip(foot[i] + c["h_at_foot"][k] * drift, 0.0, 1.0)
        for u in users[k]:
            waits[u].discard(k)
            if not waits[u]:
                ready.append(u)
    if filled != len(picks):
        raise AssertionError("the attainment-probability dependencies form a cycle")
    return s0, w0


def flat_index(grid, multi: np.ndarray) -> np.ndarray:
    """Flat node indices of multi-indices, in the grid's C order."""
    return np.asarray(multi, dtype=int) @ grid._strides


def solve_expected(
    spec: ProblemSpec,
    grid: Grid,
    tol: float = 1e-8,
    max_iter: int = 1000,
    tau: float | None = None,
) -> np.ndarray:
    """Expected exit cost u[mode, node] of an uncontrolled problem.

    This is policy iteration with one action per mode: one sparse solve of
    the linear semi-Lagrangian system, then one pass that confirms the
    residual is below ``tol``.
    """
    spec.require_fixed_rates()
    if spec.controlled:
        raise ConfigError("use the control module for controlled problems")
    if tau is None:
        speed = spec.max_speed()
        tau = grid.dx.min() / speed if speed > 0 else grid.ds
    stacks = [StepStack([SemiLagrangianStep(spec, grid, tau, i)], rates=[spec.rates])
              for i in range(spec.n_modes)]
    return policy_iteration(spec, grid, stacks, None, tol, max_iter)[0]


def howard_every_pass(spec, grid, stacks, initial=None, tol=1e-8, max_iter=1000):
    """Howard's policy iteration with an exact frozen-policy solve on every pass.

    Each pass minimizes one Bellman application over the actions, stops
    when that changes u by less than ``tol``, and otherwise solves the
    frozen minimizing policy's linear system with a sparse LU; a failed
    LU iterates the frozen operator 50 times instead.  Returns u and the
    minimizing actions at u.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    m, n_nodes = spec.n_modes, grid.n_nodes
    ex = grid.exit_mask
    q = np.array([mode.exit_cost.node_values(grid) for mode in spec.modes])
    probs = np.array([stack.probs[0, 0] for stack in stacks])
    mix = sparse.kron(sparse.csr_matrix(probs), sparse.identity(n_nodes), format="csr")
    eye = sparse.identity(m * n_nodes, format="csr")
    nodes = np.arange(n_nodes)
    u = np.zeros((m, n_nodes)) if initial is None else np.array(initial, dtype=float)
    u[:, ex] = q[:, ex]
    for _ in range(max_iter):
        vals = action_values(stacks, u)
        actions = np.array([np.argmin(v, axis=0) for v in vals])
        best = np.array([v[a, nodes] for v, a in zip(vals, actions)])
        best[:, ex] = q[:, ex]
        delta = np.abs(best - u).max()
        u = best
        if delta < tol:
            return u, np.array([np.argmin(v, axis=0) for v in action_values(stacks, u)])
        rows = actions * n_nodes + nodes
        frozen = sparse.block_diag([st.interp[r] for st, r in zip(stacks, rows)],
                                   format="csr") @ mix
        rhs = np.concatenate([st.const[0, r] for st, r in zip(stacks, rows)])
        rhs[np.tile(ex, m)] = q[:, ex].ravel()
        try:
            u = splu((eye - frozen).tocsc()).solve(rhs).reshape(m, n_nodes)
        except RuntimeError:
            flat = u.ravel()
            for _ in range(50):
                flat = rhs + frozen @ flat
            u = flat.reshape(m, n_nodes)
        u[:, ex] = q[:, ex]
    raise AssertionError("Howard policy iteration did not converge")


def action_values(stacks, u):
    """Bellman value of every action at u: one (n_actions, n_nodes) array per mode."""
    mixed = np.array([stack.probs[0, 0] for stack in stacks]) @ u
    return [(stack.const[0] + stack.interp @ mixed[i]).reshape(-1, u.shape[1])
            for i, stack in enumerate(stacks)]


def eulerian_step(field: CdfField, n: int, mode: int) -> np.ndarray:
    """Upwind finite-difference form of the level update (1D cross-check).

    Valid for d = 1, unit running cost, strictly positive mode velocity and
    tau = ds; under those conditions it reproduces the semi-Lagrangian level
    update exactly (up to roundoff).  The coupling terms are evaluated at
    the shifted point x + f*ds; evaluating them at the node itself would
    destroy monotonicity.
    """
    spec, grid = field.spec, field.grid
    if spec is None or grid.dim != 1:
        raise NumericsError("eulerian step needs a 1D field with its problem attached")
    mode_spec = spec.modes[mode]
    if mode_spec.cost.kind != "constant" or abs(mode_spec.cost.value - 1.0) > 1e-15:
        raise NumericsError("eulerian step requires a unit running cost")
    if field.tau is None or abs(field.tau - grid.ds) > 1e-15 * max(1.0, grid.ds):
        raise NumericsError("eulerian step requires tau = ds")
    vel = mode_spec.dynamics.at(grid, grid.points)[:, 0]
    if np.any(vel[~grid.exit_mask] <= 0.0):
        raise NumericsError("eulerian step requires a strictly positive velocity")
    if not grid.exit_mask[-1]:
        raise NumericsError("eulerian step requires the right boundary in the exit set")
    ds, dx = grid.ds, grid.dx[0]
    lam = spec.require_fixed_rates().off_diagonal()[mode]
    w_n = field.values[:, n, :]
    out = w_n[mode].copy()
    k = np.where(~grid.exit_mask)[0]
    theta = vel[k] * ds / dx
    if np.any(theta > 1.0 + 1e-12):
        raise NumericsError("eulerian step violates its CFL bound f*ds <= dx")
    upwind = w_n[mode, k] + theta * (w_n[mode, np.minimum(k + 1, grid.n_nodes - 1)] - w_n[mode, k])
    coupling = np.zeros(k.size)
    shifted = np.clip(grid.points[k, 0] + vel[k] * ds, grid.lo[0], grid.hi[0])[:, None]
    idx, wts = grid.spatial_stencil(shifted)
    for j in range(spec.n_modes):
        if j == mode:
            continue
        diff_nodes = w_n[j] - w_n[mode]
        coupling += lam[j] * np.einsum("cn,cn->n", wts, diff_nodes[idx])
    out[k] = upwind + ds * coupling
    out[grid.exit_mask] = (n + 1) * grid.ds >= exit_costs(spec, grid)[mode] - 1e-15
    return out


def _side_update(stack, step_len, bounds, sense):
    """Level update of one bound field: per-source foot values, then the bang-bang mix."""
    m, n_nodes = bounds.n_modes, stack.n_nodes
    zero = np.zeros((n_nodes, m))

    def update(level, n):
        src = stack.gather(n, lambda lo, p: level(lo + p)[0].T if lo >= 0 else zero)
        src[stack.cap_rows] = stack.cap_indicator(n)
        out = np.zeros((m, n_nodes))
        for i in range(m):
            rows = slice(i * n_nodes, (i + 1) * n_nodes)
            base = src[rows, i]
            acc = base.copy()
            for j in range(m):
                if j == i:
                    continue
                diff = src[rows, j] - base
                acc = acc + step_len[rows] * bounds.extreme_rates(sense, diff, i, j) * diff
            out[i] = acc
        return out[None]

    return update


def per_side_bounds(spec, grid, tau=None, restrict=False):
    """Upper and lower envelopes swept one side at a time: ((upper, clamp), (lower, clamp)).

    Each side gathers its own foot values, and with ``restrict`` is seeded
    by its own ``MinimalCost.field`` and keeps its own monotone clamp.
    """
    rb = spec.require_rate_bounds()
    node_costs = np.array([spec.modes[i].cost.at(grid, grid.points) for i in range(spec.n_modes)])
    if tau is None:
        tau = causal_tau(spec, grid, node_costs)
    steps = [SemiLagrangianStep(spec, grid, tau, i) for i in range(spec.n_modes)]
    stack = StepStack(steps)
    step_len = np.full(stack.n_nodes * len(steps), tau)
    step_len[stack.cap_rows] = np.concatenate([st.cap_theta_tau for st in steps])
    mc = MinimalCost(spec, grid) if restrict else None
    sides = []
    for sense, name in (("max", "upper"), ("min", "lower")):
        seed = mc.field(spec, name) if restrict else None
        ((w, _),), clamp = _sweep(grid.exit_mask, exit_costs(spec, grid), grid.ds, grid.n_levels,
                                  seed, _side_update(stack, step_len, rb, sense),
                                  f"{name} bound sweep", 1, stack.depth)
        sides.append((w, clamp))
    return sides


def stacked_seed(spec, grid, rate_grid):
    """A restricted rate sweep's seed: one s0 with every matrix's w0, as the sweep command builds it."""
    return MinimalCost(spec, grid).stacked([(replace(spec, rates=rm), None) for rm in rate_grid])


class _ReferenceClamp:
    """The monotone clamp as a gap array per level: the counters of ``cdf_solver.MonotoneClamp``."""

    def __init__(self, exit_mask):
        self.live = ~exit_mask
        self.count = 0
        self.largest = 0.0

    def apply(self, vals, prev):
        gap = np.where(self.live, prev - vals, 0.0)
        raised = gap > 0.0
        if raised.any():
            self.count += int(raised.sum())
            self.largest = max(self.largest, float(gap.max()))
        return np.maximum(vals, prev)


def reference_sweep(exit_mask, q_exit, ds, n_levels, restrict, update, what, n_fields, depth,
                    keep=None):
    """``cdf_solver._sweep`` with its seeding, clamp and exit rows as whole-array steps per level.

    Same signature and results: one ``(values, columns)`` pair per field and
    the clamp (None without ``restrict``).  Every level is stored whole and
    read back from the whole fields, whatever ``depth`` says; ``keep`` then
    slices them.  ``what`` is not logged.
    """
    ex = exit_mask
    fields = [np.zeros((q_exit.shape[0], n_levels, ex.size)) for _ in range(n_fields)]
    for w in fields:
        w[:, 0, ex] = 0.0 >= q_exit - 1e-15

    def stored(k):
        return np.stack([w[:, k] for w in fields])

    def level(k):
        return prev if k == n - 1 else stored(k)

    first_level = restrict.first_level() if restrict is not None else None
    clamp = _ReferenceClamp(ex) if restrict is not None else None
    prev = stored(0)
    for n in range(1, n_levels):
        vals = update(level, n)
        if first_level is not None:
            vals = np.where(n < first_level, 0.0, vals)
            vals = np.where(n == first_level, restrict.w0, vals)
            vals = clamp.apply(vals, prev)
        vals[..., ex] = n * ds >= q_exit - 1e-15
        for w, v in zip(fields, vals):
            w[:, n] = v
        prev = vals
    if keep is None:
        return [(w, None) for w in fields], clamp
    return [(w[:, keep.levels], w[..., keep.nodes]) for w in fields], clamp


def _reference_coupling(foot, i, up, down):
    coupling = 0.0
    for j in range(foot.shape[1]):
        if j != i:
            diff = foot[:, j] - foot[:, i]
            coupling = coupling + np.where(diff >= 0.0, up[:, i, j], down[:, i, j]) * diff
    return coupling


def reference_w0_ordered(grid, table, s0, w0, rates):
    """``cdf_solver._w0_ordered`` node by node: candidates picked in Python, numpy over the choices.

    Each node in increasing s0 (stable) scans its candidates in row order
    for every mode's first least ``const + s0[foot]``; each mode within
    ``ARGMIN_RTOL`` of the best transports ``w0`` of all rate choices
    (axis 0) at once.
    """
    interior = np.where(~grid.exit_mask & np.isfinite(s0))[0]
    order = interior[np.argsort(s0[interior], kind="stable")]
    ent = table.materialize()
    cands = [list(zip(const, foot)) for const, foot in
             zip(ent.const.T.tolist(), ent.foot_a.T.tolist())]
    for k in order:
        best = math.inf
        per_mode_best = {}
        for c, (const, a) in enumerate(cands[k]):
            val = const + s0[a] if a >= 0 else math.inf
            if not math.isfinite(val):
                continue
            i = int(table.mode[c])
            prev = per_mode_best.get(i)
            if prev is None or val < prev[0]:
                per_mode_best[i] = (val, c)
            best = min(best, val)
        if not math.isfinite(best):
            continue
        tol = ARGMIN_RTOL * max(1.0, abs(best))
        for i, (val, c) in per_mode_best.items():
            if val <= best + tol:
                foot = w0[:, :, ent.foot_a[c, k]]
                coupling = _reference_coupling(foot, i, *rates)
                step = foot[:, i] + float(ent.h_at_foot[c, k]) * coupling
                w0[:, i, k] = step.clip(0.0, 1.0)
    return 1
