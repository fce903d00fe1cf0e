"""Continuous-state solvers for the uncontrolled exit-cost problem.

The CDF solver discretizes the coupled transport system

    grad w_i . f_i  -  C_i dw_i/ds  +  sum_{j != i} rate_ij (w_j - w_i) = 0

with a first-order semi-Lagrangian step: at every node the update traces
the mode-i characteristic for a pseudo-timestep tau and reads the
multilinearly interpolated field at the foot point and at threshold
s - tau*C_i, mixing modes with the one-step transition probabilities.
Positivity of the running cost makes the sweep causal in s, so a single
upward pass suffices.

Steps whose characteristic reaches the boundary are capped at the exact
crossing: the crossing fraction theta is charged theta*tau*C_i of cost and
the boundary condition is evaluated at the crossing point.  Segments that
leave the domain off the exit set contribute zero (immediate failure).

Every kernel runs on one sparse-operator view of a step.  A
``SemiLagrangianStep`` assembles its foot interpolation once as a CSR
matrix, split by the threshold level the foot reads (one matrix per level
shift).  A ``StepStack`` stacks several steps row-wise: the modes of a
fixed-rate sweep block-diagonally, the actions of one mode on shared
columns.  Because all actions of a mode share one row of transition
probabilities, the mode mix is applied to the previous level first, and a
level update is then one sparse product per level shift; capped and
escaping nodes and the exit nodes are fixed up as vectors afterwards.

Expected exit costs, uncontrolled here and expectation-optimal in the
control module, are solved by one routine: Howard's policy iteration over
the stacked steps of every mode, which alternates a minimization pass (one
product per mode) with an exact sparse solve of the frozen policy, whose
matrix is a row selection of the stacks.  With one action per mode that is
a single linear solve plus the pass that confirms it.

The minimal attainable cost s0 (free mode switching) and its attainment
probability w0 are computed by alternating-direction upwind sweeps in 1D
and by vectorized monotone sweeps in 2D; their conservatively rounded-up
levels restrict the CDF computation and remove smearing at the lower
envelope.  s0 does not depend on the switching rates, so ``MinimalCost``
computes it once and fills w0 for each rate choice.

scipy.sparse is imported inside the functions that use it, so importing
the package (and starting the CLI) does not pay for it.  Fallbacks are
reported on the ``pdmp_cdf`` logger: a failed sparse LU at WARNING, the
monotonicity clamp of restricted sweeps at DEBUG.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericsError
from .model import (
    CdfField,
    Grid,
    MinCostField,
    ProblemSpec,
    RateMatrix,
    transition_probabilities,
)

ESCAPE_COST = 1e30  # expected-cost sentinel for trajectories leaving off the exit set
_FROZEN_ITERATIONS = 50  # operator iterations when the frozen policy's LU fails

log = logging.getLogger(__name__)


def causal_tau(spec: ProblemSpec, grid: Grid, costs: np.ndarray | None = None) -> float:
    """Default pseudo-timestep: smallest tau keeping the sweep causal.

    Equality tau * min C = ds makes the threshold foot land exactly on the
    previous level whenever the running cost is constant, which removes all
    interpolation in s for the built-in problems.
    """
    c_min = float(np.min(costs)) if costs is not None else spec.min_cost_rate()
    if c_min <= 0.0:
        raise NumericsError("running cost must be positive")
    return grid.ds / c_min


def check_causality(tau: float, min_cost: float, ds: float) -> None:
    if tau * min_cost < ds * (1.0 - 1e-9):
        raise NumericsError(
            f"step tau={tau:.6g} with min running cost {min_cost:.6g} reads "
            f"threshold levels above the current one (needs tau*C >= ds={ds:.6g})"
        )


# ---------------------------------------------------------------------------
# one-step semi-Lagrangian kernel
# ---------------------------------------------------------------------------


def _segment_exit(spec: ProblemSpec, x: np.ndarray, disp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First boundary event along the segments x -> x + disp.

    Returns (theta, is_exit, crossing_point) with theta = inf where the
    segment stays inside the closed box and enters no exit box.
    """
    n = x.shape[0]
    theta = np.full(n, np.inf)
    hit_exit = np.zeros(n, dtype=bool)
    exit_faces = set(spec.exit_set.face_names(spec.dim)) if spec.exit_set.kind in ("boundary", "faces") else set()
    names_min = ("x_min", "y_min")
    names_max = ("x_max", "y_max")
    for a in range(spec.dim):
        for side, bound, name in ((0, spec.lo[a], names_min[a]), (1, spec.hi[a], names_max[a])):
            d = disp[:, a]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (bound - x[:, a]) / d
            moving = d < 0 if side == 0 else d > 0
            t = np.where(moving, t, np.inf)
            t = np.maximum(t, 0.0)
            better = t < theta - 1e-15
            theta = np.where(better, t, theta)
            hit_exit = np.where(better, name in exit_faces, hit_exit)
    if spec.exit_set.kind == "boxes":
        for box in spec.exit_set.boxes:
            t_in = np.zeros(n)
            t_out = np.full(n, np.inf)
            inside_possible = np.ones(n, dtype=bool)
            for a, (b_lo, b_hi) in enumerate(box):
                d = disp[:, a]
                with np.errstate(divide="ignore", invalid="ignore"):
                    t0 = (b_lo - x[:, a]) / d
                    t1 = (b_hi - x[:, a]) / d
                swap = d < 0
                lo_t = np.where(swap, t1, t0)
                hi_t = np.where(swap, t0, t1)
                stuck = np.abs(d) < 1e-300
                in_slab = (x[:, a] >= b_lo) & (x[:, a] <= b_hi)
                lo_t = np.where(stuck, np.where(in_slab, 0.0, np.inf), lo_t)
                hi_t = np.where(stuck, np.where(in_slab, np.inf, -np.inf), hi_t)
                t_in = np.maximum(t_in, lo_t)
                t_out = np.minimum(t_out, hi_t)
                inside_possible &= np.isfinite(lo_t) | in_slab
            enters = inside_possible & (t_in <= t_out) & (t_in >= 0.0)
            better = enters & (t_in < theta - 1e-15)
            theta = np.where(better, t_in, theta)
            hit_exit = np.where(better, True, hit_exit)
    with np.errstate(invalid="ignore", over="ignore"):
        cross = np.where(np.isfinite(theta)[:, None], x + theta[:, None] * disp, x)
    return theta, hit_exit, cross


class SemiLagrangianStep:
    """Precomputed one-step update of one (mode, action) pair, as sparse operators.

    Nodes are classified once: *regular* steps stay in the domain and read
    the interpolated previous solution, *capped* steps reach the exit set
    at a fraction theta of the step and evaluate the boundary condition at
    the crossing, and *escaping* steps leave the domain off the exit set.

    The multilinear interpolation at the feet of the regular steps is
    assembled once as a CSR matrix ``interp`` (row k holds node k's foot
    stencil; rows of other nodes are empty).  ``level_ops`` splits it by the
    threshold level the foot reads: one ``(shift, parts, matrix)`` triple
    per distinct level shift, whose matrix applies the weights
    ``(1 - frac)`` to level ``n - shift`` and, when ``parts`` is 2, the
    weights ``frac`` to level ``n - shift + 1`` in a second block of
    columns.  With a constant running cost and the default tau there is one
    triple, ``(1, 1, interp)``.  ``expected_const`` is the constant part of
    the expected-cost update: the running cost of a regular step, the
    boundary value of a capped one, ``ESCAPE_COST`` for an escaping one.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        grid: Grid,
        tau: float,
        mode: int,
        action: np.ndarray | None = None,
        velocities: np.ndarray | None = None,
        costs: np.ndarray | None = None,
        prob_method: str = "first_order",
        rates: RateMatrix | None = None,
    ):
        self.spec = spec
        self.grid = grid
        self.tau = float(tau)
        self.mode = mode
        m = spec.n_modes
        n_nodes = grid.n_nodes
        pts = grid.points
        vel = velocities if velocities is not None else spec.modes[mode].dynamics.at(grid, pts, action)
        cost = costs if costs is not None else spec.modes[mode].cost.at(grid, pts, action)
        self.node_cost = np.asarray(cost, dtype=float)
        disp = tau * np.asarray(vel, dtype=float)
        if rates is None and spec.fixed_rates:
            rates = spec.rates
        self.rates = rates
        self.probs = transition_probabilities(rates, tau, prob_method)[mode] if rates is not None else None

        theta, hit_exit, cross = _segment_exit(spec, pts, disp)
        live = ~grid.exit_mask
        capped = live & hit_exit & (theta <= 1.0 + 1e-12)
        escaped = live & ~hit_exit & (theta <= 1.0 + 1e-12)
        regular = live & ~capped & ~escaped

        self.reg_nodes = np.where(regular)[0]
        self.cap_nodes = np.where(capped)[0]
        self.esc_nodes = np.where(escaped)[0]

        foot = np.clip(pts[self.reg_nodes] + disp[self.reg_nodes], grid.lo, grid.hi)
        idx, wts = grid.spatial_stencil(foot) if self.reg_nodes.size else (
            np.zeros((1 << grid.dim, 0), dtype=int), np.zeros((1 << grid.dim, 0)))
        rows = np.broadcast_to(self.reg_nodes, idx.shape)
        self.interp = _csr(rows, idx, wts, (n_nodes, n_nodes))

        off = tau * self.node_cost[self.reg_nodes] / grid.ds
        shift = np.ceil(off - 1e-12).astype(int)
        frac = shift - off
        frac[frac < 1e-12] = 0.0
        # within the causality tolerance off may sit a hair below 1; snap so no
        # weight ever lands on the level being written
        frac[shift <= 1] = 0.0
        if np.any(shift < 1):
            raise NumericsError("causality violated: some step reads its own threshold level")
        if np.all(shift == 1):
            self.level_ops = ((1, 1, self.interp),)
        else:
            ops = []
            for s in np.unique(shift):
                g = shift == s
                f = frac[g]
                parts = 2 if np.any(f > 0.0) else 1
                cols = [idx[:, g], idx[:, g] + n_nodes][:parts]
                vals = [wts[:, g] * (1.0 - f), wts[:, g] * f][:parts]
                ops.append((int(s), parts, _csr(np.tile(rows[:, g], parts), np.hstack(cols),
                                                np.hstack(vals), (n_nodes, parts * n_nodes))))
            self.level_ops = tuple(ops)

        # capped steps: transition probabilities over the shortened interval
        th = np.clip(theta[self.cap_nodes], 0.0, 1.0)
        self.cap_theta_tau = th * tau
        self.cap_ds = self.cap_theta_tau * self.node_cost[self.cap_nodes]
        qx = cross[self.cap_nodes]
        self.cap_q = np.column_stack(
            [spec.modes[j].exit_cost.at(grid, qx) for j in range(m)]
        ) if self.cap_nodes.size else np.zeros((0, m))
        if rates is None:
            self.cap_probs = None
            self.expected_const = None
            return
        if prob_method == "first_order":
            qrow = rates.matrix[mode]
            self.cap_probs = np.zeros((self.cap_nodes.size, m))
            self.cap_probs[:, mode] = 1.0
            self.cap_probs += self.cap_theta_tau[:, None] * qrow[None, :]
        else:
            per_node = [transition_probabilities(rates, float(t_k), "exact")[mode]
                        for t_k in self.cap_theta_tau]
            self.cap_probs = np.array(per_node).reshape(self.cap_nodes.size, m)
        const = np.zeros(n_nodes)
        const[self.reg_nodes] = self.tau * self.node_cost[self.reg_nodes]
        const[self.cap_nodes] = self.cap_ds + np.einsum("kj,kj->k", self.cap_probs, self.cap_q)
        const[self.esc_nodes] = ESCAPE_COST
        self.expected_const = const

    def cap_indicator(self, n: int) -> np.ndarray:
        """Per-final-mode boundary indicator of the capped steps at level n."""
        s_at_cross = n * self.grid.ds - self.cap_ds
        return (s_at_cross[:, None] >= self.cap_q - 1e-15).astype(float)


def _csr(rows, cols, vals, shape):
    """CSR matrix from (row, column, value) triples; duplicates summed, zeros dropped."""
    from scipy import sparse

    mat = sparse.csr_matrix((np.ravel(vals), (np.ravel(rows), np.ravel(cols))), shape=shape)
    mat.eliminate_zeros()
    return mat


def _stack_rows(mats, n_nodes: int, parts: int, diagonal: bool):
    """Stack (N x p*N) matrices row-wise, block b giving rows b*N .. b*N + N - 1.

    Columns run over (part, node) blocks of N.  With ``diagonal`` each row
    block reads its own column block, so columns run over (part, block,
    node).  ``None`` stands for an empty block.
    """
    n_blocks = len(mats)
    width = n_blocks * n_nodes if diagonal else n_nodes
    rows, cols, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
    for b, mat in enumerate(mats):
        if mat is None:
            continue
        coo = mat.tocoo()
        part, node = np.divmod(coo.col, n_nodes)
        rows.append(b * n_nodes + coo.row)
        cols.append(part * width + (b * n_nodes if diagonal else 0) + node)
        vals.append(coo.data)
    return _csr(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                (n_blocks * n_nodes, parts * width))


class StepStack:
    """Several steps stacked row-wise, so that one product updates them all.

    Row ``b * N + k`` is node k of ``steps[b]``.  ``level_ops`` holds one
    ``(shift, parts, matrix)`` triple per level shift of any step; its
    product with the previous levels, stacked part by part, gives every
    step's regular-node interpolation at once.  With ``diagonal`` each step
    reads its own block of that input (the modes of a fixed-rate sweep,
    each reading its own mixed level); otherwise every step reads the same
    input (the actions of one mode).  ``interp`` is the stacked plain foot
    interpolation, ``probs`` the steps' probability rows, ``const`` the
    stacked ``expected_const``, and the ``cap_*`` arrays collect the capped
    steps under their stacked rows.  The stack keeps no reference to the
    steps, so their own matrices can be freed once it is built.
    """

    def __init__(self, steps: list[SemiLagrangianStep], diagonal: bool = False):
        self.n_nodes = n = steps[0].grid.n_nodes
        self.ds = steps[0].grid.ds
        self.interp = _stack_rows([st.interp for st in steps], n, 1, diagonal)
        if all(len(st.level_ops) == 1 and st.level_ops[0][2] is st.interp for st in steps):
            self.level_ops = [(1, 1, self.interp)]
        else:
            self.level_ops = []
            for shift in sorted({s for st in steps for s, _, _ in st.level_ops}):
                parts = max(p for st in steps for s, p, _ in st.level_ops if s == shift)
                mats = [next((op for s, _, op in st.level_ops if s == shift), None) for st in steps]
                self.level_ops.append((shift, parts, _stack_rows(mats, n, parts, diagonal)))
        self.cap_rows = np.concatenate([b * n + st.cap_nodes for b, st in enumerate(steps)])
        self.cap_ds = np.concatenate([st.cap_ds for st in steps])
        self.cap_q = np.concatenate([st.cap_q for st in steps])
        rated = steps[0].probs is not None
        self.probs = np.array([st.probs for st in steps]) if rated else None
        self.const = np.concatenate([st.expected_const for st in steps]) if rated else None
        self.cap_probs = np.concatenate([st.cap_probs for st in steps]) if rated else None

    def cap_cdf(self, n: int) -> np.ndarray:
        """Fixed-rate CDF values of the capped rows at level n."""
        bc = (n * self.ds - self.cap_ds)[:, None] >= self.cap_q - 1e-15
        return np.einsum("kj,kj->k", self.cap_probs, bc.astype(float))


def exit_costs(spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """Exit cost of every mode at the exit nodes, shape (M, n_exit_nodes)."""
    pts = grid.points[grid.exit_mask]
    if pts.shape[0] == 0:
        return np.zeros((spec.n_modes, 0))
    return np.array([spec.modes[i].exit_cost.at(grid, pts) for i in range(spec.n_modes)])


class MonotoneClamp:
    """Keeps a restricted sweep's levels nondecreasing in s and reports the raises.

    The seeded envelope is an O(ds) approximation, so the first updates
    above it can dip below the previous level; ``apply`` raises them to it
    and ``report`` logs how many live-node values were raised and the
    largest raise.
    """

    def __init__(self, grid: Grid):
        self.live = ~grid.exit_mask
        self.count = 0
        self.largest = 0.0

    def apply(self, vals: np.ndarray, prev: np.ndarray) -> np.ndarray:
        gap = np.where(self.live, prev - vals, 0.0)
        raised = gap > 0.0
        if raised.any():
            self.count += int(raised.sum())
            self.largest = max(self.largest, float(gap.max()))
        return np.maximum(vals, prev)

    def report(self, what: str) -> None:
        log.debug("%s: %d values raised to the previous level, largest raise %.3g",
                  what, self.count, self.largest)


# ---------------------------------------------------------------------------
# CDF sweep
# ---------------------------------------------------------------------------


def solve_cdf(
    spec: ProblemSpec,
    grid: Grid,
    tau: float | None = None,
    restrict: MinCostField | None = None,
    prob_method: str = "first_order",
    velocities: np.ndarray | None = None,
    costs: np.ndarray | None = None,
    rates: RateMatrix | None = None,
) -> CdfField:
    """Solve for the exit-cost CDF of an uncontrolled problem.

    ``velocities``/``costs`` (shape (M, n_nodes, d) and (M, n_nodes)) replace
    the per-mode fields when given; this is how policy-frozen dynamics are
    evaluated.  ``restrict`` zeroes all levels below the rounded-up minimal
    attainable cost and seeds the first active level with its attainment
    probability, which both speeds up the sweep and removes smearing at the
    lower envelope.

    Each level update mixes the previous levels over the modes with the
    one-step transition probabilities and applies the block-diagonal stack
    of the modes' step operators: one sparse product per level shift.
    """
    if rates is not None:
        spec = replace(spec, rates=rates)
    spec.require_fixed_rates()
    if spec.controlled and velocities is None:
        raise ConfigError("controlled problems need the control module (or frozen fields)")
    node_costs = costs if costs is not None else np.array(
        [spec.modes[i].cost.at(grid, grid.points) for i in range(spec.n_modes)]
    )
    if tau is None:
        tau = causal_tau(spec, grid, node_costs)
    check_causality(tau, float(node_costs.min()), grid.ds)
    steps = [
        SemiLagrangianStep(
            spec, grid, tau, i,
            velocities=None if velocities is None else velocities[i],
            costs=node_costs[i],
            prob_method=prob_method,
        )
        for i in range(spec.n_modes)
    ]
    stack = StepStack(steps, diagonal=True)

    def update(w: np.ndarray, n: int) -> np.ndarray:
        vals = np.zeros(spec.n_modes * grid.n_nodes)
        for shift, parts, op in stack.level_ops:
            lo = n - shift
            if lo >= 0:  # a foot below threshold zero reads the flat zero extension
                vals += op @ np.concatenate([(stack.probs @ w[:, lo + p]).ravel()
                                             for p in range(parts)])
        vals[stack.cap_rows] = stack.cap_cdf(n)
        return vals.reshape(spec.n_modes, grid.n_nodes)

    w = _sweep(spec, grid, restrict, update)
    return CdfField(grid, w, spec=spec, tau=tau, variant="fixed-rates")


def _sweep(spec, grid, restrict, update) -> np.ndarray:
    """Causal upward sweep; ``update(w, n)`` gives every mode's level n off the exit set."""
    w = np.zeros((spec.n_modes, grid.n_levels, grid.n_nodes))
    ex = grid.exit_mask
    q_exit = exit_costs(spec, grid)
    first_level = restrict.first_level() if restrict is not None else None
    clamp = MonotoneClamp(grid)
    w[:, 0, ex] = 0.0 >= q_exit - 1e-15
    for n in range(1, grid.n_levels):
        vals = update(w, n)
        if first_level is not None:
            vals = np.where(n < first_level, 0.0, vals)
            vals = np.where(n == first_level, restrict.w0, vals)
            vals = clamp.apply(vals, w[:, n - 1])
        vals[:, ex] = n * grid.ds >= q_exit - 1e-15
        w[:, n] = vals
    if first_level is not None:
        clamp.report("restricted CDF sweep")
    return w


# ---------------------------------------------------------------------------
# expected cost
# ---------------------------------------------------------------------------


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
    stacks = [StepStack([SemiLagrangianStep(spec, grid, tau, i)]) for i in range(spec.n_modes)]
    return policy_iteration(spec, grid, stacks, None, tol, max_iter)[0]


def policy_iteration(
    spec: ProblemSpec,
    grid: Grid,
    stacks: list[StepStack],
    initial: np.ndarray | None,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Smallest expected exit cost over the actions stacked in ``stacks[mode]``.

    Howard's policy iteration: each pass minimizes one Bellman application
    over the actions, stops when that changes u by less than ``tol``, and
    otherwise solves the sparse linear fixed point of the minimizing policy
    exactly.  ``max_iter`` caps the number of passes.  A failed
    factorization (improper interim policy) is logged as a warning and
    falls back to iterating the frozen operator.

    Each mode's actions share one row of transition probabilities, so a
    Bellman application mixes u over the modes once and applies the mode's
    stacked interpolation (a ``StepStack`` of its actions' steps): one
    sparse product for all its actions.  The
    frozen policy's matrix is a row selection of those stacks.  Returns u
    and the minimizing action index per (mode, node) at u.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    m, n_nodes = spec.n_modes, grid.n_nodes
    ex = grid.exit_mask
    ex_flat = np.tile(ex, m)
    q_rows = np.array([spec.modes[i].exit_cost.node_values(grid) for i in range(m)])
    probs = np.array([stack.probs[0] for stack in stacks])
    mix = sparse.kron(sparse.csr_matrix(probs), sparse.identity(n_nodes), format="csr")
    eye = sparse.identity(m * n_nodes, format="csr")
    nodes = np.arange(n_nodes)

    def improve(u):
        mixed = probs @ u
        best = np.empty((m, n_nodes))
        actions = np.empty((m, n_nodes), dtype=int)
        for i, stack in enumerate(stacks):
            vals = (stack.const + stack.interp @ mixed[i]).reshape(-1, n_nodes)
            actions[i] = np.argmin(vals, axis=0)
            best[i] = vals[actions[i], nodes]
        return best, actions

    u = np.zeros((m, n_nodes)) if initial is None else np.array(initial, dtype=float)
    u[:, ex] = q_rows[:, ex]
    delta = math.inf
    for _ in range(max_iter):
        best, actions = improve(u)
        best[:, ex] = q_rows[:, ex]
        delta = float(np.max(np.abs(best - u)))
        u = best
        if delta < tol:
            return u, improve(u)[1]
        rows = actions * n_nodes + nodes
        frozen = sparse.block_diag([st.interp[r] for st, r in zip(stacks, rows)], format="csr") @ mix
        rhs = np.concatenate([st.const[r] for st, r in zip(stacks, rows)])
        rhs[ex_flat] = q_rows[:, ex].ravel()
        try:
            u = splu((eye - frozen).tocsc()).solve(rhs).reshape(m, n_nodes)
        except RuntimeError as exc:
            log.warning("policy iteration: sparse LU of the frozen policy failed (%s); "
                        "iterating its operator %d times instead", exc, _FROZEN_ITERATIONS)
            flat = u.ravel()
            for _ in range(_FROZEN_ITERATIONS):
                flat = rhs + frozen @ flat
            u = flat.reshape(m, n_nodes)
        u[:, ex] = q_rows[:, ex]
    raise ConvergenceError(f"policy iteration did not converge in {max_iter} passes",
                           residual=delta)


# ---------------------------------------------------------------------------
# minimal attainable cost
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Candidate:
    """Upwind update candidate for one (mode, action): step time and foot stencil."""

    mode: int
    h: np.ndarray            # (n_nodes,) step duration to the first cell face
    cost: np.ndarray         # (n_nodes,) running cost at the node
    foot_a: np.ndarray       # (n_nodes,) first stencil node (flat, -1 if none)
    foot_b: np.ndarray       # (n_nodes,) second stencil node (flat, -1 if none)
    frac: np.ndarray         # (n_nodes,) weight of foot_b
    h_at_foot: np.ndarray    # (n_nodes,) step duration evaluated with foot-point speed


def _min_cost_candidates(spec: ProblemSpec, grid: Grid) -> list[_Candidate]:
    actions: list[np.ndarray | None]
    if spec.controlled:
        actions = [spec.controls.action(a) for a in range(spec.controls.n_actions)]
    else:
        actions = [None]
    pts = grid.points
    n = grid.n_nodes
    shape = grid.shape
    multi = np.array(np.unravel_index(np.arange(n), shape)).T
    cands = []
    for i in range(spec.n_modes):
        for act in actions:
            vel = spec.modes[i].dynamics.at(grid, pts, act)
            cost = spec.modes[i].cost.at(grid, pts, act)
            with np.errstate(divide="ignore"):
                t_axis = np.where(np.abs(vel) > 0, grid.dx / np.abs(vel), np.inf)
            h = t_axis.min(axis=1)
            ok = np.isfinite(h)
            axis = np.argmin(t_axis, axis=1)
            step_dir = np.sign(vel[np.arange(n), axis]).astype(int)
            nb = multi.copy()
            nb[np.arange(n), axis] += step_dir
            in_range = ok & np.all((nb >= 0) & (nb < np.array(shape)), axis=1)
            foot_a = np.where(in_range, grid.flat_index(np.clip(nb, 0, np.array(shape) - 1)), -1)
            foot_b = np.full(n, -1, dtype=int)
            frac = np.zeros(n)
            if spec.dim == 2:
                other = 1 - axis
                v_other = vel[np.arange(n), other]
                frac_val = np.abs(v_other) * h / grid.dx[other]
                frac_val = np.clip(np.where(np.isfinite(frac_val), frac_val, 0.0), 0.0, 1.0)
                nb2 = nb.copy()
                nb2[np.arange(n), other] += np.sign(v_other).astype(int)
                ok2 = in_range & (frac_val > 1e-15) & np.all((nb2 >= 0) & (nb2 < np.array(shape)), axis=1)
                foot_b = np.where(ok2, grid.flat_index(np.clip(nb2, 0, np.array(shape) - 1)), -1)
                frac = np.where(ok2, frac_val, 0.0)
            # duration evaluated with the foot-point (neighbor) speed, used for
            # the probability transport term of the first-order recursion
            h_foot = h.copy()
            if spec.modes[i].dynamics.kind == "tabulated":
                vel_at = np.where(in_range[:, None], vel[np.clip(foot_a, 0, n - 1)], vel)
                with np.errstate(divide="ignore"):
                    t_axis_f = np.where(np.abs(vel_at) > 0, grid.dx / np.abs(vel_at), np.inf)
                h_foot = t_axis_f.min(axis=1)
            cands.append(_Candidate(i, h, cost, foot_a, foot_b, frac, h_foot))
    return cands


def _foot_value(vals: np.ndarray, cand: _Candidate, k: int) -> float:
    a = cand.foot_a[k]
    if a < 0:
        return math.inf
    v = (1.0 - cand.frac[k]) * vals[a]
    b = cand.foot_b[k]
    if cand.frac[k] > 0.0:
        if b < 0:
            return math.inf
        v += cand.frac[k] * vals[b]
    return float(v)


def _w0_update(
    spec: ProblemSpec, w0: np.ndarray, cand: _Candidate, k: int,
    rate_pick,
) -> float:
    """First-order transport of the attainment probability along one step."""
    a, b, frac = cand.foot_a[k], cand.foot_b[k], cand.frac[k]
    i = cand.mode
    vals = w0[:, a] * (1.0 - frac)
    if frac > 0.0:
        vals = vals + frac * w0[:, b]
    h = float(cand.h_at_foot[k])
    coupling = 0.0
    for j in range(spec.n_modes):
        if j == i:
            continue
        diff = float(vals[j] - vals[i])
        coupling += rate_pick(i, j, diff) * diff
    return float(vals[i] + h * coupling)


def _rate_picker(spec: ProblemSpec, sense: str | None):
    if sense is None:
        lam = spec.require_fixed_rates().off_diagonal()
        return lambda i, j, diff: lam[i, j]
    rb = spec.require_rate_bounds()
    if sense == "upper":
        return lambda i, j, diff: rb.upper[i, j] if diff >= 0.0 else rb.lower[i, j]
    if sense == "lower":
        return lambda i, j, diff: rb.lower[i, j] if diff >= 0.0 else rb.upper[i, j]
    raise ConfigError(f"unknown rate sense {sense!r}")


def solve_min_cost(
    spec: ProblemSpec, grid: Grid, rate_sense: str | None = None,
    argmin_rtol: float = 1e-9,
) -> MinCostField:
    """Minimal attainable cost s0 and its attainment probability per mode.

    ``rate_sense`` selects the probability transport rates: ``None`` uses
    the fixed rate matrix, ``"upper"``/``"lower"`` extremize within rate
    bounds term by term.  s0 itself never depends on the rates; callers
    that need w0 for several rate choices build one ``MinimalCost`` and
    ask it for each field.
    """
    return MinimalCost(spec, grid).field(spec, rate_sense, argmin_rtol)


class MinimalCost:
    """The rate-independent part of the minimal-cost solve: candidates and s0.

    The grid's dimension picks the algorithm.  In 1D, alternating-direction
    Gauss-Seidel sweeps over the nodes reach the fixed point in a few passes
    and w0 is filled in increasing-s0 order.  In 2D, vectorized sweeps over
    all nodes and candidates at once do both, at far lower per-node
    overhead than a per-node loop; in 1D the per-node loop is the faster.
    """

    def __init__(self, spec: ProblemSpec, grid: Grid):
        self.grid = grid
        self.cands = _min_cost_candidates(spec, grid)
        n = grid.n_nodes
        ex = np.where(grid.exit_mask)[0]
        if ex.size == 0:
            raise ConfigError("minimal-cost computation needs a nonempty exit set")
        self.q_exit = exit_costs(spec, grid)
        s0 = np.full(n, math.inf)
        s0[ex] = self.q_exit.min(axis=0)
        if grid.dim == 1:
            s0 = _min_cost_sweep_1d(grid, self.cands, s0)
        else:
            s0 = _min_cost_sweep_vec(grid, self.cands, s0)
        if not np.all(np.isfinite(s0[~grid.exit_mask])) and np.any(~grid.exit_mask):
            bad = np.where(~np.isfinite(s0) & ~grid.exit_mask)[0]
            if bad.size == n - ex.size:
                raise NumericsError("no node can reach the exit set (all speeds vanish?)")
        self.s0 = s0

    def field(self, spec: ProblemSpec, rate_sense: str | None = None,
              argmin_rtol: float = 1e-9) -> MinCostField:
        """s0 with the attainment probability w0 under ``spec``'s rates.

        ``spec`` may differ from the one this was built from in its rates only.
        """
        grid = self.grid
        rate_pick = _rate_picker(spec, rate_sense)
        q_min = self.q_exit.min(axis=0)
        w0 = np.zeros((spec.n_modes, grid.n_nodes))
        exit_argmin = self.q_exit <= q_min + argmin_rtol * np.maximum(1.0, q_min)
        w0[:, grid.exit_mask] = np.where(exit_argmin, 1.0, 0.0)
        fill = _w0_ordered if grid.dim == 1 else _w0_fixed_point
        fill(spec, grid, self.cands, self.s0, w0, rate_pick, argmin_rtol)
        return MinCostField(grid, self.s0, w0)


def _w0_ordered(spec, grid, cands, s0, w0, rate_pick, argmin_rtol):
    """Attainment probabilities filled in increasing-s0 (accepted) order."""
    interior = np.where(~grid.exit_mask & np.isfinite(s0))[0]
    order = interior[np.argsort(s0[interior], kind="stable")]
    for k in order:
        best = math.inf
        per_mode_best: dict[int, tuple[float, _Candidate]] = {}
        for cand in cands:
            val = cand.cost[k] * cand.h[k] + _foot_value(s0, cand, k)
            if not math.isfinite(val):
                continue
            prev = per_mode_best.get(cand.mode)
            if prev is None or val < prev[0]:
                per_mode_best[cand.mode] = (val, cand)
            best = min(best, val)
        if not math.isfinite(best):
            continue
        tol = argmin_rtol * max(1.0, abs(best))
        for i, (val, cand) in per_mode_best.items():
            if val <= best + tol:
                w0[i, k] = np.clip(_w0_update(spec, w0, cand, k, rate_pick), 0.0, 1.0)


def _cand_values_vec(cand: _Candidate, s0: np.ndarray) -> np.ndarray:
    """Vectorized update values of one candidate at every node."""
    with np.errstate(invalid="ignore"):
        ok = cand.foot_a >= 0
        fa = np.where(ok, cand.foot_a, 0)
        base = (1.0 - cand.frac) * s0[fa]
        need_b = cand.frac > 0.0
        fb_ok = cand.foot_b >= 0
        fb = np.where(fb_ok, cand.foot_b, 0)
        extra = np.where(need_b, cand.frac * s0[fb], 0.0)
        vals = cand.cost * cand.h + base + extra
        vals = np.where(ok & (~need_b | fb_ok), vals, np.inf)
    return np.where(np.isnan(vals), np.inf, vals)


def _min_cost_sweep_vec(grid: Grid, cands, s0: np.ndarray, max_iter: int = 100000) -> np.ndarray:
    live = ~grid.exit_mask
    for _ in range(max_iter):
        best = s0.copy()
        for cand in cands:
            vals = _cand_values_vec(cand, s0)
            np.minimum(best, np.where(live, vals, s0), out=best)
        if not np.any(best < s0 - 1e-15):
            return best
        s0 = best
    raise ConvergenceError("minimal-cost sweeps did not reach a fixed point")


def _w0_fixed_point(spec, grid, cands, s0, w0, rate_pick, argmin_rtol, max_iter=100000):
    """Vectorized transport of the attainment probability to its fixed point.

    The update graph is acyclic (feet have strictly smaller s0), so plain
    iteration converges in at most the longest chain length.
    """
    m = spec.n_modes
    n = grid.n_nodes
    live = ~grid.exit_mask & np.isfinite(s0)
    per_mode = []
    all_vals = np.stack([_cand_values_vec(c, s0) for c in cands])
    best_all = all_vals.min(axis=0)
    for i in range(m):
        idx = [c_idx for c_idx, c in enumerate(cands) if c.mode == i]
        vals_i = all_vals[idx]
        pick = np.argmin(vals_i, axis=0)
        cols = np.arange(n)
        best_i = vals_i[pick, cols]
        member = live & (best_i <= best_all + argmin_rtol * np.maximum(1.0, np.abs(best_all)))
        sub = [cands[j] for j in idx]
        fa = np.stack([c.foot_a for c in sub])[pick, cols]
        fb = np.stack([c.foot_b for c in sub])[pick, cols]
        frac = np.stack([c.frac for c in sub])[pick, cols]
        h = np.stack([c.h_at_foot for c in sub])[pick, cols]
        per_mode.append((member, np.maximum(fa, 0), np.maximum(fb, 0), frac, h))
    for _ in range(max_iter):
        w_new = w0.copy()
        for i, (member, fa, fb, frac, h) in enumerate(per_mode):
            foot = (1.0 - frac)[None, :] * w0[:, fa] + frac[None, :] * w0[:, fb]
            coupling = np.zeros(n)
            for j in range(m):
                if j == i:
                    continue
                diff = foot[j] - foot[i]
                lam = np.where(diff >= 0.0, rate_pick(i, j, 1.0), rate_pick(i, j, -1.0))
                coupling += lam * diff
            cand_val = np.clip(foot[i] + h * coupling, 0.0, 1.0)
            w_new[i] = np.where(member, cand_val, np.where(grid.exit_mask, w0[i], 0.0))
        if np.abs(w_new - w0).max() <= 1e-15:
            return
        w0[:] = w_new
    raise ConvergenceError("attainment-probability sweeps did not converge")


def _min_cost_sweep_1d(grid: Grid, cands, s0: np.ndarray) -> np.ndarray:
    n = grid.n_nodes
    for sweep in range(n + 2):
        changed = False
        order = range(n) if sweep % 2 == 0 else range(n - 1, -1, -1)
        for k in order:
            if grid.exit_mask[k]:
                continue
            best = s0[k]
            for cand in cands:
                val = cand.cost[k] * cand.h[k] + _foot_value(s0, cand, k)
                if val < best - 1e-15:
                    best = val
            if best < s0[k] - 1e-15:
                s0[k] = best
                changed = True
        if not changed:
            break
    else:
        raise ConvergenceError("minimal-cost sweeps did not reach a fixed point")
    return s0


def restrict_domain(mc: MinCostField, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Per-node first active threshold level and the seed probabilities.

    The level is the conservative ceiling of s0/ds (an exact multiple maps
    to its own level); seeding the first level with w0 introduces an O(ds)
    error but removes the smeared lower envelope entirely.
    """
    if mc.grid is not grid and (mc.grid.shape != grid.shape or mc.grid.ds != grid.ds):
        raise ConfigError("restriction field was computed on a different grid")
    return mc.first_level(), mc.w0


# ---------------------------------------------------------------------------
# Eulerian cross-check
# ---------------------------------------------------------------------------


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
