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
The crossing times come from ``ExitSpec.first_hit``, the one exit geometry
that the simulator uses as well; a tie between an exit and an escape is an
exit.

Every kernel runs on one sparse-operator view of a step.  A
``SemiLagrangianStep`` classifies rows in blocks of N nodes, one mode per
block (the modes of a sweep, or one mode's actions), and keeps their raw
foot stencils.  A ``StepStack`` assembles one step (the modes of a
fixed-rate sweep block-diagonally; the actions of one mode, or the modes
of a bound sweep, on shared columns) and is the only code that assembles
and applies level operators: ``gather``, one sparse product per level
shift, is the level update of the CDF, bound and threshold sweeps alike,
and all three run through ``_sweep``.  Steps are pure geometry; the
switching rates enter at the stack, which alone turns a list of rate
matrices into one-step probabilities I + tau*Q, the capped steps' mixes
I + theta*tau*Q and the expected-cost constants.  So one fixed-rate CDF
sweep serves several rate matrices: a leading rate axis rides through
the mixing, the sparse products (one right-hand column per matrix) and
``_sweep``, and ``solve_cdf`` is its one-matrix case.  The bound sweep
stacks its step without rates and carries its two envelopes on the same
leading field axis, mixing its own bang-bang rates; the threshold sweep
is ``_sweep``'s one-field case.  The fixed-rate and bound sweeps share
one set-up, ``_mode_steps``: one step over the modes.  A policy enters a
step only as actions (``VectorField.at``, the one velocity rule): one per
block for the actions of a mode, one per node for a frozen policy.  The
routed graph's CDF (``discrete.solve_cdf``) runs through ``_sweep`` too,
with one-point stencils that it gathers without scipy.

On the grids in use a level costs numpy calls more than arithmetic, so
the per-level work is a fixed handful of whole-array calls, each giving
the same bits as the plain steps it replaces (``tests/reference_solvers``
keeps those): the fixed-rate level stays C-ordered through the sparse
product, the capped rows' values are recomputed only at the levels where
one of them switches on, and ``_sweep`` seeds, writes the exit rows and
clamps with preallocated or cached arrays.  A sweep holds only the levels
its steps read back (a ring as deep as the deepest level shift) and, of
each field, the slices a caller asks for (a ``Keep``: whole levels and
node columns); without one every field is kept whole.

Expected exit costs and threshold-optimal values are the control
module's, which reduces the candidates of one stack per mode over the
mode's actions; here only the minimal-cost candidates know actions.

The minimal attainable cost s0 (free mode switching) and its attainment
probability w0 restrict the CDF computation: their conservatively
rounded-up levels remove smearing at the lower envelope.  Their upwind
candidates are one ``CandidateTable`` with a row per (mode, action).  Feet
are grid neighbours, so a row is a neighbour stencil: the step cost, the
direction of the axis neighbour the step crosses to and of the diagonal it
leans towards, the lean and the transport duration.  Each is one value per
row when the mode's fields are constant in space, and one per node only
where a field is tabulated; every mode's rows come from one
``VectorField.at`` call over all its actions.  Without a tabulated field
the table holds no (row, node) array: ``CandidateTable.values`` reads the
field once at the neighbours of the nodes asked for and lets each row pick
its directions, in the order a stored table's entries would be combined,
so the values are the same bit for bit, and ``CandidateTable.least``
reduces them in blocks of columns, so the 2D passes build none either.
In 1D every candidate reads one foot, so s0 is a shortest path: the
finite entries of the materialized table (a 1D table is a few rows) are
edges foot -> node of one label setting, ``discrete.label_setting``, and
w0 is transported node by node in increasing s0 on plain floats, along
candidates picked for all nodes at once.  In 2D a frontier sweep
evaluates only the dirty columns: first the live neighbours of the exit
nodes, then the 3^d neighbourhood of the nodes that decreased, which
gives the full Jacobi iteration's fixed point bit for bit because feet
are grid neighbours; w0 is iterated the same way.
s0 does not depend on the switching rates, so ``MinimalCost`` computes
it once, selects each node's transport candidates once, and fills w0 for
all rate choices at once.

scipy.sparse is imported inside the functions that use it, so importing
the package (and starting the CLI) does not pay for it.  The monotonicity
clamp of restricted sweeps is reported on the ``pdmp_cdf`` logger at
DEBUG, and so are the minimal-cost solve's candidate count, pass counts
and node updates.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .discrete import label_setting
from .errors import ConfigError, ConvergenceError, NumericsError
from .model import (CdfField, Grid, Keep, MinCostField, ProblemSpec, RateMatrix,
                    transition_probabilities)

ESCAPE_COST = 1e30  # expected-cost sentinel for trajectories leaving off the exit set
ARGMIN_RTOL = 1e-9  # relative slack for the modes that attain a node's minimal cost
_BLOCK_ENTRIES = 2**15  # (candidate, node) entries that CandidateTable.least holds at once

log = logging.getLogger(__name__)


def causal_tau(spec: ProblemSpec, grid: Grid, tau: float | None = None) -> float:
    """The level sweeps' step ``tau``, by default ds / min C, C the running costs' node values.

    The default makes the threshold foot land exactly on the previous level
    whenever the running cost is constant, which removes all interpolation
    in s for the built-in problems.  A NumericsError when tau is not finite
    (a running cost so small that ds / min C overflows) or tau * min C < ds.
    """
    c_min = min(float(m.cost.node_values(grid).min()) for m in spec.modes)
    tau = grid.ds / c_min if tau is None else tau
    if not math.isfinite(tau):
        raise NumericsError(f"step tau={tau:.6g} is not finite (min running cost {c_min:.6g}, "
                            f"ds={grid.ds:.6g})")
    if tau * c_min < grid.ds * (1.0 - 1e-9):
        raise NumericsError(f"step tau={tau:.6g} with min running cost {c_min:.6g} reads threshold "
                            f"levels above the current one (needs tau*C >= ds={grid.ds:.6g})")
    return tau


# ---------------------------------------------------------------------------
# one-step semi-Lagrangian kernel
# ---------------------------------------------------------------------------


class SemiLagrangianStep:
    """Precomputed one-step update of blocks of N rows: row classes and foot stencils.

    Row ``b * N + k`` is node k of block b.  ``mode`` is one mode (one
    block) or one per block; ``action`` broadcasts against (blocks, N, d):
    one action, one per block or one per node (``VectorField.at``).
    Velocity and running cost are evaluated once per distinct mode; the
    rest is elementwise over rows, so each block is its own step bit for bit.

    Rows are classified once: *regular* steps stay in the domain and read
    the interpolated previous solution, *capped* steps reach the exit set
    at a fraction theta of the step and evaluate the boundary condition at
    the crossing, and *escaping* steps leave the domain off the exit set.

    The foot stencils of the regular rows are kept raw: ``idx`` and ``wts``
    (shape ``(2**dim, n_regular)``) are the multilinear interpolation at the
    feet, and ``shift`` and ``frac`` say which threshold levels each foot
    reads: weight ``1 - frac`` on level ``n - shift`` and ``frac`` on level
    ``n - shift + 1``.  With a constant running cost and the default tau
    every shift is 1 and every frac 0.  ``StepStack`` assembles the sparse
    operators from them.

    A step is pure geometry: the switching rates enter only at the stack.
    ``cap_theta_tau`` is each capped step's duration, ``cap_ds`` its cost
    and ``cap_q`` every mode's exit cost at its crossing point.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        grid: Grid,
        tau: float,
        mode: int | np.ndarray,
        action: np.ndarray | None = None,
    ):
        self.spec = spec
        self.grid = grid
        self.tau = float(tau)
        self.mode = mode
        m, n, dim = spec.n_modes, grid.n_nodes, grid.dim
        blocks = np.atleast_1d(mode)
        pts = np.tile(grid.points, (blocks.size, 1))
        acts = None if action is None else np.broadcast_to(action, (blocks.size, n, dim))
        node_cost = np.empty((blocks.size, n))
        disp = np.empty((blocks.size, n, dim))
        for i in np.unique(blocks):
            own = blocks == i
            rows = np.count_nonzero(own) * n  # pts[:rows] are the points of the mode's rows
            act = None if acts is None else acts[own].reshape(rows, dim)
            node_cost[own] = spec.modes[i].cost.node_values(grid)
            disp[own] = (tau * spec.modes[i].dynamics.at(grid, pts[:rows], act)).reshape(-1, n, dim)
        self.node_cost = node_cost.reshape(-1)
        disp = disp.reshape(-1, dim)

        t_exit, t_escape = spec.exit_set.first_hit(spec.lo, spec.hi, pts, disp)
        theta = np.minimum(t_exit, t_escape)
        exit_rows = np.tile(grid.exit_mask, blocks.size)
        ends = ~exit_rows & (theta <= 1.0 + 1e-12)
        capped = ends & (t_exit <= t_escape)
        escaped = ends & ~capped
        regular = ~exit_rows & ~ends

        self.reg_nodes = np.where(regular)[0]
        self.cap_nodes = np.where(capped)[0]
        self.esc_nodes = np.where(escaped)[0]

        foot = np.clip(pts[self.reg_nodes] + disp[self.reg_nodes], grid.lo, grid.hi)
        idx, wts = grid.spatial_stencil(foot)
        self.idx = idx.astype(np.int32)
        self.wts = wts

        off = tau * self.node_cost[self.reg_nodes] / grid.ds
        self.shift = np.ceil(off - 1e-12).astype(int)
        self.frac = self.shift - off
        self.frac[self.frac < 1e-12] = 0.0
        # within the causality tolerance off may sit a hair below 1; snap so no
        # weight ever lands on the level being written
        self.frac[self.shift <= 1] = 0.0
        if np.any(self.shift < 1):
            raise NumericsError("causality violated: some step reads its own threshold level")

        # capped steps: the shortened interval, its cost and the exit costs at the crossing
        th = theta[self.cap_nodes]
        qx = pts[self.cap_nodes] + th[:, None] * disp[self.cap_nodes]
        self.cap_theta_tau = np.clip(th, 0.0, 1.0) * tau
        self.cap_ds = self.cap_theta_tau * self.node_cost[self.cap_nodes]
        self.cap_q = np.column_stack([spec.modes[j].exit_cost.at(grid, qx) for j in range(m)])


def _cap_mix(modes: np.ndarray, theta_tau: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Mode mix of capped steps out of ``modes`` over ``theta_tau``: I + theta*tau*Q, row by row.

    ``q`` holds R generator matrices (R, M, M); the mixes are (R, K, M).
    """
    mix = np.zeros((q.shape[0], modes.size, q.shape[-1]))
    mix[:, np.arange(modes.size), modes] = 1.0
    mix += theta_tau[:, None] * q[:, modes, :]
    return mix


def _assemble(step: SemiLagrangianStep, width: int, diagonal: bool,
              shift: int | None = None, parts: int = 1):
    """CSR matrix of the step's foot stencils, one row per step row.

    Columns run over (part, node) blocks of ``width``, offset by ``b * N``
    in block b's rows with ``diagonal``.  With ``shift`` only the rows
    reading that level shift, weighted ``1 - frac`` (part 0) and ``frac`` (part 1).
    """
    from scipy import sparse

    n, n_rows = step.grid.n_nodes, step.node_cost.size
    itype = np.int32 if max(n_rows, parts * width) < 2**31 else np.int64
    sel = slice(None) if shift is None else step.shift == shift
    rows = step.reg_nodes[sel].astype(itype)
    cols = step.idx[:, sel].astype(itype) + (rows - rows % n if diagonal else 0)
    wts = step.wts[:, sel]
    weights = [wts] if shift is None else [wts * (1.0 - step.frac[sel]), wts * step.frac[sel]]
    mat = sparse.csr_matrix(
        (np.concatenate([w.ravel() for w in weights[:parts]]),
         (np.tile(np.broadcast_to(rows, cols.shape).ravel(), parts),
          np.concatenate([(cols + p * width).ravel() for p in range(parts)]))),
        shape=(n_rows, parts * width))
    mat.eliminate_zeros()
    return mat


class StepStack:
    """One step's level operators: the only place they are built and applied.

    Row ``b * N + k`` is node k of the step's block b.  ``interp`` is the
    plain foot interpolation.  ``level_ops`` holds one ``(shift, parts,
    matrix)`` triple per level shift of any row, assembled from the step's
    stencils; ``gather`` applies them, one sparse product per shift, to the
    previous levels stacked part by part.  With ``diagonal`` each block
    reads its own block of that input (the modes of a fixed-rate sweep,
    each reading its own mixed level); otherwise every block reads the same
    input (the actions of one mode, or the modes of a bound sweep reading
    every source mode).  The ``cap_*`` arrays are the capped rows':
    ``cap_theta_tau`` their durations, ``cap_ds`` their costs and ``cap_q``
    the exit costs at their crossings.  A capped row reads its boundary
    indicator (``cap_indicator``), which switches on where ``n * ds -
    cap_ds`` reaches an exit cost; ``cap_flips`` lists those levels
    (``_switch_levels``), so the indicator and ``cap_cdf`` are computed
    once between two of them (``_Stepwise``) and shared, read-only, by
    every level in between.

    This is also the one place where switching rates become probabilities.
    Given ``rates``, a list of R rate matrices, a leading axis carries one
    entry per matrix: ``probs`` (R, B, M) holds each block's row of the
    one-step probabilities I + tau*Q, ``cap_probs`` (R, n_cap, M) the
    capped rows' mix I + theta*tau*Q, and ``const`` (R, B * N) the
    constant part of the expected-cost update: the running cost tau*C of a
    regular row, the boundary value of a capped row, ``ESCAPE_COST`` on an
    escaping row.  One sweep thus serves every matrix of a fixed-rate sweep,
    and ``control.ActionStacks`` reads entry 0.  Without ``rates`` (the
    bound sweep, which mixes its own bang-bang rates) all three are None.
    The stack keeps no reference to the step, so its stencils can be freed
    once the stack is built.
    """

    def __init__(self, step: SemiLagrangianStep, diagonal: bool = False,
                 rates: list[RateMatrix] | None = None):
        self.n_nodes = n = step.grid.n_nodes
        self.ds = step.grid.ds
        width = step.node_cost.size if diagonal else n
        self.interp = _assemble(step, width, diagonal)
        if np.all(step.shift == 1):
            self.level_ops = [(1, 1, self.interp)]
        else:
            self.level_ops = []
            for s in np.unique(step.shift).tolist():
                parts = 2 if np.any(step.frac[step.shift == s] > 0.0) else 1
                self.level_ops.append((s, parts, _assemble(step, width, diagonal, s, parts)))
        self.cap_rows, self.cap_theta_tau, self.cap_ds, self.cap_q = (
            step.cap_nodes, step.cap_theta_tau, step.cap_ds, step.cap_q)
        bar = self.cap_q - 1e-15
        self.cap_flips = _switch_levels(self.ds, self.cap_ds, bar, step.grid.n_levels)
        self._indicator = _Stepwise(self.cap_flips, lambda n: _switched_on(
            n, self.ds, self.cap_ds, bar).astype(float))
        self._cdf = _Stepwise(self.cap_flips, lambda n: np.einsum(
            "rkj,kj->rk", self.cap_probs, self._indicator(n)))
        self.probs = self.cap_probs = self.const = None
        if rates is None:
            return
        modes = np.atleast_1d(step.mode)
        self.probs = np.array([transition_probabilities(rm, step.tau)[modes] for rm in rates])
        self.cap_probs = _cap_mix(modes[self.cap_rows // n], self.cap_theta_tau,
                                  np.array([rm.matrix for rm in rates]))
        self.const = np.zeros((len(rates), step.node_cost.size))
        self.const[:, step.reg_nodes] = step.tau * step.node_cost[step.reg_nodes]
        self.const[:, step.esc_nodes] = ESCAPE_COST
        self.const[:, self.cap_rows] = self.cap_ds + np.einsum("rkj,kj->rk", self.cap_probs,
                                                               self.cap_q)

    @property
    def depth(self) -> int:
        """The deepest level shift: ``gather`` at level n reads no level below n - depth."""
        return self.level_ops[-1][0]

    def gather(self, n: int, read) -> np.ndarray:
        """Every stacked row's foot value at level n: one sparse product per level shift.

        Shift s reads the stacked inputs ``read(n - s, p)`` of levels ``n - s + p``.
        Below threshold zero ``read`` extends the field: W reads zero for a
        whole shift whose lower level is negative, the threshold's V reads
        level ``max(n - s + p, 0)``.  Capped rows are left to the caller.
        """
        total = None
        for shift, parts, op in self.level_ops:
            x = read(n - shift, 0) if parts == 1 else np.concatenate(
                [read(n - shift, p) for p in range(parts)])
            part = op @ x  # sums from +0.0, so never -0.0: the first part needs no 0.0 + part
            total = part if total is None else total + part
        return total

    def cap_indicator(self, n: int) -> np.ndarray:
        """Per-final-mode boundary indicator of the capped rows at grid level n (read-only)."""
        return self._indicator(n)

    def cap_cdf(self, n: int) -> np.ndarray:
        """Fixed-rate CDF values of the capped rows at grid level n: (R, n_cap), read-only."""
        return self._cdf(n)


def _switched_on(n, ds: float, cost: np.ndarray, bar: np.ndarray) -> np.ndarray:
    """The boundary indicator of exit and capped rows: ``n * ds - cost[k] >= bar[k, j]``.

    Exit rows have ``cost`` 0, where ``n * ds - 0.0`` is ``n * ds`` exactly.
    """
    return n * ds - cost[:, None] >= bar


def _switch_levels(ds: float, cost: np.ndarray, bar: np.ndarray, n_levels: int) -> list[int]:
    """The levels 0 < n < n_levels at which some entry of ``_switched_on`` turns on.

    Each entry is nondecreasing in n.  Its first level is estimated by
    division and then moved one level at a time while ``_switched_on``
    says the estimate is off; so the levels are exact.
    """
    first = np.clip(np.ceil((bar + cost[:, None]) / ds), 0, n_levels).astype(np.int64)
    while np.any(down := (first > 0) & _switched_on(first - 1, ds, cost, bar)):
        first -= down
    while np.any(up := (first < n_levels) & ~_switched_on(first, ds, cost, bar)):
        first += up
    return sorted(set(first[(first > 0) & (first < n_levels)].tolist()))


class _Stepwise:
    """A read-only array of the level that changes only at ``levels``: computed once per stretch."""

    def __init__(self, levels: list[int], compute):
        self.levels = levels
        self.compute = compute
        self.stretch = self.value = None

    def __call__(self, n: int) -> np.ndarray:
        stretch = bisect.bisect_right(self.levels, n)
        if stretch != self.stretch:
            self.value = self.compute(n)
            self.value.flags.writeable = False
            self.stretch = stretch
        return self.value


def exit_costs(spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """Every mode's exit cost ``node_values`` at the exit nodes, (M, n_exit): the exit table."""
    return np.array([mode.exit_cost.node_values(grid)[grid.exit_mask] for mode in spec.modes])


class MonotoneClamp:
    """The counters of a restricted sweep's monotone clamp, and their log record.

    The seeded envelope is an O(ds) approximation, so the first updates
    above it can dip below the previous level; ``_sweep`` raises them to it
    and counts here how many live-node values it raised (``count``) and
    the largest raise (``largest``).  ``report`` logs both.
    """

    def __init__(self):
        self.count = 0
        self.largest = 0.0

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
    actions: np.ndarray | None = None,
    keep: Keep | None = None,
) -> CdfField:
    """Solve for the exit-cost CDF of an uncontrolled problem, or of a frozen policy.

    ``actions`` (shape (M, n_nodes, d)) freezes a policy: mode i moves
    under action ``actions[i, k]`` at node k (``VectorField.at``), which is
    how a controlled problem runs here.  ``restrict`` zeroes all levels
    below the rounded-up minimal attainable cost and seeds the first active
    level with its attainment probability, which both speeds up the sweep
    and removes smearing at the lower envelope.

    Each level update mixes the previous levels over the modes with the
    one-step transition probabilities and applies the block-diagonal stack
    of the modes' step operators: one sparse product per level shift.  This
    is the one-matrix case of ``_solve_cdfs``.  The sweep holds the levels
    its steps read back; the field is whole (M, L, N), or with ``keep``
    only that keep's sheets and node columns, the same values bit for bit.
    """
    (field,) = _solve_cdfs(spec, grid, [spec.require_fixed_rates()], tau, restrict, actions, keep)
    return field


def _mode_steps(spec: ProblemSpec, grid: Grid, tau: float | None,
                actions: np.ndarray | None = None) -> tuple[SemiLagrangianStep, float]:
    """One step whose blocks are the M modes, and its tau (``causal_tau``): a sweep's set-up.

    ``actions`` is None or (M, n_nodes, d), one action per mode and node.
    """
    tau = causal_tau(spec, grid, tau)
    return SemiLagrangianStep(spec, grid, tau, np.arange(spec.n_modes), actions), tau


def _solve_cdfs(
    spec: ProblemSpec,
    grid: Grid,
    rates: list[RateMatrix],
    tau: float | None = None,
    restrict: MinCostField | None = None,
    actions: np.ndarray | None = None,
    keep: Keep | None = None,
) -> list[CdfField]:
    """The exit-cost CDF under each rate matrix of ``rates``, from one sweep.

    The step does not depend on the rates, so the modes' step is built and
    stacked once; ``spec``'s own rates are not read.  Level n of every
    matrix comes from one mixing product per shift part, the stacked
    probability matrices (R, M, M) times the previous levels (R, M, N), and
    one sparse product per level shift with R right-hand columns.
    ``restrict`` is one minimal-cost field (s0 does not depend on the rates)
    whose w0 is a single (M, N) seed for every matrix or one per matrix,
    stacked (R, M, N).  Each field holds what ``keep`` asks for, all of it
    by default (see ``_sweep``), and the fields share the restricted
    sweep's clamp.
    """
    if spec.controlled and actions is None:
        raise ConfigError("controlled problems need the control module (or frozen actions)")
    step, tau = _mode_steps(spec, grid, tau, actions)
    stack = StepStack(step, diagonal=True, rates=rates)
    del step
    n_rates, rows = len(rates), spec.n_modes * grid.n_nodes
    zero = np.zeros((rows, n_rates))

    def update(level, n: int) -> np.ndarray:
        # each part's level mixed over the modes, as C-ordered (M * N, R) columns
        vals = stack.gather(n, lambda lo, p: zero if lo < 0 else np.ascontiguousarray(
            (stack.probs @ level(lo + p)).reshape(n_rates, rows).T))
        vals[stack.cap_rows] = stack.cap_cdf(n).T
        # back to a contiguous (R, M, N) level; with one matrix both transposes are views
        return np.ascontiguousarray(vals.T).reshape(n_rates, spec.n_modes, grid.n_nodes)

    matrices = "matrix" if n_rates == 1 else "matrices"
    fields, clamp = _sweep(grid.exit_mask, exit_costs(spec, grid), grid.ds, grid.n_levels, restrict,
                           update, f"CDF sweep over {n_rates} rate {matrices}", n_rates,
                           stack.depth, keep)
    return [CdfField(grid, values, spec=spec if rm is spec.rates else replace(spec, rates=rm),
                     tau=tau, clamp=clamp, keep=keep, columns=columns)
            for (values, columns), rm in zip(fields, rates)]


def _sweep(exit_mask: np.ndarray, q_exit: np.ndarray, ds: float, n_levels: int, restrict,
           update, what: str, n_fields: int, depth: int, keep: Keep | None = None):
    """Causal upward sweep of ``n_fields`` fields; ``update(level, n)`` gives their level n.

    ``level(k)`` holds every field's level k and the update returns level n,
    both (F, M, N): the rate matrices of a rate-stacked CDF sweep, the
    bound sweep's two envelopes, the threshold sweep's one field or the
    routed graph's (``discrete.solve_cdf``).  Of the problem the sweep
    reads only the N-node ``exit_mask``, every mode's exit costs at those
    nodes (``q_exit``, (M, n_exit)), the threshold spacing ``ds`` and the
    level count ``n_levels``.  The update's array is the sweep's to change
    in place; the update must not change what ``level`` gives it.  The
    seeding uses one ``first_level`` with ``restrict.w0``, one (M, N) seed
    for every field or one per field, stacked (F, M, N).

    What the sweep holds: the levels the update reads back, n - depth to
    n - 1, in a ring of the update's own arrays, so reading them costs no
    copy (``depth`` is the deepest level shift of the update's steps,
    ``StepStack.depth``, 1 when every step reads the level just below);
    and of each field only its ``keep``: the whole levels ``keep.levels``,
    one (M, K, N) array per field, and the node columns ``keep.nodes`` at
    every level, (M, L, C) views of one array.  Without ``keep`` every
    level is kept whole, so each field is its own (M, L, N) array, as
    separate solves would allocate them.

    It owns level 0, the restricted seeding with one clamp for all fields
    and the exit rows (the update's exit rows are overwritten).  Per level
    that is a few whole-array numpy calls.  The seeding zeros the nodes
    whose first level lies above n and copies w0 at the nodes whose first
    level is n; after the last such level only never-attained nodes are
    zeroed.  The exit rows are written next, from an indicator recomputed
    only at the levels where n * ds passes an exit cost (the capped rows'
    rule with cost 0); they only switch on as n grows, so their gaps to
    the previous level are never positive.
    The clamp then takes every gap into one buffer, and only when one is
    positive counts the raises, records the largest and takes the maximum
    in place.  Returns one ``(values, columns)`` pair per field (columns
    None without ``keep``) and the clamp (None without ``restrict``).
    """
    m, n_nodes = q_exit.shape[0], exit_mask.size
    ex = np.flatnonzero(exit_mask)
    reach, none = q_exit - 1e-15, np.zeros(m)
    exit_rows = _Stepwise(_switch_levels(ds, none, reach, n_levels),
                          lambda n: _switched_on(n, ds, none, reach).astype(float))
    kept = range(n_levels) if keep is None else keep.levels.tolist()
    slot = {k: i for i, k in enumerate(kept)}  # level -> its index in the stored values
    fields = [np.zeros((m, len(kept), n_nodes)) for _ in range(n_fields)]
    nodes = None if keep is None else keep.nodes
    columns = None if keep is None else np.zeros((n_fields, m, n_levels, nodes.size))

    def store(n: int, vals: np.ndarray) -> None:
        i = slot.get(n)
        if i is not None:
            for w, v in zip(fields, vals):
                w[:, i] = v
        if nodes is not None and nodes.size:
            columns[:, :, n] = vals[..., nodes]

    ring = [None] * depth  # level k sits at ring[k % depth]

    def level(k: int) -> np.ndarray:
        return ring[k % depth]

    clamp = None
    if restrict is not None:
        clamp = MonotoneClamp()
        first = restrict.first_level()
        never = first >= n_levels
        zero_never = bool(never.any())
        order = np.argsort(first, kind="stable")
        levels, starts = np.unique(first[order], return_index=True)
        seeds = dict(zip(levels.tolist(), np.split(order, starts[1:])))  # level -> its nodes
        last_seed = int(first[~never].max(initial=0))
        gap = np.empty((n_fields, m, n_nodes))
    prev = np.zeros((n_fields, m, n_nodes))
    prev[..., ex] = exit_rows(0)
    store(0, prev)
    ring[0] = prev
    for n in range(1, n_levels):
        vals = update(level, n)
        if clamp is not None:
            if n <= last_seed:
                vals = np.where(first > n, 0.0, vals)
                at = seeds.get(n)
                if at is not None:
                    vals[..., at] = restrict.w0[..., at]
            elif zero_never:
                vals = np.where(never, 0.0, vals)
        vals[..., ex] = exit_rows(n)
        if clamp is not None:
            # exit rows only switch on as n grows, so their gaps are never positive
            np.subtract(prev, vals, out=gap)
            top = gap.max()
            if top > 0.0:
                clamp.count += int(np.count_nonzero(gap > 0.0))
                clamp.largest = max(clamp.largest, float(top))
                np.maximum(vals, prev, out=vals)
        store(n, vals)
        ring[n % depth] = prev = vals
    if clamp is not None:
        clamp.report(f"restricted {what}")
    return [(w, None if columns is None else columns[f]) for f, w in enumerate(fields)], clamp


# ---------------------------------------------------------------------------
# minimal attainable cost
# ---------------------------------------------------------------------------


class Candidates(NamedTuple):
    """Materialized candidate entries, one per (row, node) pair asked for."""

    const: np.ndarray      # step cost, inf where the foot leaves the grid
    frac: np.ndarray       # weight on the diagonal foot, 0 without one
    foot_a: np.ndarray     # int32 neighbour across the face, -1 where the foot leaves the grid
    foot_b: np.ndarray     # int32 diagonal neighbour, -1 without one
    h_at_foot: np.ndarray  # step duration with the foot-point speed


@dataclass(frozen=True)
class CandidateTable:
    """Upwind update candidates of the minimal-cost solve, one row per (mode, action).

    Rows run mode by mode and, within a mode, action by action; ``mode[c]``
    is row c's mode.  Candidate c moves node k along its velocity to the
    first cell face, and its value for a node field v is

        const[c] + (1 - frac[c]) * v[foot_a] + frac[c] * v[foot_b]

    Feet are grid neighbours, so a row stores them as directions, not as
    node indices: ``foot`` is the axis neighbour across the face (id
    ``2 * axis + (velocity > 0)``, or ``2 * dim`` when the velocity is
    zero) and ``diag`` the diagonal neighbour the foot leans towards with
    weight ``frac`` (id ``2 * (v_0 > 0) + (v_1 > 0)`` in 2D, or the last id
    when the lean is 0).  ``const`` is the running cost times the step
    duration (inf where the duration is), and ``h_at_foot`` the duration
    with the foot-point speed, which transports the attainment probability.

    Each of these is a (C, 1) column when every mode gives it one value per
    row (velocities and running costs constant in space) and (C, n) when a
    tabulated field makes it vary by node.  ``axis_nb`` (2 * dim + 1, n)
    and ``diag_nb`` (n_diag + 1, n) say once per grid which neighbour each
    direction reaches from each node: its index, n for a missing axis
    neighbour (it reads inf), and n + 1 for a missing diagonal and on the
    last ("none") row (they read 0).
    ``values`` evaluates candidates on demand from these stencils and
    ``entries`` materializes them; both are bit for bit the stored table's.
    The 2D passes reduce candidates through ``least``, which runs ``values``
    on blocks of columns and keeps each column's minimum and first argmin.
    """

    const: np.ndarray      # (C, 1) or (C, n)
    frac: np.ndarray       # (C, 1) or (C, n)
    foot: np.ndarray       # (C, 1) or (C, n) int8 direction ids
    diag: np.ndarray       # (C, 1) or (C, n) int8 direction ids
    h_at_foot: np.ndarray  # (C, 1) or (C, n)
    mode: np.ndarray       # (C,)
    axis_nb: np.ndarray    # (2 * dim + 1, n) int32
    diag_nb: np.ndarray    # (n_diag + 1, n) int32

    def mode_rows(self, i: int) -> slice:
        rows = np.flatnonzero(self.mode == i)
        return slice(int(rows[0]), int(rows[-1]) + 1)

    def values(self, vals: np.ndarray, rows: slice = slice(None),
               cols: np.ndarray | None = None) -> np.ndarray:
        """Values of candidates ``rows`` at nodes ``cols`` (all nodes if None).

        The field is read once at the neighbours of ``cols``: a missing axis
        neighbour reads inf, a missing diagonal and the "none" direction read
        0 with weight 0.  A candidate is ``inf`` wherever a foot it reads is
        infinite, even with zero weight.
        """
        return self._values(np.append(vals, (np.inf, 0.0)), rows, cols)

    def _values(self, padded: np.ndarray, rows: slice, cols: np.ndarray | None) -> np.ndarray:
        """``values`` of the field ``padded`` with its (inf, 0) reads appended."""
        axis_nb, diag_nb = (self.axis_nb, self.diag_nb) if cols is None else (
            self.axis_nb[:, cols], self.diag_nb[:, cols])
        diag = _cells(self.diag, rows, cols)
        frac = _pick(diag_nb < padded.size - 2, diag) * _cells(self.frac, rows, cols)
        with np.errstate(invalid="ignore"):
            out = _pick(padded[axis_nb], _cells(self.foot, rows, cols))
            out *= 1.0 - frac
            out += _cells(self.const, rows, cols)
            lean = _pick(padded[diag_nb], diag)
            lean *= frac
            out += lean
        return np.fmin(out, np.inf, out=out)  # nan (0 * inf) -> inf

    def least(self, vals: np.ndarray, cols: np.ndarray, rows: slice = slice(None),
              argmin: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Each column's least value over candidates ``rows`` at nodes ``cols``, and its first
        argmin (a row offset into ``rows``; None unless ``argmin``): ``values(...).min(axis=0)``
        and ``np.argmin(values(...), axis=0)``.

        The columns are reduced in blocks of about ``_BLOCK_ENTRIES`` (row, node)
        entries, so no (rows, cols) matrix is held.  Each entry is computed as
        ``values`` computes it and each column reduced over the same rows, so
        the results are the whole matrix's bit for bit.  An argmin along the
        rows can cost many times the min, so the s0 sweep asks for the min alone.
        """
        padded = np.append(vals, (np.inf, 0.0))
        width = max(1, _BLOCK_ENTRIES // self.mode[rows].size)
        best = np.empty(cols.size)
        arg = np.empty(cols.size, dtype=np.intp) if argmin else None
        for lo in range(0, cols.size, width):
            block = self._values(padded, rows, cols[lo:lo + width])
            block.min(axis=0, out=best[lo:lo + width])
            if argmin:
                block.argmin(axis=0, out=arg[lo:lo + width])
        return best, arg

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> Candidates:
        """The entries of rows ``rows`` at nodes ``cols``, two index arrays broadcast together."""
        shape = np.broadcast_shapes(rows.shape, cols.shape)

        def at(arr):
            return np.broadcast_to(arr[rows, cols if arr.shape[1] > 1 else 0], shape)

        n = self.axis_nb.shape[1]
        across = self.axis_nb[at(self.foot), cols]
        toward = self.diag_nb[at(self.diag), cols]
        has_a, has_b = across < n, toward < n
        return Candidates(const=np.where(has_a, at(self.const), np.inf),
                          frac=at(self.frac) * has_b,
                          foot_a=np.where(has_a, across, -1), foot_b=np.where(has_b, toward, -1),
                          h_at_foot=at(self.h_at_foot))

    def materialize(self) -> Candidates:
        """Every entry, (C, n) each: the 1D loops read whole rows."""
        return self.entries(np.arange(self.mode.size)[:, None], np.arange(self.axis_nb.shape[1]))


def _cells(arr: np.ndarray, rows: slice, cols: np.ndarray | None) -> np.ndarray:
    """Rows ``rows`` of a (C, 1) or (C, n) table field, at nodes ``cols`` when it is per node."""
    arr = arr[rows]
    return arr if cols is None or arr.shape[1] == 1 else arr[:, cols]


def _pick(arr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row ``ids[c, k]`` of column k of ``arr`` for every (c, k); ``ids`` is (r, 1) or (r, m)."""
    if ids.shape[1] == 1:  # whole rows: about ten times faster than a broadcast take_along_axis
        return arr[ids[:, 0]]
    return np.take_along_axis(arr, ids, axis=0)


def _neighbours(grid: Grid, signs: list[tuple[int, ...]], missing: int) -> np.ndarray:
    """Flat index of each node's neighbour one step along each ``signs`` vector.

    ``missing`` where that neighbour is off the grid; a last row of n + 1
    stands for no neighbour at all.
    """
    n = grid.n_nodes
    multi = np.indices(grid.shape).reshape(grid.dim, n)
    out = np.full((len(signs) + 1, n), n + 1, dtype=np.int32)
    for row, sign in zip(out, signs):
        nb = multi + np.array(sign)[:, None]
        inside = np.all((nb >= 0) & (nb < np.array(grid.shape)[:, None]), axis=0)
        row[:] = np.where(inside, np.ravel_multi_index(nb, grid.shape, mode="clip"), missing)
    return out


def _candidate_table(spec: ProblemSpec, grid: Grid) -> CandidateTable:
    """Each mode's rows from one ``VectorField.at`` call over all its actions.

    A velocity constant in space is evaluated at one point per action, so
    its rows are (A, 1) columns; a tabulated one is evaluated at every node
    once, as it ignores the action, and its one (1, n) row stands for all A.
    A constant running cost is one value per mode.  Each field is stacked at
    the widest shape any mode gives it.
    """
    dim, n = grid.dim, grid.n_nodes
    units = [tuple(s if b == a else 0 for b in range(dim)) for a in range(dim) for s in (-1, 1)]
    axis_nb = _neighbours(grid, units, n)  # a missing axis neighbour reads inf
    diag_nb = _neighbours(grid, [(s0, s1) for s0 in (-1, 1) for s1 in (-1, 1)] if dim == 2 else [],
                          n + 1)  # a missing diagonal reads 0
    actions = spec.controls.vectors if spec.controlled else None
    n_act = spec.controls.n_actions if spec.controlled else 1
    parts = []
    for mode in spec.modes:
        if mode.dynamics.constant_in_space:
            sites, shape = np.broadcast_to(grid.points[0], (n_act, dim)), (n_act, 1)
        else:
            sites, shape = grid.points, (1, n)
        vel = mode.dynamics.at(grid, sites, actions)
        cost = mode.cost.node_values(grid)[:1 if mode.cost.kind == "constant" else None]
        parts.append(_mode_rows(grid, axis_nb, [v.reshape(shape) for v in vel.T], cost[None, :]))
    fields = {}
    for key in parts[0]:
        width = max(part[key].shape[1] for part in parts)
        fields[key] = np.concatenate([np.broadcast_to(part[key], (n_act, width)) for part in parts])
    return CandidateTable(**fields, mode=np.repeat(np.arange(spec.n_modes), n_act),
                          axis_nb=axis_nb, diag_nb=diag_nb)


def _axis_times(grid: Grid, vel: list[np.ndarray]) -> np.ndarray:
    """Time to cross one cell along each axis, inf where that speed is zero or too small: (d, ...)."""
    speed = [np.abs(v) for v in vel]
    with np.errstate(divide="ignore", over="ignore"):
        return np.stack([np.where(sp > 0, dx / sp, np.inf) for sp, dx in zip(speed, grid.dx)])


def _mode_rows(grid: Grid, axis_nb: np.ndarray, vel: list[np.ndarray], cost: np.ndarray) -> dict:
    """One mode's table fields from its velocity, one (r, 1) or (1, n) array per axis.

    ``cost`` is (1, 1) or (1, n).  The step crosses the face of the axis it
    reaches first (axis 0 on a tie); in 2D the foot leans towards the
    diagonal neighbour one step along the sign of the velocity on both
    axes, by the fraction of a cell the other component covers meanwhile.
    Only a tabulated velocity needs the in-grid foot, for the duration with
    the foot-point speed.
    """
    t = _axis_times(grid, vel)
    axis = np.argmin(t, axis=0)
    h = np.min(t, axis=0)
    v = np.stack(vel)
    crossing = np.take_along_axis(v, axis[None], axis=0)[0]
    foot = np.where(np.isfinite(h), 2 * axis + (crossing > 0), 2 * grid.dim).astype(np.int8)
    if grid.dim == 2:
        other = 1 - axis
        with np.errstate(invalid="ignore"):  # inf * 0 where h is inf; zeroed next
            lean = np.minimum(np.abs(np.take_along_axis(v, other[None], axis=0)[0]) * h
                              / grid.dx[other], 1.0)
        frac = np.where(lean > 1e-15, lean, 0.0)
        diag = np.where(frac > 0.0, 2 * (v[0] > 0) + (v[1] > 0), 4).astype(np.int8)
    else:
        frac, diag = np.zeros(h.shape), np.zeros(h.shape, dtype=np.int8)
    h_at_foot = h
    if h.shape[1] > 1:
        across = np.take_along_axis(axis_nb, foot.astype(np.intp), axis=0)
        inside = across < grid.n_nodes
        at = np.where(inside, across, 0)
        h_at_foot = np.min(_axis_times(grid, [np.where(inside, np.take_along_axis(va, at, axis=1),
                                                       va) for va in vel]), axis=0)
    # running costs are positive, so const is inf where the duration is
    return {"const": cost * h, "frac": frac, "foot": foot, "diag": diag, "h_at_foot": h_at_foot}


def _near(grid: Grid, nodes: np.ndarray) -> np.ndarray:
    """Mask of the nodes within one cell of ``nodes`` on every axis: their 3^d neighbourhood."""
    grown = np.zeros(grid.n_nodes, dtype=bool)
    grown[nodes] = True
    grown = grown.reshape(grid.shape)
    for a in range(grid.dim):
        near = grown.copy()
        up = (slice(None),) * a + (slice(1, None),)
        down = (slice(None),) * a + (slice(None, -1),)
        near[up] |= grown[down]
        near[down] |= grown[up]
        grown = near
    return grown.reshape(-1)


def _frontier_sweep(grid: Grid, table: CandidateTable, s0: np.ndarray,
                    max_iter: int = 100000) -> tuple[np.ndarray, int, int]:
    """Jacobi passes that evaluate only the columns whose feet changed.

    Every pass updates its dirty nodes from the previous pass's values, as
    a full Jacobi pass would, each with its least candidate from
    ``CandidateTable.least`` (block by block, the minimum alone).  Feet
    are grid neighbours, so only the 3^d neighbourhood of the nodes that
    decreased can change in the next pass; the iterates, and so the fixed
    point, are those of the full iteration.
    Returns s0, the pass count and the number of node decreases.
    """
    live = ~grid.exit_mask
    dirty = np.flatnonzero(_near(grid, np.flatnonzero(grid.exit_mask)) & live)
    updates = 0
    for passes in range(1, max_iter + 1):
        old = s0[dirty]
        best = np.minimum(old, table.least(s0, dirty, argmin=False)[0])
        s0[dirty] = best
        lower = best < old
        updates += int(np.count_nonzero(lower))
        if not np.any(best < old - 1e-15):
            return s0, passes, updates
        dirty = np.flatnonzero(_near(grid, dirty[lower]) & live)
    raise ConvergenceError("minimal-cost sweeps did not reach a fixed point")


def _label_setting_1d(grid: Grid, table: CandidateTable,
                      s0: np.ndarray) -> tuple[np.ndarray, int, int]:
    """1D s0 as a shortest path: each candidate reads one foot, an edge foot_a -> k.

    Returns s0, one pass and the number of label decreases.
    """
    ent = table.materialize()
    rows, cols = np.nonzero(np.isfinite(ent.const) & ~grid.exit_mask)
    s0, updates = label_setting(ent.foot_a[rows, cols], cols, ent.const[rows, cols], s0)
    return s0, 1, updates


def _transport_rates(spec: ProblemSpec, sense: str | None) -> tuple[np.ndarray, np.ndarray]:
    """Rates of the attainment-probability transport for nonnegative and for negative gaps."""
    if sense is None:
        lam = spec.require_fixed_rates().off_diagonal()
        return lam, lam
    extreme = {"upper": "max", "lower": "min"}.get(sense)
    if extreme is None:
        raise ConfigError(f"unknown rate sense {sense!r}")
    rb = spec.require_rate_bounds()
    return rb.extreme_rates(extreme, 1.0), rb.extreme_rates(extreme, -1.0)


def solve_min_cost(spec: ProblemSpec, grid: Grid, rate_sense: str | None = None) -> MinCostField:
    """Minimal attainable cost s0 and its attainment probability per mode.

    ``rate_sense`` selects the probability transport rates: ``None`` uses
    the fixed rate matrix, ``"upper"``/``"lower"`` extremize within rate
    bounds term by term.  s0 itself never depends on the rates; callers
    that need w0 for several rate choices build one ``MinimalCost`` and
    ask it for all of them at once (``MinimalCost.stacked``).
    """
    return MinimalCost(spec, grid).field(spec, rate_sense)


class MinimalCost:
    """The rate-independent part of the minimal-cost solve: the candidate table and s0.

    Every (mode, action) is one row of a ``CandidateTable``, evaluated on
    demand at the nodes a pass asks for, and s0 is the fixed point of
    ``s0[k] = min(s0[k], min_c value_c(s0)[k])`` from the exit costs.  The
    grid's dimension picks the solver.  In 1D a candidate reads one foot,
    so s0 is a shortest path, found by one label setting (one pass), and
    w0 is filled in increasing-s0 order.  In 2D a frontier sweep does Jacobi
    passes over the dirty columns of the table only: the first dirty set is
    the live neighbours of the exit nodes, the next one the 3^d
    neighbourhood of the nodes that decreased, so each pass costs the
    frontier's width instead of the whole grid.  w0 is then the fixed
    point of the transport along each mode's best candidate, picked from
    one mode's rows at a time and iterated over the neighbourhood of the
    last changes in the same way.  Both reduce candidates with
    ``CandidateTable.least``, in blocks of columns, so no (row, node)
    matrix is held.

    w0 is filled for all rate choices at once (``stacked``): the candidate
    each node and mode transports along does not depend on the rates, so it
    is selected once, and each transport step updates a length-R vector.
    ``field`` is the one-choice case.

    ``passes`` and ``updates`` count the s0 passes and node decreases, and
    ``w0_passes`` the passes of the last w0 fill.  Every w0 fill logs them
    at DEBUG on the ``pdmp_cdf`` logger with the candidate count, and the
    field it returns carries the same four numbers as ``counters``.
    """

    def __init__(self, spec: ProblemSpec, grid: Grid):
        self.grid = grid
        self.table = _candidate_table(spec, grid)
        n = grid.n_nodes
        ex = np.where(grid.exit_mask)[0]
        if ex.size == 0:
            raise ConfigError("minimal-cost computation needs a nonempty exit set")
        self.q_exit = exit_costs(spec, grid)
        s0 = np.full(n, math.inf)
        s0[ex] = self.q_exit.min(axis=0)
        sweep = _label_setting_1d if grid.dim == 1 else _frontier_sweep
        s0, self.passes, self.updates = sweep(grid, self.table, s0)
        self.w0_passes = 0
        if not np.all(np.isfinite(s0[~grid.exit_mask])) and np.any(~grid.exit_mask):
            bad = np.where(~np.isfinite(s0) & ~grid.exit_mask)[0]
            if bad.size == n - ex.size:
                raise NumericsError("no node can reach the exit set (all speeds vanish?)")
        self.s0 = s0

    def field(self, spec: ProblemSpec, rate_sense: str | None = None) -> MinCostField:
        """s0 with the attainment probability w0 under ``spec``'s rates.

        ``spec`` may differ from the one this was built from in its rates only.
        """
        stacked = self.stacked([(spec, rate_sense)])
        return MinCostField(self.grid, self.s0, stacked.w0[0], stacked.counters)

    def stacked(self, choices: list[tuple[ProblemSpec, str | None]]) -> MinCostField:
        """s0 with one w0 per rate choice ``(spec, rate_sense)``, stacked: w0 is (R, M, N).

        Each choice's w0 equals its own ``field`` bit for bit.
        """
        grid = self.grid
        transport = [_transport_rates(spec, sense) for spec, sense in choices]
        rates = (np.array([up for up, _ in transport]), np.array([down for _, down in transport]))
        q_min = self.q_exit.min(axis=0)
        w0 = np.zeros((len(choices), self.q_exit.shape[0], grid.n_nodes))
        exit_argmin = self.q_exit <= q_min + ARGMIN_RTOL * np.maximum(1.0, q_min)
        w0[:, :, grid.exit_mask] = np.where(exit_argmin, 1.0, 0.0)
        fill = _w0_ordered if grid.dim == 1 else _w0_fixed_point
        self.w0_passes = fill(grid, self.table, self.s0, w0, rates)
        counters = {"candidates": int(self.table.mode.size), "s0_passes": self.passes,
                    "node_updates": self.updates, "w0_passes": self.w0_passes}
        log.debug("minimal cost: %d candidates, %d s0 passes, %d node updates, %d w0 passes",
                  *counters.values())
        return MinCostField(grid, self.s0, w0, counters)


def _coupling(foot: np.ndarray, i: int, up: np.ndarray, down: np.ndarray):
    """Switching term of mode i's transport: sum over j != i of rate * (foot_j - foot_i).

    ``foot`` is (R, M, ...), and ``up[:, i, j]`` and ``down[:, i, j]`` are
    the rates for nonnegative and for negative gaps, shaped to broadcast
    against ``foot[:, j]``.  The terms are added in mode order.
    """
    coupling = 0.0
    for j in range(foot.shape[1]):
        if j != i:
            diff = foot[:, j] - foot[:, i]
            coupling = coupling + np.where(diff >= 0.0, up[:, i, j], down[:, i, j]) * diff
    return coupling


def _w0_ordered(grid, table, s0, w0, rates) -> int:
    """Attainment probabilities filled in increasing-s0 (accepted) order, in one pass.

    What a node transports along does not depend on w0, so it is selected
    for all nodes at once: per mode the first row with the mode's least
    ``const + s0[foot]``, and the modes within ``ARGMIN_RTOL`` of the node's
    best.  The transport then runs node by node in increasing s0 (stable),
    attaining modes in mode order, on plain floats from ``tolist``, each
    rate choice (axis 0 of ``w0``) on its own rows: ``_coupling``'s terms in
    mode order, ``>=`` picking the rate for nonnegative gaps, and the clip
    to [0, 1] as ``np.clip`` does it.  ``w0`` is written back once.
    """
    m, n = w0.shape[1], grid.n_nodes
    ent = table.materialize()
    vals = ent.const + s0[ent.foot_a]  # const is inf where there is no foot (foot_a -1)
    pick = np.empty((m, n), dtype=np.intp)
    for i in range(m):
        rows = table.mode_rows(i)
        pick[i] = rows.start + np.argmin(vals[rows], axis=0)
    mode_best = np.take_along_axis(vals, pick, axis=0)
    best = mode_best.min(axis=0)
    attains = mode_best <= best + ARGMIN_RTOL * np.maximum(1.0, np.abs(best))
    interior = np.flatnonzero(~grid.exit_mask & np.isfinite(s0) & np.isfinite(best))
    order = interior[np.argsort(s0[interior], kind="stable")]
    at, modes = np.nonzero(attains[:, order].T)
    nodes = order[at]
    rows = pick[modes, nodes]
    # per mode i, each choice's row of mode i and the (row j, up, down) of every other mode j
    w = w0.tolist()
    terms = [[(wr[i], [(wr[j], up[i][j], down[i][j]) for j in range(m) if j != i])
              for wr, up, down in zip(w, rates[0].tolist(), rates[1].tolist())]
             for i in range(m)]
    for k, i, a, h in zip(nodes.tolist(), modes.tolist(), ent.foot_a[rows, nodes].tolist(),
                          ent.h_at_foot[rows, nodes].tolist()):
        for wi, others in terms[i]:
            fi = wi[a]
            coupling = 0.0
            for wj, up, down in others:
                diff = wj[a] - fi
                coupling = coupling + (up if diff >= 0.0 else down) * diff
            step = fi + h * coupling
            wi[k] = 0.0 if step < 0.0 else 1.0 if step > 1.0 else step
    w0[...] = w
    return 1


def _w0_fixed_point(grid, table, s0, w0, rates, max_iter=100000) -> int:
    """Vectorized transport of the attainment probability to its fixed point.

    Each node takes, in every mode whose best candidate attains s0, the
    transport along that candidate from its feet; other live nodes keep 0.
    A mode's best candidate is the first least of its rows, from
    ``CandidateTable.least`` over all nodes, block by block.
    These are Jacobi passes over the nodes near the last changes only, as
    in ``_frontier_sweep``.  A foot can have a larger s0 than its node (the
    diagonal foot), so the order is not that of s0; while the dependencies
    form no cycle the iteration is exact after the longest chain.

    Every rate choice (axis 0 of ``w0``) runs its own iteration; the dirty
    set is the union of theirs, which changes nothing for a choice whose own
    feet did not move.  A choice whose changes on a pass are all at most
    1e-15 has converged and is never written again, as if it ran alone.
    Returns the pass count of the slowest choice.
    """
    m = w0.shape[1]
    n = grid.n_nodes
    live = ~grid.exit_mask & np.isfinite(s0)
    cols = np.arange(n)
    picked = []
    for i in range(m):
        rows = table.mode_rows(i)
        best_i, pick = table.least(s0, cols, rows)
        ent = table.entries(rows.start + pick, cols)
        picked.append((best_i, ent.foot_a, ent.foot_b, ent.frac, ent.h_at_foot))
    best_all = np.min([best_i for best_i, *_ in picked], axis=0)
    per_mode = []
    for best_i, fa, fb, frac, h in picked:
        member = live & (best_i <= best_all + ARGMIN_RTOL * np.maximum(1.0, np.abs(best_all)))
        per_mode.append((member, np.maximum(fa, 0), np.maximum(fb, 0), frac, h))
    dirty = np.flatnonzero(np.any([member for member, *_ in per_mode], axis=0))
    up, down = (r[..., None] for r in rates)  # each rate against a row of nodes
    active = np.ones(w0.shape[0], dtype=bool)
    for passes in range(1, max_iter + 1):
        old = w0[:, :, dirty]
        new = old.copy()
        for i, (member, fa, fb, frac, h) in enumerate(per_mode):
            sel = member[dirty]
            k = dirty[sel]
            foot = (1.0 - frac[k]) * w0[:, :, fa[k]] + frac[k] * w0[:, :, fb[k]]
            new[:, i, sel] = np.clip(foot[:, i] + h[k] * _coupling(foot, i, up, down), 0.0, 1.0)
        change = np.abs(new - old)
        active &= np.any(change > 1e-15, axis=(1, 2))
        if not active.any():
            return passes
        w0[:, :, dirty] = np.where(active[:, None, None], new, old)
        moved = np.any(change[active] > 0.0, axis=(0, 1))
        dirty = np.flatnonzero(_near(grid, dirty[moved]))
    raise ConvergenceError("attainment-probability sweeps did not converge")
