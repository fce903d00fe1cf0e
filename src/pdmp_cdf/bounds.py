"""CDF bounds under interval-uncertain, time-varying switching rates.

Rates are allowed to change over time within entrywise intervals
[lower_ij, upper_ij]; nature plays against (or for) the process by picking
the rate matrix pointwise.  Because each semi-Lagrangian update is affine
in the rates, the pointwise optimizer is bang-bang and known in closed
form, so both envelopes come from one sweep that costs about one
fixed-rate solve: ``_sweep`` carries the upper and the lower envelope on a
leading field axis, the modes are the blocks of one step on shared
columns, whose ``StepStack.gather`` gives both fields' per-source foot
values in one product per level shift, and each side's bang-bang rate
choice (``RateBounds.extreme_rates``, which the minimal-cost solve's
probability transport uses too) mixes them.  The step comes from the
fixed-rate sweep's set-up (``cdf_solver._mode_steps``).

Fixed-rate samples (``fixed_rate_sweep``) come from one rate-stacked run
of ``solve_cdf``'s sweep: the modes' step is built once, and every level
update carries all rate matrices together.  The minimal attainable cost
does not depend on the rates either, so a restricted rate sweep takes one
``MinimalCost.stacked`` seed, and ``solve_min_cost_bounds`` computes it
once; each fills the attainment probabilities of every rate choice in one
pass.  Both sweeps store whole fields, or only the slices of a ``Keep``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdf_solver import MinimalCost, StepStack, _mode_steps, _solve_cdfs, _sweep, exit_costs
from .errors import ConfigError, NumericsError
from .model import CdfField, Grid, Keep, MinCostField, ProblemSpec, RateBounds, RateMatrix

_SIDES = (("max", "upper"), ("min", "lower"))  # the sweep's fields, upper first


@dataclass(frozen=True)
class BoundPair:
    """Pointwise lower and upper CDF envelopes for rates roaming the bounds."""

    lower: CdfField
    upper: CdfField


def _bound_update(stack: StepStack, step_len: np.ndarray, bounds: RateBounds):
    """Level update of both envelopes: per-source foot values, then each side's bang-bang mix.

    One product per level shift gathers every field's foot values of every
    source mode (2M right-hand columns, field by field).  Row ``i * N + k``
    of the gather holds mode i's foot values; escaping rows are empty, so
    their mix is 0.  Both sides are mixed together, source modes in mode
    order: the "min" side's rates are ``extreme_rates``' "max" rule on the
    negated gap (upper where the gap is nonpositive), so one call serves
    both sides of each mode pair.
    """
    m, n_nodes = bounds.n_modes, stack.n_nodes
    zero = np.zeros((n_nodes, 2 * m))
    orient = np.array([[1.0] if sense == "max" else [-1.0] for sense, _ in _SIDES])

    def update(level, n: int) -> np.ndarray:
        src = stack.gather(n, lambda lo, p: level(lo + p).reshape(2 * m, n_nodes).T
                           if lo >= 0 else zero).reshape(-1, 2, m)
        src[stack.cap_rows] = stack.cap_indicator(n)[:, None]
        # (mode of the row, field, source mode, node)
        by_source = src.reshape(m, n_nodes, 2, m).transpose(0, 2, 3, 1)
        out = np.empty((2, m, n_nodes))
        for i in range(m):
            rows = slice(i * n_nodes, (i + 1) * n_nodes)
            base = by_source[i, :, i]
            acc = base.copy()
            for j in range(m):
                if j == i:
                    continue
                diff = by_source[i, :, j] - base
                acc = acc + step_len[rows] * bounds.extreme_rates("max", orient * diff, i, j) * diff
            out[:, i] = acc
        return out

    return update


def solve_bounds(
    spec: ProblemSpec,
    grid: Grid,
    tau: float | None = None,
    restrict: MinCostField | None = None,
    keep: Keep | None = None,
) -> BoundPair:
    """Upper and lower CDF envelopes by one adversarial-rate sweep.

    The sweep carries both envelopes as two fields, upper first; a
    ``restrict`` from ``solve_min_cost_bounds`` seeds each with its own w0,
    and the two share one monotone clamp.  The per-node optimizer uses only
    previous-level values, consistent with the causal sweep, so no
    within-level iteration is needed.  The implied one-step probabilities
    must stay valid: tau times the largest total upper rate may not exceed
    one.  The sweep holds the levels its steps read back; each envelope is
    whole (M, L, N), or with ``keep`` only that keep's sheets and node
    columns.
    """
    rb = spec.require_rate_bounds()
    step, tau = _mode_steps(spec, grid, tau)
    max_total = float(rb.upper.sum(axis=1).max())
    if tau * max_total > 1.0 + 1e-12:
        raise NumericsError(
            f"tau * max total upper rate = {tau * max_total:.6g} exceeds 1; "
            "the adversarial update would leave [0, 1]"
        )
    stack = StepStack(step)
    del step
    step_len = np.full(stack.n_nodes * spec.n_modes, tau)
    step_len[stack.cap_rows] = stack.cap_theta_tau
    fields, clamp = _sweep(grid.exit_mask, exit_costs(spec, grid), grid.ds, grid.n_levels, restrict,
                           _bound_update(stack, step_len, rb), "bound sweep", 2, stack.depth, keep)
    upper, lower = (CdfField(grid, values, spec=spec, tau=tau, clamp=clamp, keep=keep,
                             columns=columns) for values, columns in fields)
    return BoundPair(lower=lower, upper=upper)


def solve_min_cost_bounds(spec: ProblemSpec, grid: Grid) -> MinCostField:
    """Minimal attainable cost with both envelopes' attainment probabilities.

    w0 is (2, M, N), upper first: the seeds of ``solve_bounds``' two fields.
    The minimal cost itself is rate-independent; only the probability
    transport term is extremized within the bounds.
    """
    spec.require_rate_bounds()
    return MinimalCost(spec, grid).stacked([(spec, name) for _, name in _SIDES])


def default_rate_grid(levels=(1.0, 2.0, 3.0, 4.0)) -> list[RateMatrix]:
    """Two-mode sweep grid over all rate pairs in ``levels`` x ``levels``."""
    out = []
    for l12 in levels:
        for l21 in levels:
            out.append(RateMatrix([[0.0, l12], [l21, 0.0]]))
    return out


def fixed_rate_sweep(
    spec: ProblemSpec,
    grid: Grid,
    rate_grid: list[RateMatrix],
    tau: float | None = None,
    restrict: MinCostField | None = None,
    keep: Keep | None = None,
) -> list[CdfField]:
    """Fixed-rate CDFs for a list of candidate rate matrices.

    Every matrix must respect the problem's rate bounds when bounds are
    given.  These solves sample the fixed-unknown-rates uncertainty model;
    they are labeled as samples, not bounds, in exported data.  One sweep
    serves all matrices.  ``restrict`` seeds it with one s0 and a w0 per
    matrix, stacked (R, M, N): ``MinimalCost(spec, grid).stacked`` over the
    matrices (one (M, N) w0 seeds every matrix alike).  Each field equals
    its matrix's own ``solve_cdf`` with that seed bit for bit, and the
    fields share the restricted sweep's clamp.  The sweep holds the levels
    its steps read back; each field is whole (M, L, N), or with ``keep``
    only that keep's sheets and node columns.
    """
    rb = spec.rates if isinstance(spec.rates, RateBounds) else None
    for k, rm in enumerate(rate_grid):
        if rm.n_modes != spec.n_modes:
            raise ConfigError(f"rate matrix {k} has the wrong mode count")
        if rb is not None and not rb.contains(rm):
            raise ConfigError(f"rate matrix {k} lies outside the problem's rate bounds")
    if not rate_grid:
        return []
    return _solve_cdfs(spec, grid, rate_grid, tau=tau, restrict=restrict, keep=keep)
