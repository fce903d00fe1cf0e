"""CDF bounds under interval-uncertain, time-varying switching rates.

Rates are allowed to change over time within entrywise intervals
[lower_ij, upper_ij]; nature plays against (or for) the process by picking
the rate matrix pointwise.  Because each semi-Lagrangian update is affine
in the rates, the pointwise optimizer is bang-bang and known in closed
form, so the bound sweep costs the same as a fixed-rate solve: the modes'
steps are one shared-column ``StepStack``, whose ``gather`` gives every
mode's per-source foot values at once, and the bang-bang rate choice
(``RateBounds.extreme_rates``, which the minimal-cost solve's probability
transport uses too) mixes them.

Fixed-rate samples (``fixed_rate_sweep``) come from one rate-stacked run
of ``solve_cdf``'s sweep: the modes' steps are built once, and every level
update carries all rate matrices together.  The minimal attainable cost
does not depend on the rates either, so the restricted sweeps and
``solve_min_cost_bounds`` compute it once and fill the attainment
probabilities of every rate choice in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cdf_solver import (MinimalCost, SemiLagrangianStep, StepStack, _solve_cdfs, _sweep,
                         causal_tau, check_causality)
from .errors import ConfigError, NumericsError
from .model import CdfField, Grid, MinCostField, ProblemSpec, RateBounds, RateMatrix


@dataclass(frozen=True)
class BoundPair:
    """Pointwise lower and upper CDF envelopes for rates roaming the bounds."""

    lower: CdfField
    upper: CdfField
    rate_bounds: RateBounds


@dataclass(frozen=True)
class MinCostBounds:
    """Minimal-cost field with attainment-probability envelopes."""

    s0: np.ndarray
    w0_upper: np.ndarray
    w0_lower: np.ndarray
    grid: Grid

    def upper_field(self) -> MinCostField:
        return MinCostField(self.grid, self.s0, self.w0_upper)

    def lower_field(self) -> MinCostField:
        return MinCostField(self.grid, self.s0, self.w0_lower)


def _bound_update(stack: StepStack, step_len: np.ndarray, bounds: RateBounds, sense: str):
    """Level update of one bound field: per-source foot values, then the bang-bang mix.

    Row ``i * N + k`` of the gather holds mode i's foot values of every
    source mode; escaping rows are empty, so their mix is 0.
    """
    m, n_nodes = bounds.n_modes, stack.n_nodes
    zero = np.zeros((n_nodes, m))

    def update(level, n: int) -> np.ndarray:
        src = stack.gather(n, lambda lo, p: level(lo + p).T if lo >= 0 else zero)
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
        return out

    return update


def solve_bounds(
    spec: ProblemSpec,
    grid: Grid,
    tau: float | None = None,
    restrict: MinCostBounds | None = None,
) -> BoundPair:
    """Upper and lower CDF envelopes by adversarial-rate sweeps.

    The per-node optimizer uses only previous-level values, consistent with
    the causal sweep, so no within-level iteration is needed.  The implied
    one-step probabilities must stay valid: tau times the largest total
    upper rate may not exceed one.
    """
    rb = spec.require_rate_bounds()
    node_costs = np.array([spec.modes[i].cost.at(grid, grid.points) for i in range(spec.n_modes)])
    if tau is None:
        tau = causal_tau(spec, grid, node_costs)
    check_causality(tau, float(node_costs.min()), grid.ds)
    max_total = float(rb.upper.sum(axis=1).max())
    if tau * max_total > 1.0 + 1e-12:
        raise NumericsError(
            f"tau * max total upper rate = {tau * max_total:.6g} exceeds 1; "
            "the adversarial update would leave [0, 1]"
        )
    steps = [
        SemiLagrangianStep(spec, grid, tau, i, costs=node_costs[i])
        for i in range(spec.n_modes)
    ]
    stack = StepStack(steps)
    step_len = np.full(stack.n_nodes * len(steps), tau)
    step_len[stack.cap_rows] = np.concatenate([st.cap_theta_tau for st in steps])
    fields = {}
    for sense, name in (("max", "upper"), ("min", "lower")):
        mc = None
        if restrict is not None:
            mc = restrict.upper_field() if sense == "max" else restrict.lower_field()
        w, clamp = _sweep(spec, grid, mc, _bound_update(stack, step_len, rb, sense),
                          f"{name} bound sweep")
        fields[name] = CdfField(grid, w, spec=spec, tau=tau, variant=f"rate-bounds-{name}",
                                clamp=clamp)
    return BoundPair(lower=fields["lower"], upper=fields["upper"], rate_bounds=rb)


def solve_min_cost_bounds(spec: ProblemSpec, grid: Grid) -> MinCostBounds:
    """Minimal attainable cost with envelope attainment probabilities.

    The minimal cost itself is rate-independent; only the probability
    transport term is extremized within the bounds.
    """
    spec.require_rate_bounds()
    both = MinimalCost(spec, grid).stacked([(spec, "upper"), (spec, "lower")])
    return MinCostBounds(s0=both.s0, w0_upper=both.w0[0], w0_lower=both.w0[1], grid=grid)


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
    restrict: bool = False,
) -> list[CdfField]:
    """Fixed-rate CDFs for a list of candidate rate matrices.

    Every matrix must respect the problem's rate bounds when bounds are
    given.  These solves sample the fixed-unknown-rates uncertainty model;
    they are labeled as samples, not bounds, in exported data.  One sweep
    serves all matrices, and with ``restrict`` one s0 with the stacked w0 of
    every matrix seeds it; each field equals its matrix's own
    ``solve_cdf`` bit for bit.  The fields share the restricted sweep's
    clamp.
    """
    rb = spec.rates if isinstance(spec.rates, RateBounds) else None
    for k, rm in enumerate(rate_grid):
        if rm.n_modes != spec.n_modes:
            raise ConfigError(f"rate matrix {k} has the wrong mode count")
        if rb is not None and not rb.contains(rm):
            raise ConfigError(f"rate matrix {k} lies outside the problem's rate bounds")
    if not rate_grid:
        return []
    mc = None
    if restrict:
        mc = MinimalCost(spec, grid).stacked([(replace(spec, rates=rm), None) for rm in rate_grid])
    return _solve_cdfs(spec, grid, rate_grid, tau=tau, restrict=mc)
