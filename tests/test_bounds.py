import dataclasses
import math

import numpy as np
import pytest

from pdmp_cdf import build_grid, catalog
from pdmp_cdf.bounds import (
    default_rate_grid,
    fixed_rate_sweep,
    solve_bounds,
    solve_min_cost_bounds,
)
from pdmp_cdf import bounds, cdf_solver
from pdmp_cdf.cdf_solver import MinimalCost, SemiLagrangianStep, solve_cdf, solve_min_cost
from pdmp_cdf.errors import ConfigError
from pdmp_cdf.model import (
    ExitSpec,
    ModeSpec,
    ProblemSpec,
    RateBounds,
    RateMatrix,
    ScalarField,
    VectorField,
)
from reference_solvers import per_side_bounds, stacked_seed


@pytest.fixture(scope="module")
def ex4():
    spec = catalog.example4()
    grid = build_grid(spec, 5e-3, 5e-3, 1.0)
    return spec, grid


RB = RateBounds.uniform(2, 1.0, 4.0)


class TestPointwiseRates:
    def test_minimizer_drains_negative_gaps(self):
        rates = RB.extreme_rates("min", np.array([0.0, -0.3]), 0)
        assert rates[1] == 4.0

    def test_tie_at_zero_takes_upper(self):
        rates = RB.extreme_rates("min", np.array([0.0, 0.0]), 0)
        assert rates[1] == 4.0
        rates = RB.extreme_rates("max", np.array([0.0, 0.0]), 0)
        assert rates[1] == 4.0

    def test_maximizer_feeds_positive_gaps(self):
        rates = RB.extreme_rates("max", np.array([0.0, 0.3]), 0)
        assert rates[1] == 4.0
        rates = RB.extreme_rates("max", np.array([0.0, -0.3]), 0)
        assert rates[1] == 1.0

    def test_one_rule_for_every_shape(self):
        rb = RateBounds(np.array([[0, 1, 2], [3, 0, 1], [1, 1, 0]]),
                        np.array([[0, 5, 6], [7, 0, 8], [4, 9, 0]]))
        gaps = np.array([-0.5, 0.0, 0.5])
        for sense in ("min", "max"):
            row = rb.extreme_rates(sense, gaps, 1)
            assert [rb.extreme_rates(sense, g, 1, j) for j, g in enumerate(gaps)] == list(row)
            per_node = rb.extreme_rates(sense, gaps, 2, 0)
            assert np.array_equal(per_node, [rb.extreme_rates(sense, g, 2, 0) for g in gaps])
        with pytest.raises(ConfigError):
            rb.extreme_rates("sideways", gaps)


class TestBoundPair:
    def test_ordering_and_cdf_shape(self, ex4):
        spec, grid = ex4
        pair = solve_bounds(spec, grid)
        assert np.all(pair.lower.values <= pair.upper.values + 1e-12)
        for field in (pair.lower, pair.upper):
            assert field.values.min() >= 0.0
            assert field.values.max() <= 1.0 + 1e-12
            assert np.all(np.diff(field.values, axis=1) >= -1e-12)

    def test_exit_node_saturates(self, ex4):
        spec, grid = ex4
        pair = solve_bounds(spec, grid)
        assert np.all(pair.upper.values[:, :, grid.exit_mask] == 1.0)

    def test_degenerate_interval_collapses(self, ex4):
        spec, grid = ex4
        degenerate = dataclasses.replace(spec, rates=RateBounds.uniform(2, 2.0, 2.0))
        pair = solve_bounds(degenerate, grid)
        plain = solve_cdf(catalog.example1(), grid)
        assert np.abs(pair.lower.values - plain.values).max() <= 1e-12
        assert np.abs(pair.upper.values - plain.values).max() <= 1e-12

    def test_brackets_every_fixed_rate_solution(self, ex4):
        spec, grid = ex4
        pair = solve_bounds(spec, grid)
        for rm in default_rate_grid((1.0, 2.5, 4.0)):
            field = solve_cdf(dataclasses.replace(spec, rates=rm), grid)
            assert (pair.lower.values - field.values).max() <= 1e-10
            assert (field.values - pair.upper.values).max() <= 1e-10

    def test_widening_interval_widens_bracket(self, ex4):
        spec, grid = ex4
        narrow = solve_bounds(dataclasses.replace(spec, rates=RateBounds.uniform(2, 1.5, 3.0)), grid)
        wide = solve_bounds(dataclasses.replace(spec, rates=RateBounds.uniform(2, 1.0, 4.0)), grid)
        assert (narrow.lower.values - wide.lower.values).min() >= -1e-12
        assert (wide.upper.values - narrow.upper.values).min() >= -1e-12


class TestMinCostBounds:
    def test_degenerate_interval_matches_plain(self, ex4):
        spec, grid = ex4
        from pdmp_cdf.cdf_solver import solve_min_cost
        degenerate = dataclasses.replace(spec, rates=RateBounds.uniform(2, 2.0, 2.0))
        mcb = solve_min_cost_bounds(degenerate, grid)
        plain = solve_min_cost(catalog.example1(), grid)
        assert np.abs(mcb.s0 - plain.s0).max() <= 1e-12
        assert np.abs(mcb.w0[0] - plain.w0).max() <= 1e-12
        assert np.abs(mcb.w0[1] - plain.w0).max() <= 1e-12

    def test_one_s0_serves_both_senses(self, ex4):
        spec, grid = ex4
        mcb = solve_min_cost_bounds(spec, grid)
        for sense, w0 in (("upper", mcb.w0[0]), ("lower", mcb.w0[1])):
            own = solve_min_cost(spec, grid, rate_sense=sense)
            assert np.array_equal(mcb.s0, own.s0)
            assert np.array_equal(w0, own.w0)

    def test_characteristic_closed_forms(self, ex4):
        # best case decays at the slowest rate, worst case at the fastest
        spec, grid = ex4
        mcb = solve_min_cost_bounds(spec, grid)
        k = round(0.75 / grid.dx[0])
        assert abs(mcb.w0[0][0, k] - math.exp(-0.25)) < 0.01
        assert abs(mcb.w0[1][0, k] - math.exp(-1.0)) < 0.01
        assert np.all(mcb.w0[1] <= mcb.w0[0] + 1e-12)


class TestFixedRateSweep:
    def test_single_matrix_equals_plain_solve(self, ex4):
        spec, grid = ex4
        rm = RateMatrix.uniform(2, 2.0)
        field = fixed_rate_sweep(spec, grid, [rm])[0]
        plain = solve_cdf(dataclasses.replace(spec, rates=rm), grid)
        assert np.array_equal(field.values, plain.values)

    def test_default_grid_is_bracketed(self, ex4):
        spec, grid = ex4
        pair = solve_bounds(spec, grid)
        fields = fixed_rate_sweep(spec, grid, default_rate_grid())
        assert len(fields) == 16
        for field in fields:
            assert (pair.lower.values - field.values).max() <= 1e-10
            assert (field.values - pair.upper.values).max() <= 1e-10

    def test_swapped_rates_mirror(self, ex4):
        spec, grid = ex4
        fa = solve_cdf(dataclasses.replace(spec, rates=RateMatrix([[0, 1], [3, 0]])), grid)
        fb = solve_cdf(dataclasses.replace(spec, rates=RateMatrix([[0, 3], [1, 0]])), grid)
        assert np.abs(fa.values[0] - fb.values[1][:, ::-1]).max() <= 1e-12
        assert np.abs(fa.values[1] - fb.values[0][:, ::-1]).max() <= 1e-12

    def test_out_of_bounds_matrix_rejected(self, ex4):
        spec, grid = ex4
        with pytest.raises(ConfigError):
            fixed_rate_sweep(spec, grid, [RateMatrix.uniform(2, 5.0)])

    def test_each_matrix_matches_its_own_solve(self, ex4):
        spec, grid = ex4
        rms = default_rate_grid((1.0, 4.0))
        for rm, field in zip(rms, fixed_rate_sweep(spec, grid, rms)):
            fixed = dataclasses.replace(spec, rates=rm)
            assert np.array_equal(field.values, solve_cdf(fixed, grid).values)

    def test_each_matrix_matches_its_own_solve_at_a_given_tau(self, ex4):
        spec, grid = ex4
        rms = default_rate_grid((1.0, 4.0))
        tau = 2.0 * grid.ds
        fields = fixed_rate_sweep(spec, grid, rms, tau=tau, restrict=stacked_seed(spec, grid, rms))
        for rm, field in zip(rms, fields):
            fixed = dataclasses.replace(spec, rates=rm)
            own = solve_min_cost(fixed, grid)
            plain = solve_cdf(fixed, grid, tau=tau, restrict=own)
            assert field.tau == tau
            assert np.array_equal(field.values, plain.values)
            assert not np.array_equal(field.values, solve_cdf(fixed, grid, restrict=own).values)

    def test_restricted_matrix_matches_its_own_restricted_solve(self, ex4):
        # the sweep computes s0 once; each matrix's w0 and CDF must equal a
        # solve that computes its own min-cost field from scratch
        spec, grid = ex4
        rms = default_rate_grid((1.0, 4.0))
        fields = fixed_rate_sweep(spec, grid, rms, restrict=stacked_seed(spec, grid, rms))
        for rm, field in zip(rms, fields):
            fixed = dataclasses.replace(spec, rates=rm)
            own = solve_min_cost(fixed, grid)
            assert np.array_equal(field.values, solve_cdf(fixed, grid, restrict=own).values)

    def test_level_shifts_match_their_own_restricted_solves(self, ex4):
        # tau = 1.6 ds reads two levels per step, with fractional weights
        spec, grid = ex4
        rms = default_rate_grid((1.0, 2.5))
        tau = 1.6 * grid.ds
        fields = fixed_rate_sweep(spec, grid, rms, tau=tau, restrict=stacked_seed(spec, grid, rms))
        for rm, field in zip(rms, fields):
            fixed = dataclasses.replace(spec, rates=rm)
            own = solve_min_cost(fixed, grid)
            assert np.array_equal(field.values,
                                  solve_cdf(fixed, grid, tau=tau, restrict=own).values)

    def test_steps_are_built_once_per_mode(self, ex4, monkeypatch):
        spec, grid = ex4
        built = []
        init = cdf_solver.SemiLagrangianStep.__init__

        def counting(self, *args, **kwargs):
            built.append(args[3] if len(args) > 3 else kwargs["mode"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(cdf_solver.SemiLagrangianStep, "__init__", counting)
        fields = fixed_rate_sweep(spec, grid, default_rate_grid(),
                                  restrict=stacked_seed(spec, grid, default_rate_grid()))
        assert len(fields) == 16
        assert sorted(built) == list(range(spec.n_modes))

    def test_fields_own_their_levels_and_share_the_clamp(self, ex4):
        # one array per field, as separate solves allocate them, so a sweep
        # can reuse memory freed by earlier work; one clamp counts every matrix
        spec, grid = ex4
        rms = default_rate_grid((1.0, 4.0))
        fields = fixed_rate_sweep(spec, grid, rms, restrict=stacked_seed(spec, grid, rms))
        for field in fields:
            assert field.values.shape == (spec.n_modes, grid.n_levels, grid.n_nodes)
            assert field.values.flags.owndata and field.values.flags.c_contiguous
            assert field.clamp is fields[0].clamp
        assert fields[0].clamp.count > 0

    def test_2d_matrices_match_their_own_restricted_solves(self):
        # the attainment probabilities settle after 11, 9, 6 and 2 passes; the
        # fast decays stop on changes of at most 1e-15 that the slow ones would
        # keep writing, so each matrix must stop on its own pass
        spec = catalog.example3()
        grid = build_grid(spec, 5e-2, 5e-2, 1.0)
        rms = [RateMatrix.uniform(4, 1.0), RateMatrix.uniform(4, 6.6),
               RateMatrix.uniform(4, 6.66), RateMatrix(20.0 * np.roll(np.eye(4), 1, axis=1))]
        stacked = MinimalCost(spec, grid).stacked(
            [(dataclasses.replace(spec, rates=rm), None) for rm in rms])
        fields = fixed_rate_sweep(spec, grid, rms, restrict=stacked)
        for r, (rm, field) in enumerate(zip(rms, fields)):
            fixed = dataclasses.replace(spec, rates=rm)
            own = solve_min_cost(fixed, grid)
            assert np.array_equal(stacked.w0[r], own.w0)
            assert np.array_equal(field.values, solve_cdf(fixed, grid, restrict=own).values)


class TestOneSweep:
    """Both envelopes ride one sweep; it equals the per-side sweeps bit for bit."""

    # exits on x_max and y_max, escapes through the other two faces; running
    # costs 1, 2 and 1.5 read 1, 2 and 1.5 levels back at the default tau
    SPEC = ProblemSpec(
        dim=2, lo=np.zeros(2), hi=np.ones(2), exit_set=ExitSpec("faces", faces=("x_max", "y_max")),
        modes=tuple(ModeSpec(VectorField.constant(v), ScalarField.constant(c),
                             ScalarField.constant(q))
                    for v, c, q in (([1.5, 0.6], 1.0, 0.0), ([-1.0, 1.2], 2.0, 0.1),
                                    ([0.8, -1.6], 1.5, 0.2))),
        rates=RateBounds([[0, 0.5, 0.2], [0.3, 0, 0.6], [0.4, 0.1, 0]],
                         [[0, 1.5, 1.0], [1.2, 0, 2.0], [1.0, 0.8, 0]]))

    @pytest.fixture(scope="class")
    def grid(self):
        return build_grid(self.SPEC, 0.05, 0.04, 1.6)

    def test_the_grid_has_fractions_caps_and_escapes(self, grid):
        steps = [SemiLagrangianStep(self.SPEC, grid, grid.ds, i) for i in range(3)]
        assert any(np.any(st.frac > 0) for st in steps)
        assert any(st.cap_nodes.size for st in steps)
        assert any(st.esc_nodes.size for st in steps)

    @pytest.mark.parametrize("restrict", [False, True])
    @pytest.mark.parametrize("tau", [None, 0.08])
    def test_matches_the_per_side_reference(self, grid, monkeypatch, restrict, tau):
        calls = []
        sweep = bounds._sweep
        monkeypatch.setattr(bounds, "_sweep", lambda *a: calls.append(a) or sweep(*a))
        mcb = solve_min_cost_bounds(self.SPEC, grid) if restrict else None
        pair = solve_bounds(self.SPEC, grid, tau=tau, restrict=mcb)
        assert len(calls) == 1
        (upper, up_clamp), (lower, low_clamp) = per_side_bounds(self.SPEC, grid, tau, restrict)
        assert np.array_equal(pair.upper.values, upper)
        assert np.array_equal(pair.lower.values, lower)
        assert np.any(upper != lower)
        assert pair.upper.clamp is pair.lower.clamp
        if restrict:
            # one clamp counts both sides' raises
            assert pair.upper.clamp.count == up_clamp.count + low_clamp.count
            assert pair.upper.clamp.largest == max(up_clamp.largest, low_clamp.largest)
