import ast
import functools
import logging
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmp_cdf
from pdmp_cdf import build_grid, catalog
from pdmp_cdf import cdf_solver
from pdmp_cdf import bounds, control
from pdmp_cdf.bounds import default_rate_grid, fixed_rate_sweep, solve_bounds, solve_min_cost_bounds
from pdmp_cdf.cdf_solver import (
    MinimalCost,
    causal_tau,
    solve_cdf,
    solve_min_cost,
)
from pdmp_cdf.errors import NumericsError
from pdmp_cdf.control import solve_hjb_expectation, solve_threshold
from pdmp_cdf.model import (
    ControlSet,
    ExitSpec,
    Keep,
    MinCostField,
    ModeSpec,
    ProblemSpec,
    RateBounds,
    RateMatrix,
    ScalarField,
    VectorField,
)
from pdmp_cdf.simulate import empirical_cdf, estimate_mean, run_batch
from reference_solvers import (
    _candidate_value,
    eulerian_step,
    label_setting_min_cost,
    level_sweep,
    plain_candidates,
    reference_sweep,
    reference_w0_ordered,
    solve_expected,
    stacked_seed,
)


@pytest.fixture(scope="module")
def ex1_coarse():
    spec = catalog.example1()
    grid = build_grid(spec, 5e-3, 5e-3, 1.0)
    mc = solve_min_cost(spec, grid)
    field = solve_cdf(spec, grid, restrict=mc)
    return spec, grid, mc, field


class TestSailboatAnalytics:
    def test_dead_zone_exact(self, ex1_coarse):
        spec, grid, mc, field = ex1_coarse
        x = grid.points[:, 0]
        n = round(0.25 / grid.ds)
        inside = (x > 0.251) & (x < 0.749)
        assert np.all(field.values[0, n, inside] == 0.0)
        assert np.all(field.values[1, n, inside] == 0.0)

    def test_jump_value_no_switch_probability(self, ex1_coarse):
        spec, grid, mc, field = ex1_coarse
        n = round(0.25 / grid.ds)
        k = round(0.75 / grid.dx[0])
        assert abs(field.values[0, n, k] - math.exp(-0.5)) < 0.02

    def test_no_jump_at_full_threshold(self, ex1_coarse):
        # interior jumps present at s = 0.25 are gone by s = 1 (boundary
        # nodes stay discontinuous: the outward mode leaves them instantly)
        spec, grid, mc, field = ex1_coarse
        interior = field.values[0, -1, 1:-1]
        assert np.abs(np.diff(interior)).max() < 4 * grid.dx[0]
        n_quarter = round(0.25 / grid.ds)
        quarter = field.values[0, n_quarter, 1:-1]
        assert np.abs(np.diff(quarter)).max() > 0.5  # the early jump really is there

    def test_mirror_symmetry(self, ex1_coarse):
        spec, grid, mc, field = ex1_coarse
        assert np.abs(field.values[0] - field.values[1][:, ::-1]).max() < 1e-12

    def test_monotone_and_bounded(self, ex1_coarse):
        spec, grid, mc, field = ex1_coarse
        assert field.values.min() >= 0.0
        assert field.values.max() <= 1.0 + 1e-12
        assert np.all(np.diff(field.values, axis=1) >= -1e-12)


def _min_cost_problem(name, n_angles, dx):
    """A built-in, or one of two 2D problems that the built-ins do not cover."""
    if name == "anisotropic":
        # [0,2]x[0,1]: the x_max face and an interior box exit; nothing moves
        # right, so the nodes left of the box cannot reach an exit
        modes = tuple(
            ModeSpec(VectorField.constant(v), ScalarField.constant(c), ScalarField.constant(q))
            for v, c, q in (([-0.4, 1.0], 1.0, 0.0), ([0.0, -1.0], 2.0, 0.1),
                            ([-1.0, -0.3], 1.5, 0.0)))
        spec = ProblemSpec(
            dim=2, lo=np.zeros(2), hi=np.array([2.0, 1.0]),
            exit_set=ExitSpec("boxes", boxes=(((2.0, 2.0), (0.0, 1.0)),
                                              ((0.5, 0.75), (0.4, 0.6)))),
            modes=modes, rates=RateMatrix([[0.0, 1.0, 0.5], [2.0, 0.0, 1.0], [0.5, 0.5, 0.0]]))
        return spec, build_grid(spec, dx, 0.05, 1.0)
    if name == "tabulated":
        # example3 with its first mode's velocity tabulated and varying in space
        base = catalog.example3()
        grid = build_grid(base, dx, dx, 1.0)
        p = grid.points
        vel = np.column_stack([0.3 + p[:, 1], -0.5 + 0.8 * p[:, 0] * p[:, 1]])
        first = base.modes[0]
        modes = (ModeSpec(VectorField("tabulated", values=vel), first.cost, first.exit_cost),
                 *base.modes[1:])
        return replace(base, modes=modes), grid
    spec = catalog.builtin(name, n_angles=n_angles)
    return spec, build_grid(spec, dx, dx, 0.5)


@st.composite
def _table_problems(draw):
    """A small random grid problem.

    Velocities, control offsets and controls come from one pool: zero,
    axis-aligned and diagonal-tie vectors (|v_x| / dx = |v_y| / dy exactly,
    a power of two times the spacings) besides arbitrary ones.  Spacings
    may differ per axis; velocities and running costs may be tabulated.
    """
    dim = draw(st.sampled_from([1, 2]))
    dx = [draw(st.sampled_from([0.1, 0.125, 0.2, 0.25, 0.5])) for _ in range(dim)]
    counts = [draw(st.integers(2, 6)) for _ in range(dim)]
    n = math.prod(counts)

    def vector():
        kind = draw(st.sampled_from(["zero", "axis", "tie", "any"]))
        if kind == "zero":
            return [0.0] * dim
        if kind == "axis":
            v = [0.0] * dim
            v[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([-2.0, -1.0, 0.5, 3.0]))
            return v
        if kind == "tie":
            scale = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
            return [draw(st.sampled_from([-scale, scale])) * d for d in dx]
        return [draw(st.floats(-3.0, 3.0, allow_subnormal=False)) for _ in range(dim)]

    def cost():
        if draw(st.booleans()):
            return ScalarField.constant(draw(st.floats(0.5, 3.0)))
        return ScalarField("tabulated", values=draw(st.lists(st.floats(0.25, 3.0),
                                                             min_size=n, max_size=n)))

    kinds = draw(st.lists(st.sampled_from(["constant", "control_offset", "tabulated"]),
                          min_size=1, max_size=3))
    modes = []
    for kind in kinds:
        if kind == "tabulated":
            dynamics = VectorField("tabulated", values=np.array([vector() for _ in range(n)]))
        else:
            dynamics = VectorField(kind, vector=np.array(vector()))
        modes.append(ModeSpec(dynamics, cost(), ScalarField.constant(0.0)))
    controls = ControlSet.none()
    if "control_offset" in kinds or draw(st.booleans()):
        controls = ControlSet.from_list([vector() for _ in range(draw(st.integers(1, 4)))])
    spec = ProblemSpec(dim=dim, lo=np.zeros(dim), hi=np.array(dx) * (np.array(counts) - 1),
                       exit_set=ExitSpec("boundary"), modes=tuple(modes),
                       rates=RateMatrix.uniform(len(modes), 1.0), controls=controls)
    return spec, build_grid(spec, dx, 0.5, 1.0)


STALLED_1D = [[1e-320], [-1.0]]


def _stalled(velocities):
    """One mode per velocity on the unit box; a speed of 1e-320 never crosses a cell."""
    dim = len(velocities[0])
    modes = tuple(ModeSpec(VectorField.constant(v), ScalarField.constant(1.0),
                           ScalarField.constant(0.0)) for v in velocities)
    spec = ProblemSpec(dim=dim, lo=np.zeros(dim), hi=np.ones(dim),
                       exit_set=ExitSpec("boundary"), modes=modes,
                       rates=RateMatrix.uniform(2, 1.0), name="stalled")
    return spec, build_grid(spec, 0.1, 0.1, 1.0)


class TestMinCost:
    @pytest.mark.parametrize("velocities", [STALLED_1D, [[1e-320, 0.0], [-1.0, 1e-320]]])
    def test_a_speed_too_small_to_cross_a_cell_warns_nothing(self, velocities):
        # dx / speed overflows to inf: that mode's step never crosses a cell, as its duration says
        spec, grid = _stalled(velocities)
        dim = spec.dim
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc = solve_min_cost(spec, grid)
            plain_candidates(spec, grid)
        if dim == 1:  # the minimal cost is the fast mode's run to x = 0
            assert np.allclose(mc.s0, np.where(grid.exit_mask, 0.0, grid.points[:, 0]))

    def test_distance_to_nearest_exit(self, ex1_coarse):
        spec, grid, mc, _ = ex1_coarse
        x = grid.points[:, 0]
        assert np.abs(mc.s0 - np.minimum(x, 1 - x)).max() < 1e-12

    def test_attainment_probability_closed_form(self, ex1_coarse):
        # along the rightward characteristic the probability decays at the
        # total switching rate: exp(-2 (1 - x)) for x past the midpoint
        spec, grid, mc, _ = ex1_coarse
        x = grid.points[:, 0]
        k = round(0.75 / grid.dx[0])
        assert abs(mc.w0[0, k] - math.exp(-0.5)) < 2 * 2 * grid.dx[0]

    def test_off_argmin_mode_is_zero(self, ex1_coarse):
        spec, grid, mc, _ = ex1_coarse
        x = grid.points[:, 0]
        right = (x > 0.5 + 1e-9) & (x < 1.0 - 1e-9)
        assert np.all(mc.w0[1, right] == 0.0)

    def test_two_dimensional_taxi_distance(self):
        spec = catalog.example3()
        grid = build_grid(spec, 0.05, 0.05, 1.0)
        mc = solve_min_cost(spec, grid)
        p = grid.points
        expected = np.minimum.reduce([p[:, 0], 1 - p[:, 0], p[:, 1], 1 - p[:, 1]])
        assert np.abs(mc.s0 - expected).max() < 1e-12

    @pytest.mark.parametrize("name, n_angles, dx", [
        ("example3", None, 0.025), ("example6", 16, 0.05),
        pytest.param("anisotropic", None, (0.05, 0.1), id="anisotropic"),
        pytest.param("tabulated", None, 0.05, id="tabulated"),
        ("example6", 200, 0.1)])
    def test_two_dimensional_sweeps_match_label_setting(self, name, n_angles, dx):
        spec, grid = _min_cost_problem(name, n_angles, dx)
        mc = solve_min_cost(spec, grid)
        s0, w0 = label_setting_min_cost(spec, grid)
        assert np.array_equal(mc.s0, s0)
        assert np.array_equal(mc.w0, w0)
        if name == "anisotropic":  # the case is meant to leave some nodes unreachable
            assert 0 < np.isinf(s0).sum() < np.isfinite(s0[~grid.exit_mask]).sum()

    @pytest.mark.parametrize("name", ["example1", "example2", "example5", "stalled"])
    def test_one_dimensional_label_setting_matches_reference(self, name):
        # example5 carries both of its actions as candidate rows
        if name == "stalled":
            spec, grid = _stalled(STALLED_1D)
        else:
            spec, grid = _min_cost_problem(name, None, 1e-2)
        mc = solve_min_cost(spec, grid)
        s0, w0 = label_setting_min_cost(spec, grid)
        assert np.array_equal(mc.s0, s0)
        assert np.array_equal(mc.w0, w0)
        assert mc.counters["s0_passes"] == 1
        assert mc.counters["node_updates"] >= np.isfinite(s0[~grid.exit_mask]).sum()

    @pytest.mark.parametrize("name, n_angles, dx", [
        # the ids keep the block sizes the table was once filled in
        pytest.param("example1", None, 0.05, id="example1-None-0.05-131072"),
        pytest.param("example3", None, 0.05, id="example3-None-0.05-131072"),
        pytest.param("anisotropic", None, (0.05, 0.1), id="anisotropic-None-dx2-131072"),
        pytest.param("tabulated", None, 0.05, id="tabulated-None-0.05-131072"),
        pytest.param("example6", 16, 0.1, id="example6-16-0.1-1000")])
    def test_candidate_table_matches_plain_builder(self, name, n_angles, dx):
        spec, grid = _min_cost_problem(name, n_angles, dx)
        table = cdf_solver._candidate_table(spec, grid)
        entries = table.materialize()
        plain = plain_candidates(spec, grid)
        assert table.mode.tolist() == [c["mode"] for c in plain]
        for key in ("const", "foot_a", "foot_b", "frac", "h_at_foot"):
            assert np.array_equal(getattr(entries, key), np.array([c[key] for c in plain])), key
        if name == "tabulated":  # row 0: cost 1, so const is the step time at the node
            inside = entries.foot_a[0] >= 0
            assert np.any(entries.h_at_foot[0, inside] != entries.const[0, inside])
        if name in ("example3", "example6"):  # velocities constant in space: one value per row
            for key in ("const", "frac", "foot", "diag", "h_at_foot"):
                assert getattr(table, key).shape == (table.mode.size, 1), key

    @settings(max_examples=200, deadline=None)
    @given(_table_problems())
    def test_candidate_table_matches_plain_builder_on_random_problems(self, problem):
        spec, grid = problem
        table = cdf_solver._candidate_table(spec, grid)
        entries = table.materialize()
        plain = plain_candidates(spec, grid)
        assert table.mode.tolist() == [c["mode"] for c in plain]
        for key in ("const", "frac", "h_at_foot"):  # bit for bit, the sign of zero included
            expected = np.array([c[key] for c in plain])
            got = np.ascontiguousarray(getattr(entries, key))
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), key
        for key in ("foot_a", "foot_b"):
            assert np.array_equal(getattr(entries, key), np.array([c[key] for c in plain])), key

    @settings(max_examples=200, deadline=None)
    @given(_table_problems(), st.data())
    def test_values_match_reference_on_random_problems(self, problem, data):
        # the sweeps read candidates only through values and entries
        spec, grid = problem
        table = cdf_solver._candidate_table(spec, grid)
        plain = plain_candidates(spec, grid)
        n, n_rows = grid.n_nodes, len(plain)
        field = np.array(data.draw(st.lists(
            st.one_of(st.floats(0.0, 5.0), st.just(math.inf)), min_size=n, max_size=n)))
        lo = data.draw(st.integers(0, n_rows - 1))
        rows = slice(lo, data.draw(st.integers(lo + 1, n_rows)))
        cols = None
        if data.draw(st.booleans()):
            cols = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
        got = table.values(field, rows, cols)
        nodes = range(n) if cols is None else cols
        expected = np.array([[_candidate_value(c, field, k) for k in nodes] for c in plain[rows]])
        assert got.shape == expected.shape and np.array_equal(got, expected)
        # entries of one drawn row per node, as the attainment-probability fill picks them
        nodes = np.arange(n) if cols is None else cols
        picks = np.array(data.draw(st.lists(st.integers(0, n_rows - 1),
                                            min_size=nodes.size, max_size=nodes.size)))
        entries = table.entries(picks, nodes)
        for key in ("const", "frac", "foot_a", "foot_b", "h_at_foot"):
            expected = np.array([plain[c][key][k] for c, k in zip(picks, nodes)])
            assert np.array_equal(getattr(entries, key), expected), key

    @settings(max_examples=200, deadline=None)
    @given(_table_problems(), st.data())
    def test_least_reduces_values_block_by_block(self, problem, data):
        # the sweeps reduce candidates through least; any block width gives the whole matrix's bits
        spec, grid = problem
        table = cdf_solver._candidate_table(spec, grid)
        n, n_rows = grid.n_nodes, table.mode.size
        field = np.array(data.draw(st.lists(
            st.one_of(st.floats(0.0, 5.0), st.just(math.inf)), min_size=n, max_size=n)))
        lo = data.draw(st.integers(0, n_rows - 1))
        rows = slice(lo, data.draw(st.integers(lo + 1, n_rows)))
        cols = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
        budget = data.draw(st.integers(1, 2 * (rows.stop - rows.start) * cols.size))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cdf_solver, "_BLOCK_ENTRIES", budget)
            best, arg = table.least(field, cols, rows)
            alone, no_arg = table.least(field, cols, rows, argmin=False)
        whole = table.values(field, rows, cols)
        assert best.tobytes() == whole.min(axis=0).tobytes() == alone.tobytes()
        assert arg.tobytes() == np.argmin(whole, axis=0).tobytes() and no_arg is None

    def test_two_dimensional_solve_stays_small(self):
        # 200 angles at dx 2e-2: 800 candidate rows over 51^2 nodes, so a stored
        # (row, node) table of 24 bytes an entry would alone take 50 MB
        spec = catalog.example6(200)
        grid = build_grid(spec, 2e-2, 2e-2, 1.0)
        tracemalloc.start()
        try:
            solve_min_cost(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2**20

    def test_two_dimensional_solve_holds_no_candidate_matrix(self):
        # the same solve reduces its candidates in blocks of columns: one (800, 2601)
        # matrix of floats alone would take 16 MB, and the s0 and w0 passes made several
        spec = catalog.example6(200)
        grid = build_grid(spec, 2e-2, 2e-2, 1.0)
        tracemalloc.start()
        try:
            solve_min_cost(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_passes_are_reported(self, caplog):
        spec, grid = _min_cost_problem("example3", None, 0.05)
        with caplog.at_level(logging.DEBUG, logger="pdmp_cdf"):
            mc = MinimalCost(spec, grid)
            mc.field(spec)
        (rec,) = [r for r in caplog.records if r.name.startswith("pdmp_cdf")]
        assert rec.levelno == logging.DEBUG
        n_cands, s0_passes, updates, w0_passes = rec.args
        interior = int((~grid.exit_mask).sum())
        assert n_cands == spec.n_modes and (s0_passes, updates) == (mc.passes, mc.updates)
        # every interior node decreases once, one ring of nodes per pass
        assert updates == interior and s0_passes == grid.shape[0] // 2 + 1
        assert w0_passes > 0

    def test_immobile_problem_rejected(self):
        spec = catalog.example1()
        from pdmp_cdf.model import ModeSpec, VectorField
        frozen = ProblemSpec(
            dim=1, lo=spec.lo, hi=spec.hi, exit_set=spec.exit_set,
            modes=tuple(ModeSpec(VectorField.constant([0.0]), m.cost, m.exit_cost)
                        for m in spec.modes),
            rates=spec.rates)
        grid = build_grid(frozen, 0.25, 0.25, 1.0)
        with pytest.raises(NumericsError):
            solve_min_cost(frozen, grid)


class TestRestriction:
    def test_ceiling_arithmetic(self):
        spec = catalog.example1()
        grid = build_grid(spec, 1e-3, 1e-3, 1.0)
        s0 = np.full(grid.n_nodes, 0.2499)
        mc = MinCostField(grid, s0, np.zeros((2, grid.n_nodes)))
        assert np.all(mc.first_level() == 250)

    def test_exact_multiple_keeps_its_level(self):
        spec = catalog.example1()
        grid = build_grid(spec, 1e-3, 1e-3, 1.0)
        mc = MinCostField(grid, np.full(grid.n_nodes, 0.25), np.zeros((2, grid.n_nodes)))
        assert np.all(mc.first_level() == 250)

    def test_exit_node_starts_at_zero_with_unit_seed(self, ex1_coarse):
        spec, grid, mc, _ = ex1_coarse
        levels, seeds = mc.first_level(), mc.w0
        ex = grid.exit_mask
        assert np.all(levels[ex] == 0)
        assert np.all(seeds[:, ex] == 1.0)

    def test_clamp_is_reported(self, caplog):
        # a seed alternating 1, 0 along the nodes: the next level reads the
        # neighboring node, so every seeded 1 falls to 0 and is raised back
        spec = catalog.example1()
        grid = build_grid(spec, 0.01, 0.01, 0.5)
        seed = np.tile(np.arange(grid.n_nodes) % 2 == 0, (2, 1)).astype(float)
        mc = MinCostField(grid, np.full(grid.n_nodes, 0.1), seed)
        with caplog.at_level(logging.DEBUG, logger="pdmp_cdf"):
            field = solve_cdf(spec, grid, restrict=mc)
        (rec,) = [r for r in caplog.records if r.name.startswith("pdmp_cdf")]
        assert rec.levelno == logging.DEBUG
        what, count, largest = rec.args
        assert count > 0 and largest == 1.0
        assert np.all(np.diff(field.values, axis=1) >= 0.0)


class TestLevelShifts:
    """Running costs that reach several levels back, with fractional weights."""

    @staticmethod
    def sloped_cost(grid, controlled):
        # C(x) = 1 + x/2 with tau = 1.6 ds reads 1.6 to 2.4 levels back
        base = catalog.example1()
        cost = ScalarField("tabulated", values=1.0 + 0.5 * grid.points[:, 0])
        dynamics = [VectorField.control_offset([v]) if controlled else VectorField.constant([v])
                    for v in (1.0, -1.0)]
        return ProblemSpec(
            dim=1, lo=base.lo, hi=base.hi, exit_set=base.exit_set,
            modes=tuple(ModeSpec(d, cost, ScalarField.constant(0.0)) for d in dynamics),
            rates=base.rates,
            controls=ControlSet.from_list([[0.0]]) if controlled else ControlSet.none())

    def test_cdf_and_expected_cost_updates_match_per_node_reference(self):
        grid = build_grid(catalog.example1(), 0.02, 0.02, 0.6)
        tau = 1.6 * grid.ds
        spec = self.sloped_cost(grid, controlled=False)
        field = solve_cdf(spec, grid, tau=tau)
        w_ref, _ = level_sweep(spec, grid, tau)
        assert np.abs(field.values - w_ref).max() <= 1e-12
        assert np.abs(field.values).max() > 0.5  # the sweep reached the exits

        controlled = self.sloped_cost(grid, controlled=True)
        tv = solve_threshold(controlled, grid, tau=tau,
                             hjb=solve_hjb_expectation(controlled, grid, tol=1e-10))
        w_ref, v_ref = level_sweep(controlled, grid, tau, u=tv.u, action=np.array([0.0]))
        assert np.abs(tv.w.values - w_ref).max() <= 1e-12
        assert np.abs(tv.v - v_ref).max() <= 1e-12

    def test_bound_updates_match_per_node_reference(self):
        # a degenerate rate interval: both envelopes are the fixed-rate CDF
        grid = build_grid(catalog.example1(), 0.02, 0.02, 0.6)
        tau = 1.6 * grid.ds
        spec = self.sloped_cost(grid, controlled=False)
        pair = solve_bounds(replace(spec, rates=RateBounds.uniform(2, 2.0, 2.0)), grid, tau=tau)
        w_ref, _ = level_sweep(spec, grid, tau)
        assert np.abs(pair.lower.values - w_ref).max() <= 1e-12
        assert np.abs(pair.upper.values - w_ref).max() <= 1e-12
        assert np.abs(w_ref).max() > 0.5


class TestEulerianIdentity:
    def test_matches_semi_lagrangian_level_by_level(self):
        spec = catalog.example1()
        grid = build_grid(spec, 5e-3, 5e-3, 1.0)
        field = solve_cdf(spec, grid)
        worst = 0.0
        for n in range(grid.n_levels - 1):
            nxt = eulerian_step(field, n, 0)
            worst = max(worst, np.abs(nxt - field.values[0, n + 1]).max())
        assert worst <= 1e-12

    def test_exact_shift_at_unit_ratio(self):
        # f * ds = dx: the update is a pure shift mixed at the next node
        spec = catalog.example1()
        grid = build_grid(spec, 0.25, 0.25, 1.0)
        field = solve_cdf(spec, grid)
        rng = np.random.default_rng(0)
        field.values[:, 2, :] = rng.random((2, grid.n_nodes))
        nxt = eulerian_step(field, 2, 0)
        lam = 2.0
        k = np.arange(grid.n_nodes - 1)
        expected = field.values[0, 2, k + 1] + grid.ds * lam * (
            field.values[1, 2, k + 1] - field.values[0, 2, k + 1])
        assert np.abs(nxt[:-1][~grid.exit_mask[:-1]] - expected[~grid.exit_mask[:-1]]).max() < 1e-15

    def test_pure_advection_without_switching(self):
        import dataclasses
        from pdmp_cdf.model import RateMatrix
        spec = dataclasses.replace(catalog.example2(), rates=RateMatrix(np.zeros((2, 2))))
        grid = build_grid(spec, 0.05, 0.05, 1.0)
        field = solve_cdf(spec, grid)
        rng = np.random.default_rng(1)
        field.values[:, 3, :] = rng.random((2, grid.n_nodes))
        nxt = eulerian_step(field, 3, 0)
        theta = 0.5 * grid.ds / grid.dx[0]
        k = np.where(~grid.exit_mask)[0]
        expected = (1 - theta) * field.values[0, 3, k] + theta * field.values[0, 3, k + 1]
        assert np.abs(nxt[k] - expected).max() < 1e-15

    def test_preconditions_enforced(self):
        spec = catalog.example1()
        grid = build_grid(spec, 5e-3, 5e-3, 1.0)
        field = solve_cdf(spec, grid)
        with pytest.raises(NumericsError):
            eulerian_step(field, 0, 1)  # mode 2 moves left


class TestExpectedCost:
    def test_boundary_values(self):
        spec = catalog.example1()
        grid = build_grid(spec, 0.01, 0.01, 1.0)
        u = solve_expected(spec, grid, tol=1e-9)
        assert np.all(u[:, grid.exit_mask] == 0.0)

    def test_mirror_symmetry(self):
        spec = catalog.example1()
        grid = build_grid(spec, 0.01, 0.01, 1.0)
        u = solve_expected(spec, grid, tol=1e-10)
        assert np.abs(u[0] - u[1][::-1]).max() < 1e-8

    def test_closed_form_interior(self):
        # u1(x) = 1 + x - 2 x^2 solves the coupled system for the sailboat;
        # the end-of-step switching model gives a first-order boundary layer
        errs = {}
        for dx in (0.01, 0.005):
            spec = catalog.example1()
            grid = build_grid(spec, dx, dx, 1.0)
            u = solve_expected(spec, grid, tol=1e-10)
            x = grid.points[1:-1, 0]
            errs[dx] = np.abs(u[0, 1:-1] - (1 + x - 2 * x * x)).max()
        assert errs[0.01] < 2.5 * 0.01
        assert errs[0.005] < 0.6 * errs[0.01]

    def test_monte_carlo_cross_check(self):
        spec = catalog.example1()
        grid = build_grid(spec, 1e-3, 1e-3, 1.0)
        u = solve_expected(spec, grid, tol=1e-9)
        batch = run_batch(spec, (np.array([0.5]), 0), 100000, seed=7)
        mean, se = estimate_mean(batch)
        k = round(0.5 / grid.dx[0])
        assert abs(mean - u[0, k]) < 3 * se + 0.01

    def test_cdf_tail_sum_matches_expectation(self):
        spec = catalog.example1()
        grid = build_grid(spec, 5e-3, 5e-3, 10.0)
        mc = solve_min_cost(spec, grid)
        field = solve_cdf(spec, grid, restrict=mc)
        u = solve_expected(spec, grid, tol=1e-9)
        k = round(0.5 / grid.dx[0])
        truncation = 1.0 - field.values[0, -1, k]
        assert truncation < 1e-4
        tail = (1.0 - field.values[0, :, k]).sum() * grid.ds
        assert abs(tail - u[0, k]) < 0.03


class TestSchemeProperties:
    def test_grid_convergence_first_order(self):
        spec = catalog.example1()
        vals = {}
        for dx in (4e-3, 2e-3, 1e-3):
            grid = build_grid(spec, dx, dx, 1.0)
            mc = solve_min_cost(spec, grid)
            field = solve_cdf(spec, grid, restrict=mc)
            vals[dx] = field.values[0, round(0.5 / dx), round(0.7 / dx)]
        ratio = abs(vals[4e-3] - vals[2e-3]) / abs(vals[2e-3] - vals[1e-3])
        assert ratio >= 1.8

    def test_unequal_speed_interpolating_run(self):
        spec = catalog.example2()
        grid = build_grid(spec, 2e-3, 2e-3, 1.0)
        mc = solve_min_cost(spec, grid)
        field = solve_cdf(spec, grid, restrict=mc)
        assert field.values.min() >= 0.0 and field.values.max() <= 1.0 + 1e-12
        assert np.all(np.diff(field.values, axis=1) >= -1e-12)
        x = grid.points[:, 0]
        # restriction pins the atom of the no-switch path at its exact level
        k = round(0.7 / grid.dx[0])
        n = round(0.6 / grid.ds)
        assert abs(field.values[0, n, k] - math.exp(-1.2)) < 0.02
        assert field.values[0, n - 1, k] == 0.0

    def test_escape_off_exit_set_is_failure(self):
        # exit only through the left end: rightward starts that outrun
        # switching leave through the non-exit face and never succeed
        base = catalog.example1()
        spec = ProblemSpec(dim=1, lo=base.lo, hi=base.hi,
                           exit_set=ExitSpec("faces", faces=("x_min",)),
                           modes=base.modes, rates=base.rates)
        grid = build_grid(spec, 0.01, 0.01, 2.0)
        field = solve_cdf(spec, grid)
        assert grid.exit_mask.sum() == 1
        # mass at the right end in the rightward mode is tiny for small s
        k = round(0.95 / grid.dx[0])
        assert field.values[0, round(0.3 / grid.ds), k] == 0.0

    def test_interior_exit_box(self):
        base = catalog.example1()
        spec = ProblemSpec(dim=1, lo=base.lo, hi=base.hi,
                           exit_set=ExitSpec("boxes", boxes=(((0.4, 0.6),),)),
                           modes=base.modes, rates=base.rates)
        grid = build_grid(spec, 0.01, 0.01, 1.0)
        field = solve_cdf(spec, grid)
        # from x = 0.7 moving left, the box edge at 0.6 is 0.1 away
        k = round(0.7 / grid.dx[0])
        n = round(0.2 / grid.ds)
        expected = math.exp(-2 * 0.1)  # no switch before hitting the box
        assert field.values[1, n, k] > expected - 0.05
        assert field.values[1, round(0.05 / grid.ds), k] == 0.0

    def test_monte_carlo_sup_distance(self):
        spec = catalog.example1()
        grid = build_grid(spec, 1e-3, 1e-3, 1.0)
        mc = solve_min_cost(spec, grid)
        field = solve_cdf(spec, grid, restrict=mc)
        batch = run_batch(spec, (np.array([0.3]), 0), 100000, seed=5)
        ecdf = empirical_cdf(batch)
        curve = field.curve(0, [0.3])
        sup = np.abs(curve - ecdf.evaluate(grid.s_levels + 1e-9)).max()
        assert sup <= ecdf.dkw_epsilon(0.01) + 0.02

    def test_causal_tau_default(self):
        spec = catalog.example1()
        grid = build_grid(spec, 0.01, 0.01, 1.0)
        assert causal_tau(spec, grid) == pytest.approx(0.01)
        with pytest.raises(NumericsError):
            solve_cdf(spec, grid, tau=0.005)  # sub-causal step rejected


def test_only_the_step_stack_reads_level_operators():
    # the CDF, bound and threshold sweeps all gather through StepStack.gather
    readers = set()
    for path in sorted(Path(pdmp_cdf.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.Attribute) and node.attr == "level_ops"
                   for node in ast.walk(top)):
                readers.add((path.name, getattr(top, "name", None)))
    assert readers == {("cdf_solver.py", "StepStack")}


class TestStepStackRates:
    """Rates become probabilities at the stack: I + tau*Q per step, I + theta*tau*Q per cap."""

    VEL = (1.0, -1.5, 0.25)
    COST = (1.0, 2.0, 1.5)
    Q_EXIT = (0.0, 0.3, 0.1)
    OFF = ([[0.0, 2.0, 1.0], [0.5, 0.0, 3.0], [1.5, 0.25, 0.0]],
           [[0.0, 0.1, 4.0], [2.5, 0.0, 0.0], [0.0, 6.0, 0.0]])

    def problem(self):
        # exits through x_min only: leftward steps near it are capped, rightward
        # steps near x_max escape
        modes = tuple(ModeSpec(VectorField.constant([v]), ScalarField.constant(c),
                               ScalarField.constant(q))
                      for v, c, q in zip(self.VEL, self.COST, self.Q_EXIT))
        spec = ProblemSpec(dim=1, lo=np.zeros(1), hi=np.ones(1),
                           exit_set=ExitSpec("faces", faces=("x_min",)), modes=modes,
                           rates=RateMatrix(self.OFF[0]))
        return spec, build_grid(spec, 0.05, 0.05, 1.0)

    def test_each_matrix_gives_its_own_probabilities_and_constants(self):
        spec, grid = self.problem()
        tau = 0.07
        steps = [cdf_solver.SemiLagrangianStep(spec, grid, tau, i) for i in range(3)]
        stack = cdf_solver.StepStack(steps, diagonal=True,
                                     rates=[RateMatrix(off) for off in self.OFF])
        x, n = grid.points[:, 0], grid.n_nodes
        live = ~grid.exit_mask
        assert stack.probs.shape == (2, 3, 3) and stack.const.shape == (2, 3 * n)
        cap_rows, cap_probs, seen = [], [[], []], {"capped": 0, "escaping": 0}
        for r, off in enumerate(self.OFF):
            q = np.array(off) - np.diag(np.sum(off, axis=1))
            for i, (v, c) in enumerate(zip(self.VEL, self.COST)):
                eye = np.eye(3)[i]
                assert np.allclose(stack.probs[r, i], eye + tau * q[i], rtol=0, atol=1e-15)
                # time to the exit face x_min, or to the escape face x_max
                reach = x / -v if v < 0 else (1.0 - x) / v
                ends = live & (reach <= tau)
                const = np.where(live, tau * c, 0.0)
                if v > 0:
                    const[ends] = cdf_solver.ESCAPE_COST
                    seen["escaping"] += int(ends.sum())
                else:
                    theta_tau = reach[ends]
                    mix = eye + theta_tau[:, None] * q[i]
                    const[ends] = theta_tau * c + mix @ np.array(self.Q_EXIT)
                    if r == 0:
                        cap_rows.extend(i * n + np.flatnonzero(ends))
                    cap_probs[r].append(mix)
                    seen["capped"] += int(ends.sum())
                assert np.allclose(stack.const[r, i * n:(i + 1) * n], const,
                                   rtol=1e-14, atol=1e-14)
        assert seen["capped"] > 0 and seen["escaping"] > 0
        assert np.array_equal(stack.cap_rows, cap_rows)
        assert np.allclose(stack.cap_probs, [np.concatenate(p) for p in cap_probs],
                           rtol=0, atol=1e-14)

    def test_capped_rows_are_recomputed_only_where_they_change(self):
        # exit costs 0.3 and 0.1 switch capped rows on part way up the grid;
        # every level, asked in any order, reads what the expression gives there
        spec, grid = self.problem()
        steps = [cdf_solver.SemiLagrangianStep(spec, grid, 0.07, i) for i in range(3)]
        stack = cdf_solver.StepStack(steps, diagonal=True,
                                     rates=[RateMatrix(off) for off in self.OFF])
        direct = [((n * grid.ds - stack.cap_ds)[:, None] >= stack.cap_q - 1e-15).astype(float)
                  for n in range(grid.n_levels)]
        changes = [n for n in range(1, grid.n_levels)
                   if not np.array_equal(direct[n], direct[n - 1])]
        assert stack.cap_flips == changes and len(changes) > 1
        for n in np.random.default_rng(3).permutation(grid.n_levels).tolist():
            assert np.array_equal(stack.cap_indicator(n), direct[n])
            assert np.array_equal(stack.cap_cdf(n),
                                  np.einsum("rkj,kj->rk", stack.cap_probs, direct[n]))
        assert not stack.cap_cdf(0).flags.writeable

    def test_without_rates_the_stack_holds_no_probabilities(self):
        spec, grid = self.problem()
        stack = cdf_solver.StepStack([cdf_solver.SemiLagrangianStep(spec, grid, 0.07, i)
                                      for i in range(3)])
        assert stack.probs is None and stack.cap_probs is None and stack.const is None
        assert stack.cap_rows.size > 0


def test_only_the_step_stack_turns_rates_into_probabilities():
    # one rule, in one place: StepStack.__init__ mixes I + tau*Q and I + theta*tau*Q
    callers = set()
    for path in sorted(Path(pdmp_cdf.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            defs = [(f"{top.name}.{d.name}", d) for d in top.body
                    if isinstance(d, ast.FunctionDef)] if isinstance(top, ast.ClassDef) else [
                (getattr(top, "name", None), top)]
            for name, node in defs:
                for call in ast.walk(node):
                    if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                            and call.func.id in ("transition_probabilities", "_cap_mix")):
                        callers.add((path.name, name, call.func.id))
    assert callers == {("cdf_solver.py", "StepStack.__init__", "transition_probabilities"),
                       ("cdf_solver.py", "StepStack.__init__", "_cap_mix")}


class TestSameAnswersAsTheReferenceLoops:
    """The sweep's seeding, clamp and exit rows, and the 1D attainment fill, bit for bit.

    ``reference_sweep`` and ``reference_w0_ordered`` (tests/reference_solvers.py)
    keep the whole-array seeding and clamp and the per-node fill loop.
    """

    @staticmethod
    def _ex4_fixed():
        return replace(catalog.example4(), rates=RateMatrix([[0.0, 2.0], [3.0, 0.0]]))

    @staticmethod
    def _run(monkeypatch, solve, reference):
        if reference:
            for module in (cdf_solver, bounds, control):
                monkeypatch.setattr(module, "_sweep", reference_sweep)
        fields = solve()
        monkeypatch.undo()
        return [f.values for f in fields], fields[0].clamp

    @pytest.mark.parametrize("restrict", [False, True], ids=["plain", "restricted"])
    @pytest.mark.parametrize("case", ["example1", "example2", "example3", "example4",
                                      "sweep16", "sweep16_two_levels", "bounds", "threshold5"])
    def test_sweeps_equal_the_whole_array_sweep(self, monkeypatch, case, restrict):
        if case in ("example1", "example2", "example3", "example4"):
            spec = self._ex4_fixed() if case == "example4" else catalog.builtin(case)
            grid = build_grid(spec, 0.05 if case == "example3" else 0.01, 0.01, 1.0)
            mc = solve_min_cost(spec, grid) if restrict else None

            def solve():
                return [solve_cdf(spec, grid, restrict=mc)]
        elif case.startswith("sweep16"):
            # at tau = 1.6 ds every step reads two levels back, so the sweep's ring holds two
            spec = catalog.example4()
            grid = build_grid(spec, 0.01, 0.01, 1.0)
            tau = 1.6 * grid.ds if case == "sweep16_two_levels" else None

            def solve():
                rms = default_rate_grid()
                seed = stacked_seed(spec, grid, rms) if restrict else None
                return fixed_rate_sweep(spec, grid, rms, tau=tau, restrict=seed)
        elif case == "bounds":
            spec = catalog.example4()
            grid = build_grid(spec, 0.01, 0.01, 1.0)
            mc = solve_min_cost_bounds(spec, grid) if restrict else None

            def solve():
                pair = solve_bounds(spec, grid, restrict=mc)
                return [pair.upper, pair.lower]
        else:
            spec = catalog.example5()
            grid = build_grid(spec, 0.01, 0.005, 0.8)
            mc = solve_min_cost(spec, grid) if restrict else None
            hjb = solve_hjb_expectation(spec, grid)

            def solve():
                return [solve_threshold(spec, grid, restrict=mc, hjb=hjb).w]
        got, clamp = self._run(monkeypatch, solve, reference=False)
        want, ref_clamp = self._run(monkeypatch, solve, reference=True)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        if restrict:
            assert (clamp.count, clamp.largest) == (ref_clamp.count, ref_clamp.largest)
        else:
            assert clamp is None and ref_clamp is None

    def test_the_clamp_is_exercised(self):
        # example2's restricted sweep raises values, so the clamp comparisons above bite
        spec = catalog.example2()
        grid = build_grid(spec, 0.01, 0.01, 1.0)
        assert solve_cdf(spec, grid, restrict=solve_min_cost(spec, grid)).clamp.count > 0

    @staticmethod
    def _w0_pair(monkeypatch, spec, grid, choices):
        mc = MinimalCost(spec, grid)
        got = mc.stacked(choices).w0
        monkeypatch.setattr(cdf_solver, "_w0_ordered", reference_w0_ordered)
        want = mc.stacked(choices).w0
        monkeypatch.undo()
        return got, want

    @pytest.mark.parametrize("case", ["example1", "example2", "example5", "bounds2", "sweep16"])
    def test_w0_equals_the_per_node_loop(self, monkeypatch, case):
        spec = catalog.builtin(case) if case.startswith("example") else catalog.example4()
        grid = build_grid(spec, 0.01, 0.01, 1.0)
        if case == "bounds2":
            choices = [(spec, "upper"), (spec, "lower")]
        elif case == "sweep16":
            choices = [(replace(spec, rates=rm), None) for rm in default_rate_grid()]
        else:
            choices = [(spec, None)]
        got, want = self._w0_pair(monkeypatch, spec, grid, choices)
        assert got.shape == (len(choices), spec.n_modes, grid.n_nodes)
        assert got.tobytes() == want.tobytes()
        assert np.any((got > 0.0) & (got < 1.0))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_w0_equals_the_per_node_loop_on_random_1d_problems(self, data):
        m = data.draw(st.integers(2, 3))
        faces = data.draw(st.sampled_from([("x_min",), ("x_max",), ("x_min", "x_max")]))
        speed = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.75, 1.0, 3.0])
        modes = tuple(ModeSpec(VectorField.constant([data.draw(speed)]),
                               ScalarField.constant(data.draw(st.sampled_from([0.5, 1.0, 2.0]))),
                               ScalarField.constant(data.draw(st.sampled_from([0.0, 0.1]))))
                      for _ in range(m))
        rates = [[0.0 if i == j else data.draw(st.floats(0.0, 4.0)) for j in range(m)]
                 for i in range(m)]
        spec = ProblemSpec(dim=1, lo=np.zeros(1), hi=np.ones(1),
                           exit_set=ExitSpec("faces", faces=faces), modes=modes,
                           rates=RateMatrix(rates))
        grid = build_grid(spec, data.draw(st.sampled_from([0.05, 0.1, 0.125])), 0.05, 1.0)
        try:
            mc = MinimalCost(spec, grid)
        except NumericsError:  # no node reaches the exits
            return
        got = mc.stacked([(spec, None)]).w0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cdf_solver, "_w0_ordered", reference_w0_ordered)
            want = mc.stacked([(spec, None)]).w0
        assert got.tobytes() == want.tobytes()


@st.composite
def _slice_requests(draw, grid):
    """Sheet levels and curve points: on nodes, between them, and pairs in one cell."""
    levels = draw(st.lists(st.integers(0, grid.n_levels - 1), max_size=3))
    fractions = st.sampled_from([0.0, 0.3, 0.5, 1.0])  # 0 and 1 are nodes
    points = []
    for _ in range(draw(st.integers(0, 2))):
        cell = [draw(st.integers(0, n - 2)) for n in grid.shape]
        for _ in range(draw(st.integers(1, 2))):  # a second point shares the first one's stencil
            points.append([grid.lo[a] + (c + draw(fractions)) * grid.dx[a]
                           for a, c in enumerate(cell)])
    return levels, points


@functools.lru_cache(maxsize=None)
def _kept_slices_case(case: str, restrict: bool):
    """A sweep case of ``TestKeptSlices``: (spec, grid, solve), ``solve(keep)`` giving its fields.

    The seed and the tie-breaking HJB solve are made once per case.
    """
    spec = {"cdf1": catalog.example2, "cdf2d": catalog.example3,
            "threshold5": catalog.example5}.get(case, catalog.example4)()
    dx, ds, s_max = {"cdf2d": (0.1, 0.05, 1.0), "threshold5": (0.02, 0.01, 0.6)}.get(
        case, (0.02, 0.02, 1.0))
    grid = build_grid(spec, dx, ds, s_max)
    rms = default_rate_grid()
    seed = None if not restrict else (
        solve_min_cost_bounds(spec, grid) if case == "bounds"
        else stacked_seed(spec, grid, rms) if case.startswith("sweep16")
        else solve_min_cost(spec, grid))
    if case in ("cdf1", "cdf2d"):
        def solve(keep):
            return [solve_cdf(spec, grid, restrict=seed, keep=keep)]
    elif case == "bounds":
        def solve(keep):
            pair = solve_bounds(spec, grid, restrict=seed, keep=keep)
            return [pair.upper, pair.lower]
    elif case == "threshold5":
        hjb = solve_hjb_expectation(spec, grid)

        def solve(keep):
            return [solve_threshold(spec, grid, restrict=seed, hjb=hjb, keep=keep).w]
    else:
        tau = 1.6 * grid.ds if case == "sweep16_two_levels" else None

        def solve(keep):
            return fixed_rate_sweep(spec, grid, rms, tau=tau, restrict=seed, keep=keep)
    return spec, grid, solve, solve(None)


class TestKeptSlices:
    """A sweep given a ``Keep`` stores exactly the whole sweep's slices, byte for byte."""

    CASES = ["cdf1", "cdf2d", "bounds", "sweep16", "sweep16_two_levels", "threshold5"]

    @pytest.mark.parametrize("restrict", [False, True], ids=["plain", "restricted"])
    @pytest.mark.parametrize("case", CASES)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_kept_slices_equal_the_whole_fields(self, case, restrict, data):
        spec, grid, solve, whole = _kept_slices_case(case, restrict)
        levels, points = data.draw(_slice_requests(grid))
        keep = Keep.of(grid, levels, points)
        kept = solve(keep)
        assert len(kept) == len(whole) and len(whole) in (1, 2, 16)
        for k, w in zip(kept, whole):
            assert k.values.shape == (spec.n_modes, keep.levels.size, grid.n_nodes)
            assert k.values.tobytes() == w.values[:, keep.levels].tobytes()
            assert k.columns.tobytes() == w.values[..., keep.nodes].tobytes()
            assert k.sheets(levels).tobytes() == w.sheets(levels).tobytes()
            for pt in points:
                for i in range(spec.n_modes):
                    assert k.curve(i, pt).tobytes() == w.curve(i, pt).tobytes()
            if restrict:
                assert (k.clamp.count, k.clamp.largest) == (w.clamp.count, w.clamp.largest)

    def test_the_two_level_case_reads_two_levels_back(self):
        spec, grid, *_ = _kept_slices_case("sweep16_two_levels", False)
        steps, _ = cdf_solver._mode_steps(spec, grid, 1.6 * grid.ds)
        stack = cdf_solver.StepStack(steps, diagonal=True, rates=default_rate_grid())
        assert stack.depth == 2 and [parts for _, parts, _ in stack.level_ops] == [2]

    def test_slices_that_were_not_kept_are_refused(self):
        spec, grid, *_ = _kept_slices_case("cdf1", False)
        field = solve_cdf(spec, grid, keep=Keep.of(grid, [3], [[0.5]]))
        with pytest.raises(ValueError):
            field.sheets([4])
        with pytest.raises(ValueError):
            field.curve(0, [0.3])
        with pytest.raises(ValueError):
            field.evaluate(0, [0.5], 0.1)
        with pytest.raises(ValueError):
            Keep.of(grid, [grid.n_levels])
