import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import pdmp_cdf
from pdmp_cdf import build_grid, catalog, simulate
from pdmp_cdf.cdf_solver import solve_min_cost
from pdmp_cdf.control import (Policy, evaluate_policy_cdf, solve_hjb_expectation, solve_threshold,
                              synthesize_policy)
from pdmp_cdf.errors import ConfigError
from pdmp_cdf.model import (
    ControlSet,
    ExitSpec,
    ModeSpec,
    ProblemSpec,
    RateMatrix,
    ScalarField,
    VectorField,
)
from pdmp_cdf.simulate import (
    EmpiricalCdf,
    TrajectorySample,
    _chessboard_radii,
    _constant_action_radii,
    _exponential,
    _successors,
    _uniform,
    default_horizon,
    empirical_cdf,
    estimate_mean,
    philox4x64,
    run_batch,
    sample_trajectory,
    write_samples_csv,
)
from reference_simulate import per_cell_batch, per_sample_tabulated_batch

EX1 = catalog.example1()


class TestSingleTrajectories:
    def test_forced_exit_without_switch(self):
        # find a stream whose first switch comes after 0.1 time units
        for idx in range(20):
            s = sample_trajectory(EX1, (np.array([0.9]), 0), seed=123, index=idx)
            if not s.switch_times or s.switch_times[0] > 0.1:
                break
        assert s.exited
        assert abs(s.cost - 0.1) < 1e-12
        assert abs(s.exit_point[0] - 1.0) < 1e-12

    def test_no_randomness_without_switching(self):
        spec = dataclasses.replace(EX1, rates=RateMatrix(np.zeros((2, 2))))
        costs = [sample_trajectory(spec, (np.array([0.3]), 0), seed=s).cost for s in range(5)]
        assert all(c == costs[0] for c in costs)
        assert costs[0] == pytest.approx(0.7, abs=1e-12)

    def test_seed_reproducibility_bitwise(self):
        a = sample_trajectory(EX1, (np.array([0.4]), 0), seed=9, index=2)
        b = sample_trajectory(EX1, (np.array([0.4]), 0), seed=9, index=2)
        assert a.cost == b.cost
        assert a.switch_times == b.switch_times
        assert a.modes == b.modes

    def test_matches_batch_row(self):
        batch = run_batch(EX1, (np.array([0.4]), 0), 6, seed=9, record=True)
        single = sample_trajectory(EX1, (np.array([0.4]), 0), seed=9, index=3)
        row = batch.samples[3]
        assert single.cost == row.cost
        assert single.switch_times == row.switch_times

    def test_switch_times_increase_and_costs_accumulate(self):
        s = sample_trajectory(EX1, (np.array([0.5]), 0), seed=1, index=0)
        assert all(a < b for a, b in zip(s.switch_times, s.switch_times[1:]))
        cps = s.cost_checkpoints
        assert all(a[1] <= b[1] for a, b in zip(cps, cps[1:]))


class TestBatchStatistics:
    def test_no_switch_probability(self):
        batch = run_batch(EX1, (np.array([0.75]), 0), 100000, seed=42)
        p = empirical_cdf(batch).evaluate(0.25 + 1e-12)
        target = math.exp(-0.5)
        assert abs(p - target) <= 3 * math.sqrt(target * (1 - target) / 100000)

    def test_all_exit_for_the_sailboat(self):
        batch = run_batch(EX1, (np.array([0.5]), 0), 20000, seed=3)
        assert batch.exited.all()
        assert not batch.escaped.any()

    def test_escape_through_closed_face(self):
        spec = ProblemSpec(dim=1, lo=EX1.lo, hi=EX1.hi,
                           exit_set=ExitSpec("faces", faces=("x_min",)),
                           modes=EX1.modes, rates=RateMatrix(np.zeros((2, 2))))
        batch = run_batch(spec, (np.array([0.5]), 0), 100, seed=0)
        assert batch.escaped.all()
        assert np.all(np.isinf(batch.costs))

    def test_policy_face_events_read_the_exit_faces(self):
        # a policy-driven sample ends on a face event: an exit at x_min, an escape at x_max
        controls = ControlSet.from_list([[-1.0], [1.0]])
        mode = ModeSpec(VectorField.control_offset([0.0]), ScalarField.constant(1.0),
                        ScalarField.constant(0.0))
        spec = ProblemSpec(dim=1, lo=EX1.lo, hi=EX1.hi,
                           exit_set=ExitSpec("faces", faces=("x_min",)), modes=(mode,),
                           rates=RateMatrix([[0.0]]), controls=controls)
        for action, exits in ((0, True), (1, False)):
            actions = np.full((1, 1, 5), action, dtype=np.int16)
            policy = Policy(controls, actions, actions[:, 0], spec.lo, np.array([0.25]), (5,),
                            0.25, provenance="expectation")
            batch = run_batch(spec, (np.array([0.6]), 0), 4, seed=2, policy=policy)
            assert batch.exited.all() == exits and batch.escaped.all() != exits
            if exits:
                assert np.allclose(batch.costs, 0.6)

    def test_mode_occupancy_matches_stationary_distribution(self):
        # immobile modes, asymmetric switching: fraction of time per mode
        # approaches the stationary law of the rate matrix
        rates = RateMatrix([[0.0, 3.0], [1.0, 0.0]])
        modes = tuple(
            ModeSpec(VectorField.constant([0.0]), ScalarField.constant(1.0),
                     ScalarField.constant(0.0)) for _ in range(2))
        spec = ProblemSpec(dim=1, lo=EX1.lo, hi=EX1.hi, exit_set=ExitSpec("none"),
                           modes=modes, rates=rates)
        batch = run_batch(spec, (np.array([0.5]), 0), 400, seed=11, horizon_cap=50.0)
        assert batch.censored.all()
        fractions = batch.occupancy[:, 0] / batch.occupancy.sum(axis=1)
        pi0 = 1.0 / (1.0 + 3.0)  # stationary mass of the faster-leaving mode
        se = fractions.std(ddof=1) / math.sqrt(fractions.size)
        assert abs(fractions.mean() - pi0) <= 3 * se

    def test_exact_exit_costs_for_piecewise_constant_dynamics(self):
        spec = dataclasses.replace(EX1, rates=RateMatrix(np.zeros((2, 2))))
        batch = run_batch(spec, (np.array([0.3]), 0), 50, seed=5)
        assert np.all(batch.costs == batch.costs[0])
        assert batch.costs[0] == (1.0 - 0.3) / 1.0

    def test_2d_starts(self):
        spec = catalog.example3()
        batch = run_batch(spec, (np.array([0.5, 0.5]), 2), 2000, seed=8)
        assert batch.exited.all()
        assert batch.costs.min() >= 0.5 - 1e-12  # at least the straight-line time


class TestTabulatedDynamics:
    def test_integrated_exit_time(self):
        # velocity tabulated as constant +1: same answer as the closed form
        spec_base = catalog.example1()
        grid = build_grid(spec_base, 0.01, 0.01, 1.0)
        vals = np.ones((grid.n_nodes, 1))
        modes = (
            ModeSpec(VectorField("tabulated", values=vals), ScalarField.constant(1.0),
                     ScalarField.constant(0.0)),
        )
        spec = ProblemSpec(dim=1, lo=spec_base.lo, hi=spec_base.hi,
                           exit_set=ExitSpec("boundary"), modes=modes,
                           rates=RateMatrix(np.zeros((1, 1))))
        s = sample_trajectory(spec, (np.array([0.4]), 0), seed=0, grid=grid)
        assert s.exited
        assert abs(s.cost - 0.6) < 1e-6
        # events count integrator steps here: dx / |f| = 0.01 time units each
        batch = run_batch(spec, (np.array([0.4]), 0), 3, seed=0, grid=grid)
        assert np.all((batch.events >= 60) & (batch.events <= 61))

    @pytest.mark.parametrize("dx", [0.1, 0.05, 0.02, 0.01])
    def test_running_cost_charged_at_the_stage_points(self, dx):
        # x' = 1 from 0 to the exit at 1 under the rate 1 + x costs 1.5 exactly;
        # charging each step's start-point rate would give 1.5 - dx / 2
        spec = ProblemSpec(dim=1, lo=[0.0], hi=[1.0], exit_set=ExitSpec("faces", faces=("x_max",)),
                           modes=(ModeSpec(VectorField.constant([1.0]), ScalarField.constant(1.0),
                                           ScalarField.constant(0.0)),),
                           rates=RateMatrix(np.zeros((1, 1))))
        grid = build_grid(spec, dx, dx, 1.0)
        rate = ScalarField("tabulated", values=1.0 + grid.points[:, 0])
        spec = dataclasses.replace(spec, modes=(dataclasses.replace(spec.modes[0], cost=rate),))
        batch = run_batch(spec, (np.array([0.0]), 0), 3, seed=0, grid=grid)
        assert batch.exited.all()
        assert np.all(np.abs(batch.costs - 1.5) <= 1e-12)

    @pytest.mark.parametrize("name", ["example1-nodes", "1d-varying-cost", "2d-rotating",
                                      "2d-rotating-box"])
    def test_matches_the_per_sample_reference(self, name):
        spec, grid, start, cap = tabulated_case(name)
        batch = run_batch(spec, start, 100, seed=5, horizon_cap=cap, grid=grid, record=True)
        samples, ref = per_sample_tabulated_batch(spec, grid, start, 100, 5, horizon_cap=cap)
        # the reference looks for exit boxes only where a step leaves the domain,
        # so a sample that ends in a box agrees with it only up to there
        in_box = batch.exited & (spec.exit_set.kind == "boxes")
        assert in_box.any() == (name == "2d-rotating-box")
        boxed = [(got, want) for got, want, b in zip(batch.samples, samples, in_box) if b]
        for got, want in boxed:
            assert spec.exit_set.in_boxes(got.exit_point, 1e-12)[0]
            k = len(got.switch_times)
            assert got.modes == want.modes[:k + 1]
            assert np.allclose(got.switch_times, want.switch_times[:k], rtol=0.0, atol=1e-12)
        same = ~in_box
        for key in ("exited", "escaped", "censored", "switch_counts", "events"):
            assert np.array_equal(getattr(batch, key)[same], ref[key][same]), key
        final = np.array([s.modes[-1] for s in batch.samples])
        assert np.array_equal(final[same], ref["final_mode"][same])
        assert batch.switch_counts.any() and not batch.censored[same].all()
        for key in ("costs", "exit_times"):
            got, want = getattr(batch, key)[same], ref[key][same]
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite), key
            assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12), key

    @pytest.mark.parametrize("name, fields", [
        ("example3-box", "velocity"), ("example3-box", "costs"), ("example1", "costs")])
    def test_tabulated_copies_match_the_closed_form(self, name, fields):
        # an interior exit box is reached inside the domain, and tabulated
        # costs need not be constant
        if name == "example1":
            spec, dx, start, cap = EX1, 1e-2, (np.array([0.4]), 0), None
        else:
            spec = dataclasses.replace(catalog.example3(),
                                       exit_set=ExitSpec("boxes", boxes=(((0.6, 0.8), (0.2, 0.4)),)))
            dx, start, cap = 5e-2, (np.array([0.5, 0.5]), 2), 6.0
        grid = build_grid(spec, dx, dx, 1.0)
        kw = dict(start=start, n=300, seed=5, horizon_cap=cap)
        closed = run_batch(spec, **kw)
        tabulated = run_batch(node_values(spec, grid, fields), grid=grid, **kw)
        assert closed.exited.sum() >= 30
        for key in ("exited", "escaped", "censored", "switch_counts"):
            assert np.array_equal(getattr(tabulated, key), getattr(closed, key)), key
        finite = np.isfinite(closed.costs)
        assert np.array_equal(np.isfinite(tabulated.costs), finite)
        assert np.max(np.abs(tabulated.costs[finite] - closed.costs[finite])) <= 1e-12

    def test_occupancy_rows_sum_to_the_time_in_the_run(self):
        grid = build_grid(EX1, 2e-2, 2e-2, 1.0)
        batch = run_batch(node_values(EX1, grid, "velocity"), (np.array([0.4]), 0), 300, seed=5,
                          horizon_cap=0.8, grid=grid)
        assert batch.exited.any() and batch.censored.any() and not batch.escaped.any()
        want = np.where(batch.censored, 0.8, batch.exit_times)
        assert np.max(np.abs(batch.occupancy.sum(axis=1) - want)) <= 1e-12
        # immobile modes: the time in each mode is the closed form's
        grid = build_grid(EX1, 0.05, 0.05, 1.0)
        kw = dict(start=(np.array([0.5]), 2), n=200, seed=31, horizon_cap=15.0)
        closed = run_batch(immobile_spec(RATES3), **kw)
        tabulated = run_batch(immobile_spec(RATES3, velocity="tabulated", grid=grid), grid=grid, **kw)
        assert np.max(np.abs(tabulated.occupancy - closed.occupancy)) <= 1e-12

    def test_policies_and_missing_grids_rejected(self):
        grid = build_grid(EX1, 0.05, 0.05, 1.0)
        with pytest.raises(ConfigError, match="grid"):
            run_batch(immobile_spec(RATES3, velocity="tabulated", grid=grid), (np.array([0.5]), 0),
                      3, seed=0, horizon_cap=1.0)
        ex5 = catalog.example5()
        grid = build_grid(ex5, 0.02, 0.01, 1.0)
        actions = np.zeros((2, 1, grid.n_nodes), dtype=np.int16)
        policy = Policy(ex5.controls, actions, actions[:, 0], grid.lo, grid.dx, grid.shape,
                        grid.ds, provenance="expectation")
        run_batch(ex5, (np.array([0.4]), 0), 3, seed=0, policy=policy, grid=grid)
        with pytest.raises(ConfigError, match="tabulated"):
            run_batch(node_values(ex5, grid, "costs"), (np.array([0.4]), 0), 3, seed=0,
                      policy=policy, grid=grid)


def node_values(spec, grid, fields):
    """``spec`` with each mode's velocity, or its running and exit costs, given per node."""
    def tabulate(ms):
        if fields == "velocity":
            return dataclasses.replace(
                ms, dynamics=VectorField("tabulated", values=ms.dynamics.at(grid, grid.points)))
        return dataclasses.replace(
            ms, cost=ScalarField("tabulated", values=ms.cost.node_values(grid)),
            exit_cost=ScalarField("tabulated", values=ms.exit_cost.node_values(grid)))
    return dataclasses.replace(spec, modes=tuple(tabulate(ms) for ms in spec.modes))


def tabulated_case(name):
    """Problem, grid, start and horizon cap of one per-sample reference case."""
    if name == "example1-nodes":
        grid = build_grid(EX1, 2e-2, 2e-2, 1.0)
        return node_values(EX1, grid, "velocity"), grid, (np.array([0.4]), 0), None
    if name == "1d-varying-cost":
        # a space-varying velocity, running cost and exit cost next to a constant mode
        grid = build_grid(EX1, 2e-2, 1e-2, 1.0)
        p = grid.points[:, 0]
        varying = ModeSpec(VectorField("tabulated", values=(0.3 + p)[:, None]),
                           ScalarField("tabulated", values=1.0 + 0.5 * p),
                           ScalarField("tabulated", values=0.2 * p))
        return (dataclasses.replace(EX1, modes=(varying, EX1.modes[1])), grid,
                (np.array([0.5]), 0), None)
    # rotation about the centre plus each example3 mode's velocity; x_min is an
    # escape, or the whole boundary is, around an interior exit box
    ex3 = catalog.example3()
    grid = build_grid(ex3, 5e-2, 5e-2, 1.0)
    px, py = grid.points[:, 0], grid.points[:, 1]
    rotation = np.column_stack([-(py - 0.5), px - 0.5])
    modes = tuple(dataclasses.replace(ms, dynamics=VectorField(
        "tabulated", values=rotation + 0.5 * ms.dynamics.vector)) for ms in ex3.modes)
    if name == "2d-rotating":
        exits = ExitSpec("faces", faces=("x_max", "y_min", "y_max"))
    else:
        exits = ExitSpec("boxes", boxes=(((0.6, 0.8), (0.2, 0.4)),))
    return (dataclasses.replace(ex3, modes=modes, exit_set=exits), grid,
            (np.array([0.3, 0.6]), 1), 4.0)


def oracle_block(seed, index, event):
    """The block of one event under randomness contract v2, from numpy's own Philox."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Philox(key=key, counter=[event, 0, 0, 0]).random_raw(4)


def immobile_spec(rates, velocity="constant", grid=None):
    """Zero-velocity modes with no exit set: only the switching law acts."""
    m = len(rates)
    if velocity == "constant":
        field = VectorField.constant([0.0])
    else:
        field = VectorField("tabulated", values=np.zeros((grid.n_nodes, 1)))
    modes = tuple(ModeSpec(field, ScalarField.constant(1.0), ScalarField.constant(0.0))
                  for _ in range(m))
    return ProblemSpec(dim=1, lo=EX1.lo, hi=EX1.hi, exit_set=ExitSpec("none"),
                       modes=modes, rates=RateMatrix(rates))


RATES3 = [[0.0, 2.0, 1.0], [0.5, 0.0, 3.0], [1.0, 1.0, 0.0]]


class TestRandomnessContract:
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 5, 2**63 + 1])
    def test_block_matches_numpy_philox(self, seed, index):
        events = np.arange(8, dtype=np.uint64)
        words = philox4x64(seed, np.full(8, index, dtype=np.uint64), events + np.uint64(1))
        got = np.stack(words, axis=1)
        want = np.stack([oracle_block(seed, index, int(k)) for k in events])
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    def test_successor_draw_is_searchsorted_right(self):
        # mode 1's row sums to just under one, as a rounded cumulative sum can
        cum = np.array([[0.0, 0.25, 1.0], [0.5, 0.5, 1.0 - 2**-52], [0.4, 1.0, 1.0]])
        u = np.array([0.0, 0.25, 0.2499999, 0.5, 0.75, 1.0 - 2**-53, 0.4, 1.0 - 2**-53, 0.0])
        modes = np.array([0, 0, 0, 1, 1, 1, 2, 2, 1])
        want = np.minimum([np.searchsorted(cum[k], v, side="right") for k, v in zip(modes, u)], 2)
        got = _successors(cum, modes, u)
        assert np.array_equal(got, want)
        # u = 0 skips a zero-probability entry, u on a boundary goes right, and a
        # u above the whole row is clipped to the last mode
        assert got[0] == 1 and got[1] == 2 and got[3] == 2 and got[5] == 2 and got[8] == 0

    def test_clock_range(self):
        w = np.array([0, 2**64 - 1], dtype=np.uint64)
        e = _exponential(w)
        assert e[0] == 0.0
        assert np.isfinite(e[1]) and e[1] == pytest.approx(53 * math.log(2.0), rel=1e-12)
        assert _uniform(w)[1] == 1.0 - 2**-53

    def test_trajectory_follows_the_documented_layout(self):
        spec = immobile_spec(RATES3)
        totals = np.array(RATES3).sum(axis=1)
        cum = np.cumsum(np.array(RATES3) / totals[:, None], axis=1)
        seed, index = 2**63 + 7, 12
        s = sample_trajectory(spec, (np.array([0.5]), 1), seed=seed, index=index,
                              horizon_cap=20.0)
        assert s.censored and len(s.switch_times) >= 3
        t, mode = 0.0, 1
        w = oracle_block(seed, index, 0)
        t += float(_exponential(w[1:2])[0]) / totals[mode]
        for k, (t_k, mode_k) in enumerate(zip(s.switch_times, s.modes[1:]), start=1):
            assert t_k == pytest.approx(t, abs=1e-12)
            w = oracle_block(seed, index, k)
            mode = int(np.searchsorted(cum[mode], _uniform(w[:1])[0], side="right"))
            assert mode_k == mode
            t += float(_exponential(w[1:2])[0]) / totals[mode]

    @pytest.mark.parametrize("index", [0, 3, 2**40])
    def test_tabulated_and_closed_form_paths_agree(self, index):
        grid = build_grid(EX1, 0.05, 0.05, 1.0)
        closed = immobile_spec(RATES3)
        tabulated = immobile_spec(RATES3, velocity="tabulated", grid=grid)
        kw = dict(start=(np.array([0.5]), 2), seed=31, index=index, horizon_cap=15.0)
        a = sample_trajectory(closed, **kw)
        b = sample_trajectory(tabulated, grid=grid, **kw)
        assert a.censored and b.censored
        assert len(a.switch_times) > 5
        assert a.modes == b.modes
        assert np.allclose(a.switch_times, b.switch_times, rtol=0.0, atol=1e-12)

    def test_seed_range_checked(self):
        with pytest.raises(ConfigError):
            run_batch(EX1, (np.array([0.5]), 0), 3, seed=-1)
        with pytest.raises(ConfigError):
            run_batch(EX1, (np.array([0.5]), 0), 3, seed=2**64)
        with pytest.raises(ConfigError):
            run_batch(EX1, (np.array([0.5]), 0), 3, seed=0, stream_offset=2**64 - 2)


class TestEmpiricalCdf:
    def make(self, costs, n_total=None):
        costs = np.asarray(costs, dtype=float)
        return EmpiricalCdf(costs[np.isfinite(costs)], n_total or costs.size)

    def test_counting(self):
        f = self.make([1.0, 2.0, 2.0, 4.0])
        assert f.evaluate(2.0) == 0.75
        assert f.evaluate(0.5) == 0.0
        assert f.evaluate(4.0) == 1.0

    def test_censoring_rule(self):
        f = self.make([1.0, 1.0, 1.0, 1.0, math.inf])
        assert f.evaluate(1.0) == 0.8
        assert f.evaluate(1e9) == 0.8

    def test_dkw_band_value(self):
        f = EmpiricalCdf(np.zeros(1), 100000)
        assert f.dkw_epsilon(0.01) == pytest.approx(0.00514709, abs=1e-6)

    def test_right_continuous_step(self):
        f = self.make([1.0])
        assert f.evaluate(1.0 - 1e-12) == 0.0
        assert f.evaluate(1.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            empirical_cdf([])


class TestMeanEstimate:
    def test_two_samples(self):
        samples = [TrajectorySample(np.zeros(1), 0, cost=c, exited=True) for c in (1.0, 3.0)]
        mean, se = estimate_mean(samples)
        assert mean == 2.0
        assert se == pytest.approx(1.0)

    def test_constant_samples_zero_se(self):
        samples = [TrajectorySample(np.zeros(1), 0, cost=2.0, exited=True)] * 4
        mean, se = estimate_mean(samples)
        assert (mean, se) == (2.0, 0.0)

    def test_censored_rejected(self):
        samples = [TrajectorySample(np.zeros(1), 0, cost=math.inf, censored=True)]
        with pytest.raises(ConfigError):
            estimate_mean(samples)


class TestCsvDump:
    def test_row_shape(self, tmp_path):
        batch = run_batch(EX1, (np.array([0.4]), 0), 10, seed=1)
        path = tmp_path / "samples.csv"
        write_samples_csv(batch, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample,x0_0,mode0,exited,escaped,censored,cost,switches"
        assert len(lines) == 11


class TestHorizon:
    def test_default_scale(self):
        assert default_horizon(EX1) == pytest.approx(50.0)

    def test_immobile_needs_explicit_cap(self):
        modes = (ModeSpec(VectorField.constant([0.0]), ScalarField.constant(1.0),
                          ScalarField.constant(0.0)),)
        spec = ProblemSpec(dim=1, lo=EX1.lo, hi=EX1.hi, exit_set=ExitSpec("none"),
                           modes=modes, rates=RateMatrix(np.zeros((1, 1))))
        with pytest.raises(ConfigError):
            run_batch(spec, (np.array([0.5]), 0), 3, seed=0)
        batch = run_batch(spec, (np.array([0.5]), 0), 3, seed=0, horizon_cap=1.0)
        assert batch.censored.all()


def brute_force_radii(actions, blocked):
    """Largest power of two whose whole box is unblocked and holds one action, else 0."""
    blocked = np.broadcast_to(blocked, actions.shape)
    extent = np.array(actions.shape[1:])
    out = np.zeros(actions.shape, dtype=int)
    for idx in np.ndindex(actions.shape):
        centre = np.array(idx[1:])
        r = 0
        while True:
            grown = max(1, 2 * r)
            lo, hi = centre - grown, centre + grown + 1
            if np.any(lo < 0) or np.any(hi > extent):
                break
            box = (idx[0],) + tuple(slice(a, b) for a, b in zip(lo, hi))
            if blocked[box].any() or np.any(actions[box] != actions[idx]):
                break
            r = grown
        out[idx] = r
    return out


def patchy_actions(rng, shape, patch):
    """Random actions constant on patches of about ``patch`` entries per axis."""
    coarse = rng.integers(0, 3, size=(shape[0],) + tuple(-(-n // patch) for n in shape[1:]))
    for axis in range(1, len(shape)):
        coarse = np.repeat(coarse, patch, axis=axis)
    return coarse[(slice(None),) + tuple(slice(0, n) for n in shape[1:])]


def run_length_case(name):
    """Problem, grid spacing, start, threshold and horizon cap of one comparison case."""
    if name == "example5-bench":
        return catalog.example5(), (8e-3, 4e-3, 0.8), (np.array([0.4]), 0), 0.38, None
    if name == "example5-above-s-max":
        # the budget starts above the top level, which the lookup clips to
        return catalog.example5(), (8e-3, 4e-3, 0.8), (np.array([0.3]), 1), 0.95, None
    if name == "example5-acceptance":
        return catalog.example5(), (1e-3, 5e-4, 0.8), (np.array([0.4]), 0), 0.38, None
    if name == "example6-16":
        return catalog.example6(16), (5e-2, 1e-2, 0.5), (np.array([0.4, 0.3]), 0), 0.33, None
    # an interior exit box; the domain boundary is an escape
    spec = dataclasses.replace(catalog.example6(16),
                               exit_set=ExitSpec("boxes", boxes=(((0.6, 0.8), (0.4, 0.6)),)))
    return spec, (2.5e-2, 2.5e-2, 2.0), (np.array([0.3, 0.5]), 0), None, 20.0


@pytest.fixture(scope="module")
def run_length_policies():
    cache = {}

    def get(name, kind):
        name = "example5-bench" if name == "example5-above-s-max" else name
        if name not in cache:
            spec, (dx, ds, s_max), _, threshold, _ = run_length_case(name)
            grid = build_grid(spec, dx, ds, s_max)
            hjb = solve_hjb_expectation(spec, grid, tol=1e-8)
            policies = {"hjb": hjb[1]}
            if threshold is not None:
                tv = solve_threshold(spec, grid, hjb=hjb, restrict=solve_min_cost(spec, grid))
                policies["threshold"] = synthesize_policy(tv, spec, grid)
            cache[name] = policies
        return cache[name][kind]

    return get


class TestRunLengthEvents:
    @pytest.mark.parametrize("shape, patch", [((2, 60), 12), ((3, 30, 28), 10), ((2, 20, 22, 20), 10)])
    def test_radii_match_brute_force(self, shape, patch):
        rng = np.random.default_rng(len(shape))
        actions = patchy_actions(rng, shape, patch)
        blocked = np.zeros(shape[1:], dtype=bool)
        blocked.flat[rng.choice(blocked.size, 3, replace=False)] = True
        got = _chessboard_radii(actions, blocked)
        assert got.dtype == np.int16
        assert np.array_equal(got, brute_force_radii(actions, blocked))
        assert got.max() >= 4

    def test_boxes_avoid_edges_exit_boxes_and_end_levels(self, run_length_policies):
        spec = run_length_case("boxes")[0]
        policy = run_length_policies("boxes", "hjb")
        radius, fallback = _constant_action_radii(spec, policy)
        assert radius.shape == policy.actions.shape and fallback.shape == policy.fallback.shape
        nx, ny = policy.shape
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        x, y = policy.lo[0] + ix * policy.dx[0], policy.lo[1] + iy * policy.dx[1]
        r = radius[:, 0].reshape(-1, nx, ny)
        assert r.max() > 0
        # every box stays one cell clear of the domain edge and off the exit box
        wide = r > 0
        assert np.all((ix - r >= 1)[wide]) and np.all((iy - r >= 1)[wide])
        assert np.all((ix + r <= nx - 3)[wide]) and np.all((iy + r <= ny - 3)[wide])
        box_lo_x, box_hi_x = x - r * policy.dx[0], x + (r + 1) * policy.dx[0]
        box_lo_y, box_hi_y = y - r * policy.dx[1], y + (r + 1) * policy.dx[1]
        clear = (box_hi_x < 0.6) | (box_lo_x > 0.8) | (box_hi_y < 0.4) | (box_lo_y > 0.6)
        assert np.all(clear[wide])
        # and, for a level-dependent policy, clear of the first and the last level
        threshold_policy = run_length_policies("example5-bench", "threshold")
        levels = _constant_action_radii(catalog.example5(), threshold_policy)[0]
        level = np.arange(threshold_policy.n_levels)[None, :, None]
        wide = levels > 0
        assert wide.any()
        assert np.all((level - levels >= 1)[wide])
        assert np.all((level + levels <= threshold_policy.n_levels - 2)[wide])

    @pytest.mark.parametrize("name, kind", [
        ("example5-bench", "hjb"), ("example5-bench", "threshold"),
        ("example5-above-s-max", "threshold"),
        ("example5-acceptance", "hjb"), ("example5-acceptance", "threshold"),
        ("example6-16", "hjb"), ("example6-16", "threshold"),
        ("boxes", "hjb"),
    ])
    def test_matches_the_per_cell_reference(self, run_length_policies, name, kind):
        spec, _, start, threshold, cap = run_length_case(name)
        policy = run_length_policies(name, kind)
        threshold = threshold if kind == "threshold" else None
        batch = run_batch(spec, start, 400, seed=17, policy=policy, threshold=threshold,
                          horizon_cap=cap, record=True)
        ref = per_cell_batch(spec, start, 400, 17, policy, threshold=threshold, horizon_cap=cap)
        for key in ("exited", "escaped", "censored", "switch_counts"):
            assert np.array_equal(getattr(batch, key), ref[key]), key
        assert np.array_equal([s.modes[-1] for s in batch.samples], ref["final_mode"])
        finite = np.isfinite(ref["costs"])
        assert np.array_equal(np.isfinite(batch.costs), finite) and finite.any()
        assert np.max(np.abs(batch.costs[finite] - ref["costs"][finite])) <= 1e-12
        # events: at least one per switch plus the last, fewer than one per cell
        assert np.all(batch.events >= batch.switch_counts + 1)
        assert np.all(batch.events <= ref["events"])
        assert batch.events.sum() < ref["events"].sum()

    def test_radii_are_computed_once_per_policy_and_exit_set(self, monkeypatch):
        # three batches on one policy compute each radius array once, and draw
        # the samples of batches that each compute them anew
        spec = catalog.example5()
        grid = build_grid(spec, 8e-3, 4e-3, 0.8)
        tv = solve_threshold(spec, grid, hjb=solve_hjb_expectation(spec, grid),
                             restrict=solve_min_cost(spec, grid))
        calls = []
        chessboard = simulate._chessboard_radii
        monkeypatch.setattr(simulate, "_chessboard_radii",
                            lambda *args: calls.append(args[0].shape) or chessboard(*args))
        policy = synthesize_policy(tv, spec, grid)
        start = (np.array([0.4]), 0)
        cached = [run_batch(spec, start, 300, seed=s, policy=policy, threshold=0.38)
                  for s in (1, 2, 3)]
        assert len(calls) == 2  # the actions and the fallback
        fresh = [run_batch(spec, start, 300, seed=s, policy=synthesize_policy(tv, spec, grid),
                           threshold=0.38) for s in (1, 2, 3)]
        assert len(calls) == 2 + 3 * 2
        for a, b in zip(cached, fresh):
            for key in ("costs", "exited", "escaped", "censored", "switch_counts", "events"):
                assert getattr(a, key).tobytes() == getattr(b, key).tobytes(), key
        # another exit set has its own radii; the policy's arrays and the
        # threshold value's actions they view are read-only
        one_face = dataclasses.replace(spec, exit_set=ExitSpec("faces", faces=("x_min",)))
        run_batch(one_face, start, 10, seed=1, policy=policy, threshold=0.38)
        assert len(calls) == 2 + 3 * 2 + 2 and set(policy.radii) == {spec.exit_set,
                                                                      one_face.exit_set}
        assert np.shares_memory(policy.actions, tv.actions)
        for frozen in (policy.actions, tv.actions):
            with pytest.raises(ValueError):
                frozen[0, 0, 0] = 1
        # a writable array is copied, so later writes to it change nothing
        mine = tv.actions.copy()
        own = synthesize_policy(dataclasses.replace(tv, actions=mine), spec, grid)
        mine[...] = 1 - mine
        assert np.array_equal(own.actions, tv.actions)

    def test_radius_zero_policy_is_the_per_cell_loop(self):
        # actions alternate between neighbouring cells and levels: every radius is 0
        spec = catalog.example5()
        grid = build_grid(spec, 2e-2, 1e-2, 1.0)
        actions = np.add.outer(np.arange(3), np.arange(grid.n_nodes)) % 2
        policy = Policy(spec.controls, np.stack([actions, 1 - actions]), actions[:2, :],
                        grid.lo, grid.dx, grid.shape, grid.ds, provenance="threshold")
        radius, fallback = _constant_action_radii(spec, policy)
        assert not radius.any() and not fallback.any()
        start = (np.array([0.4]), 1)
        batch = run_batch(spec, start, 300, seed=3, policy=policy, threshold=0.02)
        ref = per_cell_batch(spec, start, 300, 3, policy, threshold=0.02)
        for key in ("costs", "exited", "escaped", "censored", "switch_counts", "events"):
            assert np.array_equal(getattr(batch, key), ref[key]), key

    def test_roundoff_steps_do_not_cycle_at_a_cell_corner(self, monkeypatch):
        # four policy cells meet at (0.65, 0.45): sample 2 reached it and took
        # face steps of 0, 2.7e-16, 0, 0 in a cycle, and the roundoff-sized one
        # cleared the ping-pong and stuck guards until the event budget ran out
        monkeypatch.setattr(simulate, "_MAX_EVENTS", 20_000)
        modes = tuple(ModeSpec(VectorField.control_offset(v), ScalarField.constant(1.0),
                               ScalarField.constant(0.0)) for v in ((0.3, 0.0), (-0.3, 0.2)))
        spec = ProblemSpec(dim=2, lo=np.zeros(2), hi=np.ones(2),
                           exit_set=ExitSpec("boxes", boxes=(((0.6, 0.8), (0.2, 0.4)),)),
                           modes=modes, rates=RateMatrix([[0.0, 1.0], [1.0, 0.0]]),
                           controls=ControlSet.unit_circle(8))
        policy = solve_hjb_expectation(spec, build_grid(spec, 0.05, 0.05, 1.0))[1]
        batch = run_batch(spec, (np.array([0.2, 0.7]), 0), 300, seed=20, policy=policy,
                          horizon_cap=4.0)
        assert batch.events.max() <= 100
        assert batch.exited.sum() + batch.censored.sum() == 300

    def test_uncontrolled_events_are_switches_plus_one(self):
        for spec, start in ((EX1, (np.array([0.4]), 0)), (catalog.example3(), (np.array([0.5, 0.5]), 2))):
            batch = run_batch(spec, start, 500, seed=4)
            assert np.array_equal(batch.events, batch.switch_counts + 1)


def test_only_run_batch_draws_events():
    # one loop consumes the randomness contract, whatever the motion
    callers = set()
    for path in sorted(Path(pdmp_cdf.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "_event_draws" for node in ast.walk(top)):
                callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("simulate.py", "run_batch")}


def test_only_the_model_reads_a_velocity_vector():
    # one velocity rule, VectorField.at: no other module applies f = a + offset itself
    readers = set()
    for path in sorted(Path(pdmp_cdf.__file__).parent.glob("*.py")):
        if any(isinstance(node, ast.Attribute) and node.attr == "vector"
               for node in ast.walk(ast.parse(path.read_text()))):
            readers.add(path.name)
    assert readers == {"model.py"}


class TestMixedVelocityKinds:
    """A constant mode beside a control-offset mode: the action moves the second only."""

    SPEC = ProblemSpec(
        dim=1, lo=np.array([0.0]), hi=np.array([1.0]),
        exit_set=ExitSpec("faces", faces=("x_max",)),
        modes=(ModeSpec(VectorField.constant([0.5]), ScalarField.constant(1.0),
                        ScalarField.constant(0.0)),
               ModeSpec(VectorField.control_offset([0.0]), ScalarField.constant(1.0),
                        ScalarField.constant(0.0))),
        rates=RateMatrix([[0.0, 1.0], [1.0, 0.0]]), controls=ControlSet.from_list([[-1.0], [1.0]]))
    START = (np.array([0.5]), 0)

    @pytest.fixture(scope="class")
    def solved(self):
        grid = build_grid(self.SPEC, 0.01, 0.005, 2.5)
        value, policy = solve_hjb_expectation(self.SPEC, grid)
        batch = run_batch(self.SPEC, self.START, 20000, seed=3, policy=policy)
        return grid, value, policy, batch

    def test_samples_match_the_policy_cdf(self, solved):
        grid, _, policy, batch = solved
        field = evaluate_policy_cdf(policy, self.SPEC, grid)
        ecdf = empirical_cdf(batch)
        # the grid smears the no-switch atom at s = 1 (0.79 against 1.0), so
        # the thresholds stay away from it
        for s in (0.6, 0.7, 0.8, 1.5, 2.0):
            assert abs(ecdf(s) - field.evaluate(0, self.START[0], s)) <= ecdf.dkw_epsilon() + 0.03

    def test_mean_cost_matches_the_expected_cost(self, solved):
        _, value, _, batch = solved
        assert batch.exited.all()
        mean, se = estimate_mean(batch)
        assert abs(mean - value.evaluate(0, self.START[0])) <= 3 * se + 0.002

    def test_control_offset_without_a_policy_rejected(self):
        with pytest.raises(ConfigError, match="control-offset velocity needs an action"):
            run_batch(self.SPEC, self.START, 10, seed=0)
