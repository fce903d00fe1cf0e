import dataclasses
import logging
import re

import numpy as np
import pytest

from pdmp_cdf import build_grid, catalog
from pdmp_cdf.cdf_solver import exit_costs, solve_cdf, solve_min_cost
from pdmp_cdf.control import (
    ActionStacks,
    Policy,
    evaluate_policy_cdf,
    load_policy,
    policy_iteration,
    prolong,
    save_policy,
    solve_hjb_expectation,
    solve_threshold,
    synthesize_policy,
)
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
from reference_solvers import action_values, howard_every_pass, value_iteration


@pytest.fixture(scope="module")
def ex5():
    spec = catalog.example5()
    grid = build_grid(spec, 2e-3, 1e-3, 1.0)
    hjb = solve_hjb_expectation(spec, grid, tol=1e-9)
    mc = solve_min_cost(spec, grid)
    tv = solve_threshold(spec, grid, hjb=hjb, restrict=mc)
    return spec, grid, hjb, mc, tv


def singleton_control_sailboat():
    """The plain sailboat expressed as a controlled problem with one action."""
    modes = tuple(
        ModeSpec(VectorField.control_offset([off]), ScalarField.constant(1.0),
                 ScalarField.constant(0.0))
        for off in (1.0, -1.0)
    )
    return ProblemSpec(
        dim=1, lo=np.array([0.0]), hi=np.array([1.0]), exit_set=ExitSpec("boundary"),
        modes=modes, rates=RateMatrix.uniform(2, 2.0),
        controls=ControlSet.from_list([[0.0]]))


class TestExpectationOptimal:
    def test_deterministic_min_time(self):
        # one mode, free direction choice, no switching: u = distance to exit
        spec = ProblemSpec(
            dim=1, lo=np.array([0.0]), hi=np.array([1.0]), exit_set=ExitSpec("boundary"),
            modes=(ModeSpec(VectorField.control_offset([0.0]), ScalarField.constant(1.0),
                            ScalarField.constant(0.0)),),
            rates=RateMatrix(np.zeros((1, 1))),
            controls=ControlSet.from_list([[-1.0], [1.0]]))
        grid = build_grid(spec, 0.02, 0.02, 1.0)
        value, policy = solve_hjb_expectation(spec, grid, tol=1e-10)
        x = grid.points[:, 0]
        assert np.abs(value.u[0] - np.minimum(x, 1 - x)).max() < 1e-8
        left = x < 0.5 - 1e-9
        right = x > 0.5 + 1e-9
        assert np.all(policy.actions[0, 0, left] == 0)
        assert np.all(policy.actions[0, 0, right] == 1)

    def test_failed_lu_is_reported_and_recovered(self, caplog):
        # staying put ties with moving on the first pass and wins by index,
        # so the first frozen policy never exits and its LU is singular
        spec = ProblemSpec(
            dim=1, lo=np.array([0.0]), hi=np.array([1.0]), exit_set=ExitSpec("boundary"),
            modes=(ModeSpec(VectorField.control_offset([0.0]), ScalarField.constant(1.0),
                            ScalarField.constant(0.0)),),
            rates=RateMatrix(np.zeros((1, 1))),
            controls=ControlSet.from_list([[0.0], [-1.0], [1.0]]))
        grid = build_grid(spec, 0.1, 0.1, 1.0)
        with caplog.at_level(logging.WARNING, logger="pdmp_cdf"):
            value, _ = solve_hjb_expectation(spec, grid, tol=1e-10)
        warnings = [r for r in caplog.records if r.name.startswith("pdmp_cdf")]
        assert warnings and all(r.levelno == logging.WARNING for r in warnings)
        assert "LU" in warnings[0].getMessage()
        x = grid.points[:, 0]
        assert np.abs(value.u[0] - np.minimum(x, 1 - x)).max() < 1e-8

    def test_boundary_values(self, ex5):
        spec, grid, (value, policy), mc, tv = ex5
        assert np.all(value.u[:, grid.exit_mask] == 0.0)

    def test_switch_point_against_bisection_oracle(self, ex5):
        spec, grid, (value, policy), mc, tv = ex5
        tau = grid.dx[0] / 1.5

        def action_value(x, i, a):
            step_val = 0.0
            probs = np.eye(2) + tau * spec.rates.matrix
            for j in range(2):
                foot = x + tau * (a + (0.5 if i == 0 else -0.5))
                if foot <= 0.0 or foot >= 1.0:
                    val = 0.0
                else:
                    val = float(grid.interp_nodes(value.u[j], np.array([[foot]]))[0])
                step_val += probs[i, j] * val
            return tau + step_val

        for i in range(2):
            a_row = policy.actions[i, 0]
            interior = np.where(~grid.exit_mask)[0]
            flips = interior[np.where(np.diff(a_row[interior].astype(int)) != 0)[0]]
            main_flip = flips[0]
            lo, hi = grid.points[main_flip, 0] - 5 * grid.dx[0], grid.points[main_flip, 0] + 5 * grid.dx[0]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if action_value(mid, i, -1.0) <= action_value(mid, i, 1.0):
                    lo = mid
                else:
                    hi = mid
            assert abs(grid.points[main_flip, 0] - 0.5 * (lo + hi)) <= 2 * grid.dx[0]

    def test_policy_iteration_matches_value_iteration(self):
        spec = catalog.example5()
        grid = build_grid(spec, 0.01, 0.005, 1.0)
        u_pi, _ = solve_hjb_expectation(spec, grid, tol=1e-10)
        assert np.abs(value_iteration(spec, grid) - u_pi.u).max() < 1e-8

    def test_prolongation_refines(self):
        spec = catalog.example5()
        coarse = build_grid(spec, 0.02, 0.01, 1.0)
        fine = build_grid(spec, 0.01, 0.005, 1.0)
        u_c, _ = solve_hjb_expectation(spec, coarse, tol=1e-9)
        warm = prolong(u_c.u, coarse, fine)
        u_f, _ = solve_hjb_expectation(spec, fine, tol=1e-9, initial=warm)
        u_ref, _ = solve_hjb_expectation(spec, fine, tol=1e-9)
        assert np.abs(u_f.u - u_ref.u).max() < 1e-7


def on_grid(spec, dx, ds, s_max, tol=1e-8):
    return spec, build_grid(spec, dx, ds, s_max), tol


def stay_or_move():
    """One mode moving left, right or not at all; the cold-start policy stays put."""
    spec = ProblemSpec(
        dim=1, lo=np.array([0.0]), hi=np.array([1.0]), exit_set=ExitSpec("boundary"),
        modes=(ModeSpec(VectorField.control_offset([0.0]), ScalarField.constant(1.0),
                        ScalarField.constant(0.0)),),
        rates=RateMatrix(np.zeros((1, 1))),
        controls=ControlSet.from_list([[0.0], [-1.0], [1.0]]))
    return on_grid(spec, 0.1, 0.1, 1.0, tol=1e-10)


POLICY_CASES = {
    "example5": lambda: on_grid(catalog.example5(), 8e-3, 4e-3, 1.0),
    "example6": lambda: on_grid(catalog.example6(16), 5e-2, 5e-2, 0.5),
    "failed_lu": stay_or_move,
}


def hjb_stacks(spec, grid):
    return ActionStacks.of(spec, grid, grid.dx.min() / spec.max_speed())


def solve_report(caplog) -> dict:
    """Counts of the one DEBUG record that a policy-iteration solve logs."""
    texts = [r.getMessage() for r in caplog.records
             if r.levelno == logging.DEBUG and r.getMessage().startswith("policy iteration:")]
    assert len(texts) == 1
    found = re.fullmatch(r"policy iteration: (\d+) exact solves, (\d+) Bellman steps, "
                         r"(\d+) LU fallbacks, residual (\S+)", texts[0])
    assert found, texts[0]
    solves, steps, fallbacks, residual = found.groups()
    return {"solves": int(solves), "steps": int(steps), "fallbacks": int(fallbacks),
            "residual": float(residual)}


class TestPolicyIteration:
    @pytest.mark.parametrize("case", sorted(POLICY_CASES))
    def test_matches_howard_with_an_lu_every_pass(self, case):
        spec, grid, tol = POLICY_CASES[case]()
        stacks = hjb_stacks(spec, grid)
        u_ref, a_ref = howard_every_pass(spec, grid, stacks.stacks, tol=tol)
        u, actions = policy_iteration(spec, grid, stacks, None, tol, 1000)
        assert np.abs(u - u_ref).max() <= 1e-12
        # actions may differ only where both are minimizers at the reference u
        for i, vals in enumerate(action_values(stacks.stacks, u_ref)):
            nodes = np.nonzero(actions[i] != a_ref[i])[0]
            gap = np.abs(vals[actions[i, nodes], nodes] - vals[a_ref[i, nodes], nodes])
            assert np.all(gap < 1e-12)

    def test_reports_a_failed_lu(self, caplog):
        spec, grid, tol = stay_or_move()
        with caplog.at_level(logging.DEBUG, logger="pdmp_cdf"):
            solve_hjb_expectation(spec, grid, tol=tol)
        report = solve_report(caplog)
        assert report["fallbacks"] == 1
        assert report["residual"] < tol

    def test_solves_exactly_once_the_policy_settles(self, caplog):
        spec, grid, tol = POLICY_CASES["example5"]()
        with caplog.at_level(logging.DEBUG, logger="pdmp_cdf"):
            solve_hjb_expectation(spec, grid, tol=tol)
        report = solve_report(caplog)
        # an LU on every pass takes 82 here
        assert 1 <= report["solves"] <= 10
        assert report["steps"] > report["solves"]
        assert report["fallbacks"] == 0 and report["residual"] < tol

    def test_fine_example5_converges_within_the_default_cap(self):
        # an LU on every pass needs more than the default 1000 here
        spec = catalog.example5()
        grid = build_grid(spec, 5e-4, 2.5e-4, 0.8)
        value, _ = solve_hjb_expectation(spec, grid)
        assert np.all(np.isfinite(value.u))
        assert np.all(value.u[:, grid.exit_mask] == 0.0)


class TestThresholdValue:
    def test_zero_exactly_below_minimal_cost(self, ex5):
        spec, grid, hjb, mc, tv = ex5
        x = grid.points[:, 0]
        assert np.abs(mc.s0 - np.minimum(x, 1 - x) / 1.5).max() < 1e-12
        below = grid.s_levels[None, :] < mc.s0[:, None] - 1e-12
        for i in range(2):
            assert np.all(tv.w.values[i].T[below] == 0.0)

    def test_monotone_bounded(self, ex5):
        spec, grid, hjb, mc, tv = ex5
        assert tv.w.values.min() >= 0.0
        assert tv.w.values.max() <= 1.0 + 1e-12
        assert np.all(np.diff(tv.w.values, axis=1) >= -1e-12)

    def test_guaranteed_region_reaches_one(self, ex5):
        # leftward progress of at least 1/2 is available in every mode, so
        # success is certain once s exceeds twice the distance to an exit
        spec, grid, hjb, mc, tv = ex5
        x = grid.points[:, 0]
        deep = grid.s_levels[None, :] >= 2 * np.minimum(x, 1 - x)[:, None] + 0.1
        for i in range(2):
            assert tv.w.values[i].T[deep].min() > 0.995

    def test_hopeless_region_uses_expectation_actions(self, ex5):
        spec, grid, (value, policy), mc, tv = ex5
        hopeless = grid.s_levels[None, :] < mc.s0[:, None] - 5 * grid.ds
        for i in range(2):
            acts = tv.actions[i].T
            assert not np.any((acts != policy.actions[i, 0][:, None]) & hopeless)

    def test_seeded_levels_keep_the_expectation_law(self, ex5):
        # up to and including the first attainable level, which the restricted
        # sweep seeds, V and the actions are the expectation-optimal ones
        spec, grid, (value, policy), mc, tv = ex5
        seeded = (np.arange(grid.n_levels)[:, None] <= mc.first_level()) & ~grid.exit_mask
        for i in range(2):
            assert np.array_equal(tv.actions[i][seeded],
                                  np.broadcast_to(tv.a_star[i], seeded.shape)[seeded])
            assert np.array_equal(tv.v[i][seeded], np.broadcast_to(value.u[i], seeded.shape)[seeded])

    def test_singleton_control_reduces_to_plain_cdf(self):
        controlled = singleton_control_sailboat()
        grid = build_grid(controlled, 5e-3, 5e-3, 1.0)
        tv = solve_threshold(controlled, grid)
        plain = solve_cdf(catalog.example1(), grid)
        assert np.abs(tv.w.values - plain.values).max() <= 1e-12

    def test_no_switching_degenerates_to_reachability(self):
        # the sharp reachability indicator appears behind an O(dx) interface
        spec = dataclasses.replace(catalog.example5(), rates=RateMatrix(np.zeros((2, 2))))
        grid = build_grid(spec, 5e-3, 2.5e-3, 1.0)
        tv = solve_threshold(spec, grid)
        x = grid.points[:, 0]
        # mode 1 reaches the right end at speed 3/2 and the left at 1/2;
        # skip the thin boundary strips where the interface tail dominates
        time_needed = np.minimum((1 - x) / 1.5, x / 0.5)
        strip = (x >= 0.1) & (x <= 0.9)
        above = (grid.s_levels[None, :] >= time_needed[:, None] + 0.15) & strip[:, None]
        below = (grid.s_levels[None, :] <= 0.25 * time_needed[:, None]) & strip[:, None]
        w1 = tv.w.values[0].T
        assert w1[above].min() > 0.99
        assert w1[below].max() < 1e-12
        # the half-level of the smeared interface tracks the exact time
        k = round(0.3 / grid.dx[0])
        crossing = grid.s_levels[np.searchsorted(tv.w.values[0, :, k], 0.5)]
        assert abs(crossing - time_needed[k]) < 0.02

    def test_surely_successful_region_splits_by_direction(self, ex5):
        spec, grid, hjb, mc, tv = ex5
        x = grid.points[:, 0]
        pol = synthesize_policy(tv, spec, grid)
        deep = 2 * np.minimum(x, 1 - x) + 0.1
        for i in range(2):
            for xq, expect in ((0.25, 0), (0.75, 1)):
                k = round(xq / grid.dx[0])
                n = round((deep[k] + 0.2) / grid.ds)
                assert tv.actions[i, n, k] == expect

    def test_rescaled_costs_leave_actions_unchanged(self):
        spec = catalog.example5()
        grid = build_grid(spec, 0.01, 0.005, 0.5)
        tv = solve_threshold(spec, grid)
        scaled_modes = tuple(
            ModeSpec(m.dynamics, ScalarField.constant(2.0), m.exit_cost) for m in spec.modes)
        spec2 = dataclasses.replace(spec, modes=scaled_modes)
        grid2 = build_grid(spec2, 0.01, 0.01, 1.0)
        tv2 = solve_threshold(spec2, grid2)
        assert np.array_equal(tv.actions, tv2.actions)
        assert np.abs(tv.w.values - tv2.w.values).max() <= 1e-12


class TestPolicyEvaluation:
    def test_threshold_value_dominates_lifted_expectation_policy(self, ex5):
        spec, grid, (value, policy), mc, tv = ex5
        field = evaluate_policy_cdf(policy, spec, grid)
        tv_plain = solve_threshold(spec, grid, hjb=(value, policy))
        assert (field.values - tv_plain.w.values).max() <= 1e-12

    def test_comparison_at_published_point(self, ex5):
        spec, grid, (value, policy), mc, tv = ex5
        field = evaluate_policy_cdf(policy, spec, grid)
        k = round(0.4 / grid.dx[0])
        n = round(0.38 / grid.ds)
        assert tv.w.values[0, n, k] > field.values[0, n, k] + 0.05

    def test_constant_direction_deterministic_unit_step(self):
        # the exact law is a unit step at (1 - x) / (3/2); the scheme renders
        # it as an O(dx)-wide interface crossing one half at the right spot
        spec = dataclasses.replace(catalog.example5(), rates=RateMatrix(np.zeros((2, 2))))
        grid = build_grid(spec, 0.01, 0.005, 1.0)
        n_nodes = grid.n_nodes
        actions = np.ones((2, 1, n_nodes), dtype=np.int16)  # always +1
        pol = Policy(spec.controls, actions, actions[:, 0], grid.lo, grid.dx,
                     grid.shape, grid.ds, provenance="expectation")
        field = evaluate_policy_cdf(pol, spec, grid)
        k = round(0.4 / grid.dx[0])
        exit_time = (1 - 0.4) / 1.5
        curve = field.values[0, :, k]
        crossing = grid.s_levels[np.searchsorted(curve, 0.5)]
        assert abs(crossing - exit_time) < 0.02
        assert curve[round(0.25 / grid.ds)] == 0.0
        assert curve[round((exit_time + 0.1) / grid.ds)] > 0.999

    def test_level_dependent_policy_rejected(self, ex5):
        spec, grid, hjb, mc, tv = ex5
        pol = synthesize_policy(tv, spec, grid)
        with pytest.raises(ConfigError):
            evaluate_policy_cdf(pol, spec, grid)


class TestPolicyFile:
    def test_round_trip(self, ex5, tmp_path):
        spec, grid, hjb, mc, tv = ex5
        pol = synthesize_policy(tv, spec, grid)
        path = tmp_path / "p.bin"
        save_policy(pol, str(path))
        back = load_policy(str(path))
        assert np.array_equal(back.actions, pol.actions)
        assert np.array_equal(back.fallback, pol.fallback)
        assert back.shape == pol.shape
        assert back.ds == pol.ds
        assert np.allclose(back.control_set.vectors, pol.control_set.vectors)
        assert back.provenance == "threshold"

    def test_lookup_semantics(self, ex5):
        spec, grid, hjb, mc, tv = ex5
        pol = synthesize_policy(tv, spec, grid)
        # off-grid query takes the containing cell's lower corner
        k = 101
        x_node = grid.points[k, 0]
        a_node = pol.action_index(0, [x_node + 0.4 * grid.dx[0]], s_remaining=0.5)
        n = round(0.5 / grid.ds)
        assert a_node == tv.actions[0, n, k]
        # spent budget falls back to the expectation-optimal action
        a_fb = pol.action_index(0, [x_node], s_remaining=-0.01)
        assert a_fb == pol.fallback[0, k]

    def test_lookup_of_one_level_needs_no_budget(self):
        # a level-independent policy reads its one level whatever the budget;
        # a level-dependent one needs the budget
        cs = ControlSet.from_list([[-1.0], [1.0]])
        actions = np.array([[[0, 1, 1]]])
        pol = Policy(cs, actions, actions[:, 0], [0.0], [0.5], (3,), 0.1, "expectation")
        assert [pol.action_index(0, [x]) for x in (0.1, 0.6, 1.0)] == [0, 1, 1]
        assert pol.action_index(0, [0.1], s_remaining=-1.0) == 0
        levels = Policy(cs, np.zeros((1, 2, 3)), np.zeros((1, 3)), [0.0], [0.5], (3,), 0.1,
                        "threshold")
        with pytest.raises(ConfigError, match="needs the remaining budget"):
            levels.action_index(0, [0.3])


def tabulated_costs(spec, grid, seed):
    """``spec`` with every mode's running and exit cost drawn per node, uniformly."""
    rng = np.random.default_rng(seed)
    return dataclasses.replace(spec, modes=tuple(dataclasses.replace(
        ms, cost=ScalarField("tabulated", values=rng.uniform(0.5, 1.5, grid.n_nodes)),
        exit_cost=ScalarField("tabulated", values=rng.uniform(0.0, 0.5, grid.n_nodes)))
        for ms in spec.modes))


class TestOneValuePerNode:
    """Every solve reads a tabulated field at the nodes as ``ScalarField.node_values``."""

    def test_exit_values_are_the_exit_table(self):
        # stored and interpolated node values differ in the last bits here at
        # 43 of the 320 exit entries
        spec = catalog.example6(4)
        grid = build_grid(spec, 0.05, 0.05, 0.5)
        spec = tabulated_costs(spec, grid, 30)
        q = exit_costs(spec, grid).tobytes()
        hjb = solve_hjb_expectation(spec, grid)
        assert hjb[0].u[:, grid.exit_mask].tobytes() == q
        tv = solve_threshold(spec, grid, hjb=hjb)
        for n in range(grid.n_levels):
            assert tv.v[:, n][:, grid.exit_mask].tobytes() == q, n

    def test_threshold_and_cdf_sweeps_take_one_default_tau(self):
        # the least running cost sits at x = 0.15, which the node read takes
        # from the cell below, a hair above 1.0
        spec = catalog.example5()
        grid = build_grid(spec, 0.05, 0.05, 1.0)
        rate = ScalarField("tabulated", values=np.where(np.arange(grid.n_nodes) == 3, 1.0, 2.0))
        spec = dataclasses.replace(spec, modes=tuple(dataclasses.replace(ms, cost=rate)
                                                     for ms in spec.modes))
        actions = np.broadcast_to(spec.controls.vectors[1], (2, grid.n_nodes, 1))
        assert solve_threshold(spec, grid).tau == solve_cdf(spec, grid, actions=actions).tau
