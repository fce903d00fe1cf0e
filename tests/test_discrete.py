import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmp_cdf.discrete import (
    UNREACHABLE,
    RoutedGraph,
    brute_force_cdf,
    solve_cdf,
    solve_min_cost,
)
from pdmp_cdf.errors import NumericsError
from reference_discrete import (
    SingularSystemError,
    bellman_ford_min_cost,
    reference_graph_cdf,
    solve_deterministic_cost,
    solve_expected_cost,
)


def line_graph(n=6, p=None, q_exit=0.0):
    """Two opposite routes on a line with exits at both ends."""
    succ = np.array([
        [min(k + 1, n - 1) for k in range(n)],
        [max(k - 1, 0) for k in range(n)],
    ])
    costs = np.ones((2, n))
    q = np.full((2, n), q_exit)
    ex = np.zeros(n, dtype=bool)
    ex[0] = ex[-1] = True
    if p is None:
        p = np.full((2, 2), 0.5)
    return RoutedGraph(succ, costs, q, ex, np.asarray(p, dtype=float))


def random_graph(rng, n_max=12, m_max=3):
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    succ = rng.integers(0, n, size=(m, n))
    costs = rng.integers(1, 4, size=(m, n)).astype(float)
    q = rng.integers(0, 3, size=(m, n)).astype(float)
    ex = np.zeros(n, dtype=bool)
    ex[rng.choice(n, size=max(1, n // 4), replace=False)] = True
    p = rng.random((m, m)) + 0.05
    p /= p.sum(axis=1, keepdims=True)
    return RoutedGraph(succ, costs, q, ex, p)


def fractional_graph(rng, n_max=30, m_max=4):
    """Fractional step and exit costs, and some switch probabilities exactly zero."""
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    succ = rng.integers(0, n, size=(m, n))
    costs = rng.random((m, n)) * 3.0 + 0.01
    q = np.where(rng.random((m, n)) < 0.3, 0.0, rng.random((m, n)) * 2.0)
    ex = np.zeros(n, dtype=bool)
    ex[rng.choice(n, size=max(1, n // 4), replace=False)] = True
    p = np.where(rng.random((m, m)) < 0.35, 0.0, rng.random((m, m)) + 0.05)
    p[np.arange(m), rng.integers(0, m, m)] += 0.1  # every row keeps a positive entry
    p /= p.sum(axis=1, keepdims=True)
    return RoutedGraph(succ, costs, q, ex, p)


class TestDeterministicCost:
    def test_step_counting(self):
        g = line_graph()
        j = solve_deterministic_cost(g, 0)
        assert j[1] == 4.0  # four rightward steps to the far exit
        assert j[4] == 1.0

    def test_exit_cost_returned_on_exit_nodes(self):
        g = line_graph(q_exit=3.0)
        j = solve_deterministic_cost(g, 0)
        assert j[0] == 3.0 and j[-1] == 3.0

    def test_cycle_gets_unreachable_sentinel(self):
        succ = np.array([[1, 0, 2]])
        costs = np.ones((1, 3))
        q = np.zeros((1, 3))
        ex = np.array([False, False, True])
        g = RoutedGraph(succ, costs, q, ex, np.eye(1))
        j = solve_deterministic_cost(g, 0)
        assert j[0] == UNREACHABLE and j[1] == UNREACHABLE
        assert j[2] == 0.0


class TestExpectedCost:
    def test_no_switching_reduces_to_deterministic(self):
        g = line_graph(p=np.eye(2))
        u = solve_expected_cost(g)
        for i in range(2):
            assert np.allclose(u[i], solve_deterministic_cost(g, i), atol=1e-12)

    def test_against_value_iteration_oracle(self):
        g = line_graph()
        u = solve_expected_cost(g)
        # independent oracle: iterate the defining recursion to a fixed point
        v = np.zeros((2, g.n_nodes))
        v[:, g.exit_mask] = g.exit_costs[:, g.exit_mask]
        for _ in range(20000):
            nxt = v.copy()
            for i in range(2):
                for k in range(g.n_nodes):
                    if g.exit_mask[k]:
                        continue
                    y = g.successors[i, k]
                    nxt[i, k] = g.step_costs[i, k] + g.switch_probs[i] @ v[:, y]
            if np.abs(nxt - v).max() < 1e-13:
                break
            v = nxt
        assert np.allclose(u, v, atol=1e-10)

    def test_boundary_values_exact(self):
        g = line_graph(q_exit=2.5)
        u = solve_expected_cost(g)
        assert np.all(u[:, g.exit_mask] == 2.5)

    def test_never_exiting_system_reported(self):
        succ = np.array([[1, 0, 2]])
        costs = np.ones((1, 3))
        ex = np.array([False, False, True])
        g = RoutedGraph(succ, costs, np.zeros((1, 3)), ex, np.eye(1))
        with pytest.raises(SingularSystemError):
            solve_expected_cost(g)


class TestDiscreteCdf:
    def test_immediate_exit(self):
        g = line_graph()
        w = solve_cdf(g, s_max=6.0, ds=1.0)
        for n, s in enumerate(w.s_levels):
            expected = 1.0 if s >= 1.0 else 0.0
            assert w.values[0, n, 4] == expected

    def test_three_step_return_path(self):
        # step left, switch to the rightward route, two steps right
        g = line_graph()
        w = solve_cdf(g, s_max=6.0, ds=1.0)
        assert w.values[1, 3, 4] == pytest.approx(0.25, abs=1e-15)

    def test_zero_below_minimal_cost(self):
        g = line_graph()
        w = solve_cdf(g, s_max=6.0, ds=1.0)
        s0, _ = solve_min_cost(g)
        for i in range(2):
            for k in range(g.n_nodes):
                below = w.s_levels < s0[i, k] - 1e-12
                assert np.all(w.values[i, below, k] == 0.0)

    def test_matches_brute_force(self):
        g = line_graph()
        w = solve_cdf(g, s_max=6.0, ds=1.0)
        bf, leftover = brute_force_cdf(g, s_max=6.0, depth_max=60, ds=1.0)
        assert np.abs(w.values - bf.values).max() <= 1e-12
        assert leftover <= 1e-12

    def test_fractional_costs_interpolate(self):
        g = line_graph(p=np.eye(2))
        frac = RoutedGraph(g.successors, np.full((2, 6), 1.5), g.exit_costs,
                           g.exit_mask, g.switch_probs)
        w = solve_cdf(frac, s_max=6.0, ds=1.0)
        assert np.all(np.diff(w.values, axis=1) >= -1e-15)
        # one step costs 1.5: sharp in the exact-threshold direction
        assert w.values[0, 1, 4] == 0.0
        assert w.values[0, 2, 4] == 1.0
        # two steps cost 3.0, read through a half-level interpolation
        assert w.values[0, 3, 3] == pytest.approx(0.5, abs=1e-12)
        assert w.values[0, 4, 3] == 1.0

    def test_subthreshold_step_cost_rejected(self):
        g = line_graph()
        small = RoutedGraph(g.successors, np.full((2, 6), 0.25), g.exit_costs,
                            g.exit_mask, g.switch_probs)
        with pytest.raises(NumericsError):
            solve_cdf(small, s_max=2.0, ds=1.0)


@st.composite
def swept_graphs(draw):
    """A small routed graph with a threshold spacing its step costs allow, and an s_max.

    Step costs are whole numbers, whole multiples of ``ds`` or fractional,
    exit costs 0 or above, and some switch probabilities exactly 0.
    """
    ds = draw(st.sampled_from([1.0, 0.5, 0.1, 0.01]))
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 8))

    def table(elements):
        return np.array(draw(st.lists(st.lists(elements, min_size=n, max_size=n),
                                      min_size=m, max_size=m)), dtype=float)

    succ = table(st.integers(0, n - 1)).astype(int)
    costs = table(st.one_of(st.integers(1, 4).map(float), st.integers(1, 4).map(lambda k: k * ds),
                            st.floats(ds, 4.0)))
    q = table(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    exits = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    p = np.array(draw(st.lists(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                                        min_size=m, max_size=m), min_size=m, max_size=m)))
    p[np.arange(m), draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))] += 0.1
    p /= p.sum(axis=1, keepdims=True)
    s_max = draw(st.sampled_from([0.0, 2.5, 4.0]))
    return RoutedGraph(succ, costs, q, exits, p), s_max, ds


class TestSameAnswersAsTheLevelLoop:
    """``solve_cdf`` runs through ``cdf_solver._sweep``; ``reference_graph_cdf`` is its own level loop."""

    @settings(max_examples=80, deadline=None)
    @given(swept_graphs())
    # node 1 steps to the exit at cost 1.5: shift 2 with weight 0.5 on the level above.  At
    # level 1 a whole shift lies below level 0 and reads zero, although its upper level, 0,
    # already reads 1 at the exit; integer costs never meet this case.
    @example((RoutedGraph([[0, 0]], [[1.0, 1.5]], [[0.0, 0.0]], [True, False], [[1.0]]), 3.0, 1.0))
    # node 1 costs just under ds: shift 1 with a small weight on the level above, which is
    # the level being swept, so that read stays one level down; node 2 makes the depth 2
    @example((RoutedGraph([[0, 0, 0]], [[1.0, 0.01 - 5e-13, 0.02]], [[0.0] * 3],
                          [True, False, False], [[1.0]]), 0.05, 0.01))
    def test_bit_identical_to_the_reference_loop(self, case):
        g, s_max, ds = case
        assert solve_cdf(g, s_max, ds).values.tobytes() == reference_graph_cdf(g, s_max, ds).tobytes()


class TestMinCost:
    def test_boundary_and_no_switch_degenerate(self):
        g = line_graph(p=np.eye(2))
        s0, w0 = solve_min_cost(g)
        for i in range(2):
            assert np.allclose(s0[i], solve_deterministic_cost(g, i), atol=1e-12)
        assert np.all(w0[np.isfinite(s0)] == 1.0)

    def test_exit_nodes(self):
        g = line_graph(q_exit=1.5)
        s0, w0 = solve_min_cost(g)
        assert np.all(s0[:, g.exit_mask] == 1.5)
        assert np.all(w0[:, g.exit_mask] == 1.0)

    def test_agrees_with_bellman_ford(self):
        g = line_graph()
        s0, w0 = solve_min_cost(g)
        s0b, w0b = bellman_ford_min_cost(g)
        assert np.array_equal(s0, s0b)
        assert np.allclose(w0, w0b, atol=1e-15)

    def test_long_single_route_chain(self):
        # every node steps once toward node 0: s0 counts the steps, w0 is 1
        n = 5000
        succ = np.maximum(np.arange(n) - 1, 0)[None, :]
        ex = np.zeros(n, dtype=bool)
        ex[0] = True
        g = RoutedGraph(succ, np.ones((1, n)), np.zeros((1, n)), ex, np.eye(1))
        s0, w0 = solve_min_cost(g)
        assert np.array_equal(s0[0], np.arange(n, dtype=float))
        assert np.all(w0 == 1.0)

    def test_first_positive_level_of_brute_force(self):
        g = line_graph()
        s0, w0 = solve_min_cost(g)
        bf, _ = brute_force_cdf(g, s_max=10.0, depth_max=60, ds=1.0)
        for i in range(2):
            for k in range(g.n_nodes):
                positive = np.where(bf.values[i, :, k] > 0)[0]
                assert bf.s_levels[positive[0]] == s0[i, k]
                assert bf.values[i, positive[0], k] == pytest.approx(w0[i, k], abs=1e-12)


class TestBruteForce:
    def test_single_route_is_unit_step(self):
        g = line_graph(p=np.eye(2))
        bf, _ = brute_force_cdf(g, s_max=8.0, depth_max=20, ds=1.0)
        j = solve_deterministic_cost(g, 0)
        for k in range(g.n_nodes):
            expected = (bf.s_levels >= j[k]) if math.isfinite(j[k]) else np.zeros(9, bool)
            assert np.array_equal(bf.values[0, :, k], expected.astype(float))

    def test_forced_alternation(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = line_graph(p=p)
        bf, _ = brute_force_cdf(g, s_max=10.0, depth_max=40, ds=1.0)
        # from node 2 on route 0: right, left, right, ... never reaches an exit
        # from node 4 on route 0: one step right exits immediately
        assert np.all(bf.values[0, :, 2] == 0.0)
        assert bf.values[0, 1, 4] == 1.0

    def test_truncation_flagged(self):
        # strong pull toward a cycle keeps mass in flight at shallow depth
        g = line_graph()
        with pytest.raises(NumericsError):
            brute_force_cdf(g, s_max=6.0, depth_max=4, ds=1.0)


class TestRandomGraphEquivalence:
    def test_sweep_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(1234)
        for _ in range(40):
            g = random_graph(rng)
            w = solve_cdf(g, s_max=10.0, ds=1.0)
            bf, _ = brute_force_cdf(g, s_max=10.0, depth_max=14, ds=1.0)
            assert np.abs(w.values - bf.values).max() <= 1e-12

    def test_label_setting_matches_bellman_ford_on_random_graphs(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            g = random_graph(rng)
            s0, w0 = solve_min_cost(g)
            s0b, w0b = bellman_ford_min_cost(g)
            both = np.isfinite(s0) & np.isfinite(s0b)
            assert np.array_equal(np.isfinite(s0), np.isfinite(s0b))
            assert np.allclose(s0[both], s0b[both], atol=1e-12)
            assert np.allclose(w0, w0b, atol=1e-12)

    def test_label_setting_matches_bellman_ford_with_fractional_costs(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            g = fractional_graph(rng)
            s0, w0 = solve_min_cost(g)
            s0b, w0b = bellman_ford_min_cost(g)
            assert np.array_equal(s0, s0b)
            assert np.array_equal(w0, w0b)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_graph(rng)
            w = solve_cdf(g, s_max=10.0, ds=1.0)
            assert np.all(w.values >= 0.0) and np.all(w.values <= 1.0 + 1e-15)
            assert np.all(np.diff(w.values, axis=1) >= -1e-15)

    def test_tail_sum_recovers_expectation(self):
        g = line_graph()
        u = solve_expected_cost(g)
        w = solve_cdf(g, s_max=300.0, ds=1.0)
        tail = (1.0 - w.values).sum(axis=1) * 1.0
        resid = (1.0 - w.values[:, -1, :]).max()
        assert resid < 1e-10
        assert np.abs(tail - u).max() < 1e-8
