import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmp_cdf
from pdmp_cdf import build_grid, catalog, cfl_max_ds
from pdmp_cdf.cdf_solver import SemiLagrangianStep
from pdmp_cdf.errors import ConfigError, NumericsError
from pdmp_cdf.model import (
    CdfField,
    ControlSet,
    ExitSpec,
    ModeSpec,
    ProblemSpec,
    RateBounds,
    RateMatrix,
    ScalarField,
    VectorField,
)
from pdmp_cdf.simulate import run_batch
from reference_solvers import transition_probabilities


def two_state_exact(l12, l21, tau):
    """Closed-form 2-state transition matrix, the independent oracle."""
    total = l12 + l21
    decay = math.exp(-total * tau)
    p11 = (l21 + l12 * decay) / total
    p22 = (l12 + l21 * decay) / total
    return np.array([[p11, 1 - p11], [1 - p22, p22]])


class TestRateMatrix:
    def test_rows_sum_to_zero(self):
        rm = RateMatrix([[0.0, 2.0, 1.0], [0.5, 0.0, 0.5], [3.0, 0.0, 0.0]])
        assert np.allclose(rm.matrix.sum(axis=1), 0.0, atol=1e-14)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            RateMatrix([[0.0, -1.0], [1.0, 0.0]])

    def test_bounds_ordering_enforced(self):
        with pytest.raises(ConfigError):
            RateBounds(np.full((2, 2), 3.0), np.full((2, 2), 1.0))


class TestTransitionProbabilities:
    def test_zero_step_is_identity(self):
        rm = RateMatrix.uniform(3, 5.0)
        assert np.allclose(transition_probabilities(rm, 0.0, "exact"), np.eye(3), atol=1e-15)
        assert np.array_equal(transition_probabilities(rm, 0.0, "first_order"), np.eye(3))

    def test_symmetric_two_state_closed_form(self):
        rm = RateMatrix.uniform(2, 2.0)
        p = transition_probabilities(rm, 0.25, "exact")
        expected = (1 + math.exp(-1.0)) / 2
        assert abs(p[0, 0] - expected) < 1e-12
        assert np.allclose(p, two_state_exact(2.0, 2.0, 0.25), atol=1e-12)

    def test_asymmetric_two_state_closed_form(self):
        rm = RateMatrix([[0.0, 1.0], [4.0, 0.0]])
        for tau in (0.05, 0.3, 1.7):
            assert np.allclose(
                transition_probabilities(rm, tau, "exact"),
                two_state_exact(1.0, 4.0, tau), atol=1e-12)

    def test_first_order_values(self):
        rm = RateMatrix.uniform(2, 2.0)
        p = transition_probabilities(rm, 0.1, "first_order")
        assert p[0, 1] == pytest.approx(0.2, abs=1e-15)
        assert p[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_first_order_validity_guard(self):
        rm = RateMatrix.uniform(2, 2.0)
        with pytest.raises(NumericsError):
            transition_probabilities(rm, 0.6, "first_order")

    @given(st.lists(st.floats(0.0, 10.0), min_size=6, max_size=6),
           st.floats(1e-4, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one(self, rates, tau):
        q = np.zeros((3, 3))
        q[np.triu_indices(3, 1)] = rates[:3]
        q[np.tril_indices(3, -1)] = rates[3:]
        rm = RateMatrix(q)
        exact = transition_probabilities(rm, tau, "exact")
        assert np.allclose(exact.sum(axis=1), 1.0, atol=1e-12)
        max_total = rm.total_rates().max()
        if tau * max_total <= 1.0:
            first = transition_probabilities(rm, tau, "first_order")
            assert np.allclose(first.sum(axis=1), 1.0, atol=1e-12)

    def test_first_order_agrees_to_second_order(self):
        rm = RateMatrix([[0.0, 2.0, 0.5], [1.0, 0.0, 1.5], [0.3, 0.7, 0.0]])
        diffs = []
        for tau in (1e-2, 1e-3, 1e-4):
            delta = np.abs(
                transition_probabilities(rm, tau, "exact")
                - transition_probabilities(rm, tau, "first_order")).max()
            diffs.append(delta)
        for a, b in zip(diffs, diffs[1:]):
            assert 50.0 < a / b < 200.0  # ~100x per decade


class TestBuildGrid:
    def test_node_placement(self):
        spec = catalog.example1()
        grid = build_grid(spec, 0.25, 0.25, 1.0)
        assert np.allclose(grid.points[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_published_2d_resolution(self):
        spec = catalog.example3()
        grid = build_grid(spec, 0.01, 0.01, 1.0)
        assert grid.shape == (101, 101)

    def test_indivisible_extent_rejected(self):
        with pytest.raises(NumericsError):
            build_grid(catalog.example1(), 0.3, 0.1, 1.0)

    def test_exit_mask_boundary(self):
        grid = build_grid(catalog.example3(), 0.25, 0.25, 1.0)
        inner = grid.points[~grid.exit_mask]
        assert np.all((inner > 0.0) & (inner < 1.0))
        assert grid.exit_mask.sum() == 16

    def test_misaligned_exit_box_rejected(self):
        spec = catalog.example1()
        off_spec = ProblemSpec(
            dim=1, lo=spec.lo, hi=spec.hi,
            exit_set=ExitSpec("boxes", boxes=(((0.3333, 0.5),),)),
            modes=spec.modes, rates=spec.rates)
        with pytest.raises(NumericsError):
            build_grid(off_spec, 0.25, 0.25, 1.0)


class TestInterpolation:
    def make_field(self):
        spec = catalog.example1()
        grid = build_grid(spec, 0.25, 0.25, 1.0)
        vals = np.zeros((2, grid.n_levels, grid.n_nodes))
        vals[0, :, :] = np.linspace(0, 1, grid.n_nodes)[None, :]
        return spec, grid, CdfField(grid, vals, spec=spec)

    def test_exact_at_nodes(self):
        spec, grid, field = self.make_field()
        for k in range(grid.n_nodes):
            assert field.evaluate(0, grid.points[k], 0.5) == pytest.approx(
                field.values[0, 2, k], abs=1e-15)

    def test_midpoint_is_average(self):
        spec, grid, field = self.make_field()
        v = field.evaluate(0, [0.125], 0.25)
        assert v == pytest.approx(0.5 * (field.values[0, 1, 0] + field.values[0, 1, 1]), abs=1e-15)

    def test_negative_threshold_off_exit_is_zero(self):
        spec, grid, field = self.make_field()
        assert field.evaluate(0, [0.5], -0.1) == 0.0

    def test_outside_domain_rejected(self):
        spec, grid, field = self.make_field()
        with pytest.raises(NumericsError):
            field.evaluate(0, [1.5], 0.5)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-2.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_linear_in_field_values(self, x, s, alpha):
        spec = catalog.example1()
        grid = build_grid(spec, 0.25, 0.25, 1.0)
        rng = np.random.default_rng(0)
        a = rng.random((2, grid.n_levels, grid.n_nodes))
        b = rng.random((2, grid.n_levels, grid.n_nodes))
        fa = CdfField(grid, a, spec=spec)
        fb = CdfField(grid, b, spec=spec)
        fc = CdfField(grid, alpha * a + b, spec=spec)
        lhs = fc.evaluate(0, [x], s)
        rhs = alpha * fa.evaluate(0, [x], s) + fb.evaluate(0, [x], s)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_within_stencil_range(self):
        spec, grid, field = self.make_field()
        rng = np.random.default_rng(1)
        field.values[:] = rng.random(field.values.shape)
        for _ in range(50):
            x, s = rng.random(), rng.random()
            v = field.evaluate(0, [x], s)
            assert field.values[0].min() - 1e-12 <= v <= field.values[0].max() + 1e-12


class TestCflLimit:
    def test_unit_speed_unit_cost(self):
        assert cfl_max_ds(catalog.example1(), 0.001) == pytest.approx(0.001)

    def test_unequal_speeds(self):
        # the fastest mode limits the spacing
        assert cfl_max_ds(catalog.example2(), 0.01) == pytest.approx(0.01)

    def test_cost_scaling(self):
        spec = catalog.example1()
        scaled = ProblemSpec(
            dim=1, lo=spec.lo, hi=spec.hi, exit_set=spec.exit_set,
            modes=tuple(ModeSpec(m.dynamics, ScalarField.constant(2.0), m.exit_cost)
                        for m in spec.modes),
            rates=spec.rates)
        assert cfl_max_ds(scaled, 0.01) == pytest.approx(0.02)

    def test_controlled_extremizes_speed(self):
        assert cfl_max_ds(catalog.example5(), 0.01) == pytest.approx(0.01 / 1.5)

    def test_nonpositive_cost_rejected_at_construction(self):
        spec = catalog.example1()
        with pytest.raises(ConfigError):
            ProblemSpec(
                dim=1, lo=spec.lo, hi=spec.hi, exit_set=spec.exit_set,
                modes=(ModeSpec(spec.modes[0].dynamics, ScalarField.constant(0.0),
                                spec.modes[0].exit_cost), spec.modes[1]),
                rates=spec.rates)


class TestControlSet:
    def test_unit_circle_vectors(self):
        cs = ControlSet.unit_circle(4)
        assert np.allclose(cs.vectors, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)

    def test_empty_set_for_controlled_dynamics_rejected(self):
        spec = catalog.example5()
        with pytest.raises(ConfigError):
            ProblemSpec(dim=1, lo=spec.lo, hi=spec.hi, exit_set=spec.exit_set,
                        modes=spec.modes, rates=spec.rates, controls=ControlSet.none())

    def test_max_speed_with_offset(self):
        vf = VectorField.control_offset([0.5])
        assert vf.max_speed(ControlSet.from_list([[-1.0], [1.0]])) == pytest.approx(1.5)


class TestStepInequalities:
    def test_limit_spacing_satisfies_both_step_conditions(self):
        # at the limit spacing, tau = ds_max / min C meets the causality
        # condition with equality and keeps uniform steps inside the box
        for name in ("example1", "example2", "example5"):
            spec = catalog.builtin(name)
            dx = 0.01
            ds_max = cfl_max_ds(spec, dx)
            tau = ds_max / spec.min_cost_rate()
            assert tau * spec.min_cost_rate() >= ds_max - 1e-15
            assert tau * spec.max_speed() <= dx + 1e-15


class TestExitSpec:
    LO, HI = np.zeros(2), np.ones(2)
    BOX = ExitSpec("boxes", boxes=(((0.4, 0.6), (0.4, 0.6)),))

    def hit(self, es, x, disp, lo=None, hi=None):
        x, disp = np.array([x], dtype=float), np.array([disp], dtype=float)
        lo = self.LO[:x.shape[1]] if lo is None else lo
        hi = self.HI[:x.shape[1]] if hi is None else hi
        t_exit, t_escape = es.first_hit(lo, hi, x, disp)
        return float(t_exit[0]), float(t_escape[0])

    def test_face_exit_masks(self):
        assert ExitSpec("boundary").face_exits(2).tolist() == [[True, True], [True, True]]
        assert ExitSpec("boundary").face_exits(1).tolist() == [[True, True]]
        faces = ExitSpec("faces", faces=("x_max", "y_min"))
        assert faces.face_exits(2).tolist() == [[False, True], [True, False]]
        assert not self.BOX.face_exits(2).any()
        assert not ExitSpec("none").face_exits(2).any()
        with pytest.raises(ConfigError):
            ExitSpec("faces", faces=("y_min",)).face_exits(1)

    def test_corner_tie_between_exit_and_escape_goes_to_the_exit(self):
        es = ExitSpec("faces", faces=("x_max",))
        assert self.hit(es, (0.5, 0.5), (1.0, 1.0)) == (0.5, 0.5)
        # the step and the simulator both take the tie as an exit
        mode = ModeSpec(VectorField.constant([1.0, 1.0]), ScalarField.constant(1.0),
                        ScalarField.constant(0.0))
        spec = ProblemSpec(dim=2, lo=self.LO, hi=self.HI, exit_set=es, modes=(mode,),
                           rates=RateMatrix([[0.0]]))
        grid = build_grid(spec, 0.25, 0.25, 1.0)
        step = SemiLagrangianStep(spec, grid, 0.25, 0)
        corner = int(np.flatnonzero(np.all(grid.points == [0.75, 0.75], axis=1))[0])
        wall = int(np.flatnonzero(np.all(grid.points == [0.5, 0.75], axis=1))[0])
        assert corner in step.cap_nodes and corner not in step.esc_nodes
        assert wall in step.esc_nodes
        batch = run_batch(spec, (np.array([0.5, 0.5]), 0), 3, seed=1)
        assert batch.exited.all()

    def test_ray_leaving_a_face_never_hits_it(self):
        es = ExitSpec("faces", faces=("x_min",))
        assert self.hit(es, (0.0, 0.5), (1.0, 0.0)) == (math.inf, 1.0)
        assert self.hit(es, (0.0, 0.5), (-1.0, 0.0)) == (0.0, math.inf)
        assert self.hit(es, (0.0, 0.5), (0.0, 0.0)) == (math.inf, math.inf)

    def test_stuck_axis_inside_and_outside_a_box_slab(self):
        assert self.hit(self.BOX, (0.1, 0.5), (1.0, 0.0)) == pytest.approx((0.3, 0.9))
        assert self.hit(self.BOX, (0.1, 0.6), (1.0, 0.0))[0] == pytest.approx(0.3)  # closed slab
        assert self.hit(self.BOX, (0.1, 0.7), (1.0, 0.0)) == pytest.approx((math.inf, 0.9))
        assert self.hit(self.BOX, (0.5, 0.7), (0.0, 0.0)) == (math.inf, math.inf)

    def test_start_inside_a_box_is_zero(self):
        for disp in ((1.0, 0.0), (-0.3, 0.7), (0.0, 0.0)):
            assert self.hit(self.BOX, (0.5, 0.45), disp)[0] == 0.0
        assert self.BOX.in_boxes(np.array([[0.5, 0.45], [0.6 + 1e-13, 0.5], [0.7, 0.5]]),
                                 1e-12).tolist() == [True, True, False]
        assert not self.BOX.in_boxes(np.array([0.6 + 1e-13, 0.5]), 0.0)[0]
        assert self.BOX.in_boxes(np.array([0.6 + 1e-13, 0.5]), np.array([1e-12, 0.0]))[0]

    def test_kind_none_never_exits(self):
        es = ExitSpec("none")
        assert self.hit(es, (0.5, 0.5), (1.0, 0.5)) == (math.inf, 0.5)
        assert not es.in_boxes(np.array([[0.5, 0.5]]), 1.0).any()

    def test_one_dimension(self):
        assert self.hit(ExitSpec("boundary"), (0.25,), (-1.0,)) == (0.25, math.inf)
        assert self.hit(ExitSpec("faces", faces=("x_max",)), (0.25,), (-1.0,)) == (math.inf, 0.25)
        box = ExitSpec("boxes", boxes=(((0.5, 0.75),),))
        assert self.hit(box, (0.25,), (1.0,)) == (0.25, 0.75)
        assert self.hit(box, (0.25,), (-1.0,)) == (math.inf, 0.25)


_EIGHTHS = st.integers(0, 8).map(lambda k: k / 8)


@st.composite
def _exit_sets(draw):
    kind = draw(st.sampled_from(["boundary", "faces", "boxes", "none"]))
    if kind == "faces":
        names = st.sampled_from(["x_min", "x_max", "y_min", "y_max"])
        return ExitSpec("faces", faces=tuple(draw(st.lists(names, min_size=1, unique=True))))
    if kind == "boxes":
        side = st.tuples(_EIGHTHS, _EIGHTHS).map(lambda e: tuple(sorted(e)))
        return ExitSpec("boxes", boxes=tuple(draw(st.lists(st.tuples(side, side),
                                                           min_size=1, max_size=3))))
    return ExitSpec(kind)


@settings(max_examples=300, deadline=None)
@given(es=_exit_sets(),
       x=st.tuples(*[st.integers(0, 64).map(lambda k: k / 64)] * 2),
       disp=st.tuples(*[st.integers(-8, 8).map(lambda k: k / 8)] * 2))
def test_first_hit_is_the_first_point_on_the_exit_set(es, x, disp):
    # dyadic starts, directions and box edges keep every hit a clear distance
    # from the points sampled before it, so these checks need no tolerance
    lo, hi = np.zeros(2), np.ones(2)
    x, disp = np.array([x]), np.array([disp])
    t_exit, t_escape = (float(t[0]) for t in es.first_hit(lo, hi, x, disp))
    exits = es.face_exits(2)

    def on_faces(p, exit_faces, tol):
        """Points on (or past) a face of the given kind that the ray moves towards."""
        out = np.zeros(p.shape[0], dtype=bool)
        for a in range(2):
            for side, past in ((0, p[:, a] <= lo[a] + tol), (1, p[:, a] >= hi[a] - tol)):
                toward = disp[0, a] < 0 if side == 0 else disp[0, a] > 0
                if exits[a, side] == exit_faces and toward:
                    out |= past
        return out

    if math.isfinite(t_exit):
        p = x + t_exit * disp
        assert on_faces(p, True, 1e-12)[0] or es.in_boxes(p, 1e-12)[0]
    if math.isfinite(t_escape):
        assert on_faces(x + t_escape * disp, False, 1e-12)[0]
    first = min(t_exit, t_escape)
    ts = np.arange(50) / 50 * (first if math.isfinite(first) else 4.0)
    pts = x + ts[ts < first, None] * disp
    assert not np.any(on_faces(pts, True, 0.0) | es.in_boxes(pts, 0.0))
    assert not np.any(on_faces(pts, False, 0.0))


def test_only_the_model_spells_face_names():
    # every other module reads the exit faces through ExitSpec.face_exits
    src = Path(pdmp_cdf.__file__).parent
    name = re.compile(r"\b[xy]_(min|max)\b")
    assert name.search((src / "model.py").read_text())
    assert [p.name for p in sorted(src.glob("*.py"))
            if p.name != "model.py" and name.search(p.read_text())] == []
