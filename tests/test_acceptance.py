"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Expensive artifacts (fine-grid solves, synthesized policies) are shared
through module-scoped fixtures; every tolerance is pinned here and nowhere
else.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from pdmp_cdf import build_grid, catalog
from pdmp_cdf.bounds import default_rate_grid, fixed_rate_sweep, solve_bounds
from pdmp_cdf.cdf_solver import solve_cdf, solve_min_cost
from pdmp_cdf.control import prolong, solve_hjb_expectation, solve_threshold, synthesize_policy
from pdmp_cdf.discrete import RoutedGraph, brute_force_cdf
from pdmp_cdf.discrete import solve_cdf as discrete_solve_cdf
from pdmp_cdf.model import (
    ControlSet,
    ExitSpec,
    ModeSpec,
    ProblemSpec,
    RateBounds,
    RateMatrix,
    ScalarField,
    VectorField,
)
from pdmp_cdf.simulate import empirical_cdf, estimate_mean, run_batch
from reference_solvers import eulerian_step

DKW99_1E5 = math.sqrt(math.log(200.0) / (2 * 100000))  # ~0.00515
DKW99_1E4 = math.sqrt(math.log(200.0) / (2 * 10000))   # ~0.0163


def report(num: int, name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[acceptance {num}] {name}: {status}  ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded its runtime budget ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def ex1_fine():
    spec = catalog.example1()
    grid = build_grid(spec, 1e-3, 1e-3, 1.0)
    t0 = time.time()
    mc = solve_min_cost(spec, grid)
    field = solve_cdf(spec, grid, restrict=mc)
    return spec, grid, mc, field, time.time() - t0


@pytest.fixture(scope="module")
def ex5_pipeline():
    spec = catalog.example5()
    grid = build_grid(spec, 1e-3, 5e-4, 0.8)
    t0 = time.time()
    hjb = solve_hjb_expectation(spec, grid, tol=1e-8)
    mc = solve_min_cost(spec, grid)
    tv = solve_threshold(spec, grid, hjb=hjb, restrict=mc)
    return spec, grid, hjb, mc, tv, time.time() - t0


@pytest.fixture(scope="module")
def ex6_pipeline():
    spec = catalog.example6(32)
    t0 = time.time()
    coarse = build_grid(spec, 2e-2, 2e-2, 0.5)
    v_coarse, _ = solve_hjb_expectation(spec, coarse, tol=1e-7)
    grid = build_grid(spec, 5e-3, 5e-3, 0.5)
    hjb = solve_hjb_expectation(spec, grid, tol=1e-7, initial=prolong(v_coarse.u, coarse, grid))
    mc = solve_min_cost(spec, grid)
    tv = solve_threshold(spec, grid, hjb=hjb, restrict=mc)
    policy = synthesize_policy(tv, spec, grid)
    return spec, grid, tv, policy, time.time() - t0


def test_01_dead_zone(ex1_fine):
    spec, grid, mc, field, setup = ex1_fine
    t0 = time.time()
    x = grid.points[:, 0]
    n = round(0.25 / grid.ds)
    inside = (x > 0.251) & (x < 0.749)
    worst = max(np.abs(field.values[0, n, inside]).max(),
                np.abs(field.values[1, n, inside]).max())
    report(1, "dead zone is scheme-exact", worst == 0.0,
           f"max |W| inside (0.251, 0.749) at s=0.25 is {worst:.3g}",
           setup + time.time() - t0, 10.0)


def test_02_jump_value(ex1_fine):
    # The positive side of the jump sits at x = 0.75; the node one spacing
    # to its left belongs to the scheme-exact dead zone (criterion 1), so
    # the no-switch probability is measured at the jump node itself.
    spec, grid, mc, field, setup = ex1_fine
    t0 = time.time()
    target = math.exp(-0.5)
    n = round(0.25 / grid.ds)
    coarse_err = abs(field.values[0, n, round(0.75 / grid.dx[0])] - target)
    left_of_jump = field.values[0, n, round(0.75 / grid.dx[0]) - 1]

    fine_grid = build_grid(spec, 2.5e-4, 2.5e-4, 0.3)
    mc_f = solve_min_cost(spec, fine_grid)
    f_fine = solve_cdf(spec, fine_grid, restrict=mc_f)
    fine_err = abs(f_fine.values[0, round(0.25 / fine_grid.ds), round(0.75 / fine_grid.dx[0])] - target)
    ok = coarse_err <= 0.02 and fine_err < coarse_err and left_of_jump == 0.0
    report(2, "jump equals the no-switch probability", ok,
           f"|W-e^-1/2| = {coarse_err:.2e} at dx=1e-3, {fine_err:.2e} at dx=2.5e-4",
           setup + time.time() - t0, 60.0)


def test_03_discrete_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20240613)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, 4))
        succ = rng.integers(0, n, size=(m, n))
        costs = rng.integers(1, 4, size=(m, n)).astype(float)
        q = rng.integers(0, 3, size=(m, n)).astype(float)
        ex = np.zeros(n, dtype=bool)
        ex[rng.choice(n, size=max(1, n // 4), replace=False)] = True
        p = rng.random((m, m)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        g = RoutedGraph(succ, costs, q, ex, p)
        w = discrete_solve_cdf(g, s_max=10.0, ds=1.0)
        bf, _ = brute_force_cdf(g, s_max=10.0, depth_max=14, ds=1.0)
        worst = max(worst, float(np.abs(w.values - bf.values).max()))
    report(3, "discrete sweep equals the brute-force oracle", worst <= 1e-12,
           f"max deviation over 200 random graphs: {worst:.3g}", time.time() - t0, 30.0)


def test_04_eulerian_identity():
    t0 = time.time()
    spec = catalog.example1()
    grid = build_grid(spec, 1e-3, 1e-3, 1.0)
    field = solve_cdf(spec, grid)
    worst = 0.0
    for n in range(grid.n_levels - 1):
        nxt = eulerian_step(field, n, 0)
        worst = max(worst, float(np.abs(nxt - field.values[0, n + 1]).max()))
    report(4, "finite-difference form reproduces the level update", worst <= 1e-12,
           f"max per-level deviation {worst:.3g}", time.time() - t0, 5.0)


def test_05_bound_bracketing():
    t0 = time.time()
    spec = catalog.example4()
    grid = build_grid(spec, 1e-3, 1e-3, 1.0)
    pair = solve_bounds(spec, grid)
    fields = fixed_rate_sweep(spec, grid, default_rate_grid())
    low_viol = max(float((pair.lower.values - f.values).max()) for f in fields)
    high_viol = max(float((f.values - pair.upper.values).max()) for f in fields)
    degenerate = dataclasses.replace(spec, rates=RateBounds.uniform(2, 2.0, 2.0))
    pair_deg = solve_bounds(degenerate, grid)
    plain = solve_cdf(catalog.example1(), grid)
    collapse = max(float(np.abs(pair_deg.lower.values - plain.values).max()),
                   float(np.abs(pair_deg.upper.values - plain.values).max()))
    ok = low_viol <= 1e-10 and high_viol <= 1e-10 and collapse <= 1e-12
    report(5, "rate-interval envelopes bracket all 16 fixed-rate solutions", ok,
           f"violations {max(low_viol, high_viol):.3g}, degenerate collapse {collapse:.3g}",
           time.time() - t0, 300.0)


def test_06_monte_carlo_agreement(ex1_fine):
    spec1, grid1, mc1, field1, _ = ex1_fine
    t0 = time.time()
    spec2 = catalog.example2()
    grid2 = build_grid(spec2, 1e-3, 1e-3, 1.0)
    field2 = solve_cdf(spec2, grid2, restrict=solve_min_cost(spec2, grid2))
    worst = 0.0
    details = []
    for (spec, grid, field), x0, seed in (
        ((spec1, grid1, field1), 0.3, 101),
        ((spec1, grid1, field1), 0.7, 102),
        ((spec2, grid2, field2), 0.3, 103),
        ((spec2, grid2, field2), 0.7, 104),
    ):
        batch = run_batch(spec, (np.array([x0]), 0), 100000, seed=seed)
        ecdf = empirical_cdf(batch)
        curve = field.curve(0, [x0])
        # grid thresholds vs continuous costs: absorb float dust at atoms
        sup = float(np.abs(curve - ecdf.evaluate(grid.s_levels + 1e-9)).max())
        worst = max(worst, sup)
        details.append(f"{spec.name}@{x0}: {sup:.4f}")
    tol = DKW99_1E5 + 0.02
    report(6, "empirical and grid CDFs agree uniformly", worst <= tol,
           f"sup distances {', '.join(details)} vs tolerance {tol:.4f}",
           time.time() - t0, 120.0)


def test_07_threshold_dominance(ex5_pipeline):
    spec, grid, (value, exp_policy), mc, tv, setup = ex5_pipeline
    t0 = time.time()
    k = round(0.4 / grid.dx[0])
    n = round(0.38 / grid.ds)
    what = float(tv.w.values[0, n, k])

    exp_batch = run_batch(spec, (np.array([0.4]), 0), 100000, seed=202, policy=exp_policy)
    exp_cdf = empirical_cdf(exp_batch).evaluate(0.38 + 1e-9)
    margin = what - exp_cdf

    thr_policy = synthesize_policy(tv, spec, grid)
    thr_batch = run_batch(spec, (np.array([0.4]), 0), 100000, seed=203,
                          policy=thr_policy, threshold=0.38)
    mean_exp, se_exp = estimate_mean(exp_batch)
    mean_thr, se_thr = estimate_mean(thr_batch)
    mean_gap = mean_thr - mean_exp
    ok = margin > DKW99_1E5 and mean_gap > 3 * (se_exp + se_thr)
    report(7, "threshold synthesis beats the expectation policy at its deadline", ok,
           f"probability margin {margin:.4f} (band {DKW99_1E5:.5f}), "
           f"mean cost {mean_thr:.4f} vs {mean_exp:.4f}",
           setup + time.time() - t0, 300.0)


def test_08_threshold_self_consistency(ex6_pipeline):
    spec, grid, tv, policy, setup = ex6_pipeline
    t0 = time.time()
    start = np.array([0.4, 0.3])
    k = int(np.argmin(np.abs(grid.points - start).sum(axis=1)))
    tol = DKW99_1E4 + 0.03
    curves = {}
    diffs = []
    for sbar, seed in ((0.28, 301), (0.33, 302), (0.40, 303)):
        batch = run_batch(spec, (start, 0), 10000, seed=seed, policy=policy, threshold=sbar)
        curves[sbar] = empirical_cdf(batch)
        n = round(sbar / grid.ds)
        diffs.append(abs(curves[sbar].evaluate(sbar + 1e-9) - float(tv.w.values[0, n, k])))
    consistent = max(diffs) <= tol
    dominance_slack = 2 * DKW99_1E4
    dominated = True
    margins = []
    for sbar in (0.28, 0.33, 0.40):
        own = curves[sbar].evaluate(sbar + 1e-9)
        rivals = [curves[o].evaluate(sbar + 1e-9) for o in (0.28, 0.33, 0.40) if o != sbar]
        margins.append(own - max(rivals))
        dominated &= own >= max(rivals) - dominance_slack
    report(8, "each deadline policy is self-consistent and wins at its deadline",
           consistent and dominated,
           f"|MC-value| diffs {[f'{d:.4f}' for d in diffs]} (tol {tol:.4f}), "
           f"dominance margins {[f'{m:.3f}' for m in margins]}",
           setup + time.time() - t0, 900.0)


def test_09_invariant_suites(ex1_fine, ex5_pipeline):
    spec1, grid1, mc1, field1, _ = ex1_fine
    t0 = time.time()
    failures = []

    def check(label, ok):
        if not ok:
            failures.append(label)

    # CDF monotonicity and range across the built-in catalog
    fields = [field1]
    spec2 = catalog.example2()
    grid2 = build_grid(spec2, 2e-3, 2e-3, 1.0)
    fields.append(solve_cdf(spec2, grid2, restrict=solve_min_cost(spec2, grid2)))
    spec3 = catalog.example3()
    grid3 = build_grid(spec3, 1e-2, 1e-2, 1.0)
    fields.append(solve_cdf(spec3, grid3, restrict=solve_min_cost(spec3, grid3)))
    spec4 = catalog.example4()
    grid4 = build_grid(spec4, 2e-3, 2e-3, 1.0)
    pair = solve_bounds(spec4, grid4)
    fields.extend([pair.lower, pair.upper])
    spec5, grid5, hjb5, mc5, tv5, _ = ex5_pipeline
    fields.append(tv5.w)
    spec6 = catalog.example6(16)
    grid6 = build_grid(spec6, 1e-2, 1e-2, 0.5)
    tv6 = solve_threshold(spec6, grid6, hjb=solve_hjb_expectation(spec6, grid6, tol=1e-7))
    fields.append(tv6.w)
    for field in fields:
        check("range", field.values.min() >= -1e-12 and field.values.max() <= 1.0 + 1e-12)
        check("monotone", bool(np.all(np.diff(field.values, axis=1) >= -1e-12)))

    # mirror symmetry of the symmetric two-mode problem
    mirror = float(np.abs(field1.values[0] - field1.values[1][:, ::-1]).max())
    check("mirror", mirror <= 1e-12)

    # a one-action control set reduces the controlled solver to the plain one
    singleton = ProblemSpec(
        dim=1, lo=np.array([0.0]), hi=np.array([1.0]), exit_set=ExitSpec("boundary"),
        modes=tuple(ModeSpec(VectorField.control_offset([off]), ScalarField.constant(1.0),
                             ScalarField.constant(0.0)) for off in (1.0, -1.0)),
        rates=RateMatrix.uniform(2, 2.0), controls=ControlSet.from_list([[0.0]]))
    sgrid = build_grid(singleton, 5e-3, 5e-3, 1.0)
    tv_single = solve_threshold(singleton, sgrid)
    plain = solve_cdf(catalog.example1(), sgrid)
    reduction = float(np.abs(tv_single.w.values - plain.values).max())
    check("singleton-reduction", reduction <= 1e-12)

    # first-order convergence at a smooth point
    vals = {}
    for dx in (4e-3, 2e-3, 1e-3):
        g = build_grid(spec1, dx, dx, 1.0)
        f = solve_cdf(spec1, g, restrict=solve_min_cost(spec1, g))
        vals[dx] = float(f.values[0, round(0.5 / dx), round(0.7 / dx)])
    ratio = abs(vals[4e-3] - vals[2e-3]) / abs(vals[2e-3] - vals[1e-3])
    check("convergence-ratio", ratio >= 1.8)

    report(9, "invariant suites hold across the catalog", not failures,
           f"failures: {failures or 'none'}; mirror {mirror:.2e}, "
           f"singleton reduction {reduction:.2e}, refinement ratio {ratio:.2f}",
           time.time() - t0, 600.0)
