"""Each output check accepts a real output and rejects a deliberately corrupted copy.

Run with ``python3 -m pytest perfbench/selftest``.
"""

import numpy as np
import pytest

import checks as ck
from pdmp_cdf.cli import main


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    d = tmp_path_factory.mktemp("outputs")
    ex4 = ["--problem", "example4", "--dx", "1e-2", "--ds", "1e-2",
           "--slice", "s=0.5", "--slice", "x=0.3"]
    for argv, name in (
        (["solve-cdf", "--problem", "example1", "--slice", "x=0.3"], "curve"),
        (["simulate", "--problem", "example1", "--start", "0.3:1", "--n", "20000",
          "--seed", "3", "--dump-samples"], "mc"),
        (["bounds", *ex4], "bounds"),
        (["sweep", *ex4, "--rates", "1,4"], "sweep"),
        (["min-cost", "--problem", "example3", "--dx", "5e-2", "--ds", "5e-2"], "min_cost"),
    ):
        assert main([*argv, "--out", str(d / name)]) == 0
    return d


def test_shifted_empirical_cdf_is_rejected(out):
    curve = ck.read_csv(out / "curve" / "cdf.csv")
    mode1 = curve["mode"] == 1
    s, w = curve["s"][mode1], curve["value"][mode1]
    ecdf = ck.read_csv(out / "mc" / "empirical_cdf.csv")
    tol = ck.dkw99(20000) + 0.02
    assert ck.ecdf_matches_curve(ecdf, s, w, tol, "mc") == []
    shifted = {**ecdf, "cost": ecdf["cost"] + 0.05}
    assert ck.ecdf_matches_curve(shifted, s, w, tol, "mc")


def test_non_monotone_curve_is_rejected(out):
    rows = ck.read_csv(out / "curve" / "cdf.csv")
    assert ck.cdf_properties(rows, "curve") == []
    bent = {**rows, "value": rows["value"].copy()}
    k = int(np.argmax(bent["value"] > 0.5))  # a row well up the first curve
    bent["value"][k] = bent["value"][k - 1] - 0.01
    assert ck.cdf_properties(bent, "curve")


def test_out_of_range_value_is_rejected(out):
    rows = ck.read_csv(out / "curve" / "cdf.csv")
    high = {**rows, "value": np.where(rows["value"] == rows["value"].max(), 1.001, rows["value"])}
    assert ck.cdf_properties(high, "curve")


def test_swapped_envelope_sides_are_rejected(out):
    env = ck.read_csv(out / "bounds" / "bounds.csv")
    sweep = ck.read_csv(out / "sweep" / "sweep.csv")
    assert ck.inside_envelope(sweep, env, "sweep") == []
    assert ck.inside_envelope(env, env, "midpoint") == []
    swapped = {**env, "value_lo": env["value_hi"], "value_hi": env["value_lo"]}
    assert ck.inside_envelope(sweep, swapped, "sweep")
    assert ck.inside_envelope(swapped, swapped, "midpoint")


def test_min_cost_off_by_one_cell_is_rejected(out):
    rows = ck.read_csv(out / "min_cost" / "min_cost.csv")
    assert ck.min_cost_is_distance(rows, 1.0, "example3") == []
    off = {**rows, "min_cost": rows["min_cost"].copy()}
    k = int(np.argmax(off["min_cost"] > 0.2))
    off["min_cost"][k] += 5e-2  # one cell at unit speed
    assert ck.min_cost_is_distance(off, 1.0, "example3")


def test_samples_disagreeing_with_manifest_are_rejected(out):
    import json

    samples = ck.read_csv(out / "mc" / "samples.csv")
    manifest = json.loads((out / "mc" / "manifest.json").read_text())
    assert ck.samples_match_manifest(samples, manifest, "samples") == []
    assert ck.samples_match_manifest(samples, {**manifest, "exited": manifest["exited"] - 1},
                                     "samples")
    dropped = {k: v[1:] for k, v in samples.items()}
    assert ck.samples_match_manifest(dropped, manifest, "samples")


def test_dominance_and_mirror_checks_reject_violations(out):
    rows = ck.read_csv(out / "curve" / "cdf.csv")
    lifted = {**rows, "value": rows["value"] + 1e-6}
    assert ck.dominates(lifted, rows, "w") == []
    assert ck.dominates(rows, lifted, "w")
    assert ck.mirror_symmetric(rows, "one-sided curve")  # x=0.3 has no mirror row at 0.7


def test_graph_checks_reject_violations():
    from pdmp_cdf.discrete import RoutedGraph, brute_force_cdf, solve_cdf, solve_min_cost

    rng = np.random.default_rng(5)
    succ = rng.integers(0, 8, (2, 8))
    exits = np.zeros(8, dtype=bool)
    exits[:2] = True
    g = RoutedGraph(succ, np.ones((2, 8)), np.zeros((2, 8)), exits, np.full((2, 2), 0.5))
    w = solve_cdf(g, s_max=10.0, ds=1.0)
    route, level, node = np.meshgrid(np.arange(2), np.arange(w.n_levels), np.arange(8), indexing="ij")
    rows = {"route": route.ravel() + 1.0, "s": level.ravel() * 1.0, "node": node.ravel() * 1.0,
            "value": w.values.ravel()}
    oracle, _ = brute_force_cdf(g, s_max=10.0, depth_max=14, ds=1.0)
    assert ck.equal_to_oracle(rows, oracle.values, 1.0, "graph") == []
    assert ck.equal_to_oracle(rows, oracle.values + 1e-9, 1.0, "graph")

    s0, _ = solve_min_cost(g)
    r, n = np.meshgrid(np.arange(2), np.arange(8), indexing="ij")
    mc = {"route": r.ravel() + 1.0, "node": n.ravel() * 1.0, "min_cost": s0.ravel()}
    assert ck.zero_below_min_cost(rows, mc, "graph") == []
    early = {**mc, "min_cost": mc["min_cost"] + 1.0}
    assert ck.zero_below_min_cost(rows, early, "graph")
