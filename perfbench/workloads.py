"""The three workloads: their inputs, their CLI operations and the checks on each.

Every operation is one ``pdmp-cdf`` command run in process through
``pdmp_cdf.cli.main(argv)``, in the order a user runs the documented
pipelines.  ``Round.op`` times the command (including its CSV, manifest and
policy writes) and then checks its outputs, untimed.  The program sees only
the generated configs and flags.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import checks as ck
from pdmp_cdf.cli import parse_graph
from pdmp_cdf.discrete import brute_force_cdf

E_HALF = math.exp(-0.5)  # example1 from x = 0.75, mode 1: P(no switch before the wall)

# Sizes.  "full" is what the benchmark measures; "tiny" runs every operation
# and check in seconds, for the self-tests.  Grids are chosen so that every
# exported sheet and point lies on a grid node and level.
SIZES = {
    "full": {
        "ex3": "2.5e-2", "ex4": "2.5e-3", "sweep_rates": "1,2,3,4",
        "graph_nodes": 1000, "small_graphs": 4,
        "ex5_dx": "8e-3", "ex5_ds": "4e-3",
        "ex6_dx": "5e-2", "ex6_ds": "1e-2",
        # min-cost picks label setting at or below 2M candidate-node pairs and
        # vectorized sweeps above: 4 modes x 16 angles x 26^2 nodes and
        # 4 x 200 x 51^2 nodes land on either side
        "ex6_label": ("16", "4e-2"), "ex6_vector": ("200", "2e-2"),
        "mc1_n": 40_000, "mc5_n": 20_000,
    },
    "tiny": {
        "ex3": "5e-2", "ex4": "1e-2", "sweep_rates": "1,4",
        "graph_nodes": 300, "small_graphs": 2,
        "ex5_dx": "1e-2", "ex5_ds": "5e-3",
        "ex6_dx": "1e-1", "ex6_ds": "1e-2",
        "ex6_label": ("16", "1e-1"), "ex6_vector": ("64", "1e-1"),
        "mc1_n": 10_000, "mc5_n": 10_000,
    },
}

SHEETS = "s=0.25,0.5,0.75,1.0"
EX5_SHEETS = "s=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8"
GRAPH_S_MAX, SMALL_S_MAX, SMALL_DEPTH = 40.0, 10.0, 14


def derived_seed(seed: int, *labels) -> int:
    """A 32-bit seed for one use, fixed by the run seed and the labels."""
    text = ":".join(str(v) for v in (seed, *labels)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


def routed_graph(rng: np.random.Generator, n: int) -> dict:
    """A three-route graph: two routes head toward the exits at low indices, one away."""
    k = np.arange(n)
    succ = np.stack([
        np.maximum(k - rng.integers(1, 80, n), 0),
        np.maximum(k - rng.integers(1, 40, n), 0),
        np.minimum(k + rng.integers(1, 30, n), n - 1),
    ])
    exits = np.zeros(n, dtype=bool)
    exits[:20] = True
    exits[rng.choice(n, n // 100, replace=False)] = True
    return _graph_doc(succ, rng.integers(1, 4, succ.shape), rng.integers(0, 3, succ.shape),
                      exits, _switch_probs(rng, 3), GRAPH_S_MAX)


def small_graph(rng: np.random.Generator) -> dict:
    """A random graph small enough for the brute-force oracle (as in the acceptance suite)."""
    n = int(rng.integers(3, 13))
    m = int(rng.integers(1, 4))
    exits = np.zeros(n, dtype=bool)
    exits[rng.choice(n, size=max(1, n // 4), replace=False)] = True
    return _graph_doc(rng.integers(0, n, (m, n)), rng.integers(1, 4, (m, n)),
                      rng.integers(0, 3, (m, n)), exits, _switch_probs(rng, m), SMALL_S_MAX)


def _switch_probs(rng, m):
    p = rng.random((m, m)) + 0.05
    return p / p.sum(axis=1, keepdims=True)


def _graph_doc(succ, step_costs, exit_costs, exits, probs, s_max) -> dict:
    return {
        "schema_version": 1,
        "problem": {
            "kind": "graph", "name": "generated",
            "successors": np.asarray(succ).tolist(),
            "step_costs": np.asarray(step_costs, dtype=float).tolist(),
            "exit_costs": np.asarray(exit_costs, dtype=float).tolist(),
            "exit_nodes": np.where(exits)[0].tolist(),
            "switch_probs": np.asarray(probs).tolist(),
        },
        "numerics": {"ds": 1.0, "s_max": s_max},
        "run": {}, "output": {},
    }


def _ex5_grid(z: dict) -> list[str]:
    return ["--problem", "example5", "--dx", z["ex5_dx"], "--ds", z["ex5_ds"], "--s-max", "0.8"]


def setup(workload: str, seed: int, size: str, out: Path, main) -> None:
    """Write everything the timed rounds read: generated configs and set-up solves."""
    z = SIZES[size]
    out.mkdir(parents=True, exist_ok=True)
    if workload == "uncontrolled":
        rng = np.random.default_rng([seed, 1])
        (out / "graph.json").write_text(json.dumps(routed_graph(rng, z["graph_nodes"])))
        for g in range(z["small_graphs"]):
            (out / f"small_{g}.json").write_text(json.dumps(small_graph(rng)))
    elif workload == "montecarlo":
        for name, argv in (
            ("ex1_curve", ["solve-cdf", "--problem", "example1", "--slice", "x=0.3"]),
            ("ex5_hjb", ["hjb", *_ex5_grid(z), "--policy-out", str(out / "exp.policy")]),
            ("ex5_threshold", ["threshold", *_ex5_grid(z), "--slice", "s=0.38",
                               "--policy-out", str(out / "thr.policy")]),
        ):
            rc = main([*argv, "--out", str(out / name)])
            if rc != 0:
                raise RuntimeError(f"set-up command {name} exited with code {rc}")


# ---------------------------------------------------------------------------
# the workloads; each function runs one round of operations
# ---------------------------------------------------------------------------


def uncontrolled(r, z: dict) -> None:
    """Fixed-rate level sweeps, min-cost, the bounds sweep, graphs and CSV export."""
    def cdf_1d(mirror):
        def check(d):
            rows = ck.read_csv(d / "cdf.csv")
            out = ck.cdf_properties(rows, "cdf")
            if mirror:
                out += ck.dead_zone(rows, 0.25, 0.251, 0.749, "example1 s=0.25")
                out += ck.value_near(rows, 0.75, 1, 0.25, E_HALF, 0.02, "example1 jump at x=0.75")
                out += ck.mirror_symmetric(rows, "example1")
            return out
        return check

    curves = ["--slice", SHEETS, "--slice", "x=0.3,0.7"]
    r.op("ex1_cdf", "cdf_s", ["solve-cdf", "--problem", "example1", *curves], cdf_1d(True))
    r.op("ex2_cdf", "cdf_s", ["solve-cdf", "--problem", "example2", *curves], cdf_1d(False))
    ex3 = ["--problem", "example3", "--dx", z["ex3"], "--ds", z["ex3"]]
    r.op("ex3_cdf", "cdf_s", ["solve-cdf", *ex3, "--slice", SHEETS],
         lambda d: ck.cdf_properties(ck.read_csv(d / "cdf.csv"), "example3 cdf"))
    r.op("ex3_min_cost", "min_cost_s", ["min-cost", *ex3],
         lambda d: ck.min_cost_is_distance(ck.read_csv(d / "min_cost.csv"), 1.0, "example3"))

    ex4 = ["--problem", "example4", "--dx", z["ex4"], "--ds", z["ex4"],
           "--slice", "s=0.5", "--slice", "x=0.3"]

    def bounds_check(d):
        rows = ck.read_csv(d / "bounds.csv")
        out = ck.cdf_properties(rows, "bounds midpoint")
        for side in ("value_lo", "value_hi"):
            out += ck.cdf_properties({**rows, "value": rows[side]}, f"bounds {side}")
        return out + ck.inside_envelope(rows, rows, "bounds midpoint")

    bounds = r.op("ex4_bounds", "bounds_s", ["bounds", *ex4], bounds_check)

    def sweep_check(d):
        rows = ck.read_csv(d / "sweep.csv")
        keys = ("x", "mode", "rate_12", "rate_21")
        return (ck.cdf_properties(rows, "sweep", key_cols=keys)
                + ck.inside_envelope(rows, ck.read_csv(bounds / "bounds.csv"), "sweep vs bounds"))

    r.op("ex4_sweep", "rate_sweep_s", ["sweep", *ex4, "--rates", z["sweep_rates"]], sweep_check)

    graph = r.setup_dir / "graph.json"
    gcdf = r.op("graph_cdf", "graph_s", ["solve-cdf", "--problem", str(graph)],
                lambda d: ck.cdf_properties(ck.read_csv(d / "cdf.csv"), "graph cdf",
                                            key_cols=("node", "route")))

    def graph_min_cost_check(d):
        mc = ck.read_csv(d / "min_cost.csv")
        return (ck.in_unit_interval(mc["attain_prob"], "graph attainment probability")
                + ck.zero_below_min_cost(ck.read_csv(gcdf / "cdf.csv"), mc, "graph"))

    r.op("graph_min_cost", "graph_s", ["min-cost", "--problem", str(graph)], graph_min_cost_check)

    for g in range(z["small_graphs"]):
        path = r.setup_dir / f"small_{g}.json"
        r.op(f"small_graph_{g}_cdf", "graph_s", ["solve-cdf", "--problem", str(path)],
             lambda d, path=path: _oracle_check(d, path))

    # Known failure: with --s-max 0.5 and no --slice, the default sheets ask for
    # s = 0.75 and 1.0, which lie outside the grid, so the command exits with
    # code 2 after the whole solve.  It counts as failed on every run.
    r.op("ex1_short_grid_default_sheets", None,
         ["solve-cdf", "--problem", "example1", "--s-max", "0.5"],
         lambda d: ck.cdf_properties(ck.read_csv(d / "cdf.csv"), "short grid cdf"),
         known_failure=True)


def _oracle_check(d: Path, config: Path) -> list[str]:
    doc = json.loads(config.read_text())
    g = parse_graph(doc["problem"])
    oracle, _ = brute_force_cdf(g, s_max=SMALL_S_MAX, depth_max=SMALL_DEPTH, ds=1.0)
    rows = ck.read_csv(d / "cdf.csv")
    return (ck.cdf_properties(rows, "small graph cdf", key_cols=("node", "route"))
            + ck.equal_to_oracle(rows, oracle.values, 1.0, "small graph cdf"))


def control(r, z: dict) -> None:
    """HJB, threshold sweeps, policy export, many-action steps and controlled min-cost."""
    grid5 = _ex5_grid(z)
    exp_policy = r.dir / "exp.policy"

    def hjb_check(d):
        rows = ck.read_csv(d / "expected_cost.csv")
        return (ck.expected_cost_bounds(rows, 1.5, "example5 expected cost")
                + ck.actions_in_range(rows["action"], 2, "example5 hjb actions"))

    r.op("ex5_hjb", "hjb_s", ["hjb", *grid5, "--policy-out", str(exp_policy)], hjb_check)

    def threshold_check(d, n_actions, what):
        rows = ck.read_csv(d / "threshold_cdf.csv")
        return (ck.cdf_properties(rows, what)
                + ck.actions_in_range(ck.read_csv(d / "policy_map.csv")["action"], n_actions, what))

    thr = r.op("ex5_threshold", "threshold_s",
               ["threshold", *grid5, "--slice", EX5_SHEETS, "--thresholds", "0.38",
                "--policy-out", str(r.dir / "thr.policy")],
               lambda d: threshold_check(d, 2, "example5 threshold"))

    def evaluate_check(d):
        rows = ck.read_csv(d / "policy_cdf.csv")
        w = ck.read_csv(thr / "threshold_cdf.csv")
        return (ck.cdf_properties(rows, "example5 policy cdf")
                + ck.dominates(w, rows, "threshold W over the expectation policy"))

    r.op("ex5_evaluate_policy", "evaluate_policy_s",
         ["evaluate-policy", *grid5, "--slice", EX5_SHEETS + ",0.38",
          "--policy-in", str(exp_policy)], evaluate_check)

    r.op("ex6_threshold", "threshold_s",
         ["threshold", "--problem", "example6", "--n-angles", "16", "--dx", z["ex6_dx"],
          "--ds", z["ex6_ds"], "--s-max", "0.5", "--slice", "at=0.4:0.3",
          "--slice", "s=0.28,0.33,0.4"],
         lambda d: threshold_check(d, 16, "example6 threshold"))
    for angles, dx in (z["ex6_label"], z["ex6_vector"]):
        r.op(f"ex6_min_cost_{angles}", "min_cost_s",
             ["min-cost", "--problem", "example6", "--n-angles", angles, "--dx", dx],
             lambda d: ck.min_cost_is_distance(ck.read_csv(d / "min_cost.csv"), 1.5, "example6"))


def montecarlo(r, z: dict) -> None:
    """Random streams, the event loop with and without a policy, and the empirical CDF."""
    n1, n5 = z["mc1_n"], z["mc5_n"]
    tol1 = ck.dkw99(n1)

    def ecdf(d, n):
        rows = ck.read_csv(d / "empirical_cdf.csv")
        return rows, ck.ecdf_shape(rows, n, "empirical cdf")

    def from_03(d):
        rows, out = ecdf(d, n1)
        curve = ck.read_csv(r.setup_dir / "ex1_curve" / "cdf.csv")
        mode1 = curve["mode"] == 1
        return out + ck.ecdf_matches_curve(rows, curve["s"][mode1], curve["value"][mode1],
                                           tol1 + 0.02, "example1 from 0.3 vs grid curve")

    def from_075(d):
        rows, out = ecdf(d, n1)
        out += ck.no_cost_below(rows, 0.25, "example1 from 0.75")
        got = ck.ecdf_at(rows, 0.25 + ck.ATOM_EPS)
        if abs(got - E_HALF) > tol1:
            out.append(f"example1 from 0.75: CDF at 0.25 is {got:.5f}, "
                       f"outside the DKW99 band {tol1:.5f} around e^-1/2")
        manifest = json.loads((d / "manifest.json").read_text())
        return out + ck.samples_match_manifest(ck.read_csv(d / "samples.csv"), manifest,
                                               "samples.csv")

    mc1 = ["simulate", "--problem", "example1", "--n", str(n1)]
    r.op("ex1_mc_from_0.3", "mc_uncontrolled",
         [*mc1, "--start", "0.3:1", "--seed", str(r.seed("ex1_0.3"))], from_03, samples=n1)
    r.op("ex1_mc_from_0.75", "mc_uncontrolled",
         [*mc1, "--start", "0.75:1", "--seed", str(r.seed("ex1_0.75")), "--dump-samples"],
         from_075, samples=n1)

    mc5 = ["simulate", *_ex5_grid(z), "--start", "0.4:1", "--n", str(n5)]
    tol5 = ck.dkw99(n5)
    exp = r.op("ex5_mc_expectation", "mc_policy",
               [*mc5, "--policy-in", str(r.setup_dir / "exp.policy"),
                "--seed", str(r.seed("ex5_expectation"))],
               lambda d: ecdf(d, n5)[1], samples=n5)

    def threshold_check(d):
        rows, out = ecdf(d, n5)
        w = ck.read_csv(r.setup_dir / "ex5_threshold" / "threshold_cdf.csv")
        at = np.isclose(w["x"], 0.4) & (w["mode"] == 1) & np.isclose(w["s"], 0.38)
        w_star = float(w["value"][at][0])
        got = ck.ecdf_at(rows, 0.38 + ck.ATOM_EPS)
        if abs(got - w_star) > tol5 + 0.03:
            out.append(f"threshold policy: CDF at 0.38 is {got:.4f}, W is {w_star:.4f}")
        rival = ck.ecdf_at(ck.read_csv(exp / "empirical_cdf.csv"), 0.38 + ck.ATOM_EPS)
        if got - rival <= tol5:
            out.append(f"threshold policy: CDF at 0.38 {got:.4f} does not beat the "
                       f"expectation policy's {rival:.4f} by more than {tol5:.4f}")
        return out

    r.op("ex5_mc_threshold", "mc_policy",
         [*mc5, "--policy-in", str(r.setup_dir / "thr.policy"), "--threshold", "0.38",
          "--seed", str(r.seed("ex5_threshold"))], threshold_check, samples=n5)


WORKLOADS = {"uncontrolled": uncontrolled, "control": control, "montecarlo": montecarlo}
