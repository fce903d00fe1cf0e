import base64
import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmp_cdf
from pdmp_cdf import bounds, build_grid, catalog, cdf_solver, cli, control, discrete, simulate
from pdmp_cdf.bounds import default_rate_grid
from pdmp_cdf.cdf_solver import solve_cdf, solve_min_cost
from pdmp_cdf.cli import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_NUMERICS,
    Exporter,
    _field_rows,
    _parse_slices,
    load_problem,
    main,
)
from pdmp_cdf.control import Policy, save_policy
from pdmp_cdf.csvtable import Table
from pdmp_cdf.errors import ConfigError, NumericsError
from pdmp_cdf.model import (
    ControlSet,
    ExitSpec,
    ModeSpec,
    ProblemSpec,
    RateMatrix,
    ScalarField,
    VectorField,
)
from reference_config import serialize_problem
from reference_solvers import stacked_seed


def specs_equal(a, b) -> bool:
    if (a.dim, a.n_modes, a.exit_set, a.name) != (b.dim, b.n_modes, b.exit_set, b.name):
        return False
    if not (np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)):
        return False
    for ma, mb in zip(a.modes, b.modes):
        if ma.dynamics.kind != mb.dynamics.kind or ma.cost.kind != mb.cost.kind:
            return False
        if ma.dynamics.kind != "tabulated" and not np.array_equal(ma.dynamics.vector, mb.dynamics.vector):
            return False
        if ma.cost.kind == "constant" and ma.cost.value != mb.cost.value:
            return False
        if ma.exit_cost.kind == "constant" and ma.exit_cost.value != mb.exit_cost.value:
            return False
    if a.fixed_rates != b.fixed_rates:
        return False
    if a.fixed_rates:
        if not np.array_equal(a.rates.matrix, b.rates.matrix):
            return False
    else:
        if not (np.array_equal(a.rates.lower, b.rates.lower)
                and np.array_equal(a.rates.upper, b.rates.upper)):
            return False
    if a.controls.kind != b.controls.kind:
        return False
    if not a.controls.empty and not np.allclose(a.controls.vectors, b.controls.vectors):
        return False
    return True


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def within(seconds: float, call):
    """``call()``, stopped by a TimeoutError once ``seconds`` of wall time have passed."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def one_way_spec() -> ProblemSpec:
    """Nothing moves right, so the nodes left of the exit box cannot reach an exit."""
    modes = tuple(ModeSpec(VectorField.constant(v), ScalarField.constant(1.0),
                           ScalarField.constant(0.0)) for v in ([-0.4, 1.0], [0.0, -1.0]))
    return ProblemSpec(
        dim=2, lo=np.zeros(2), hi=np.array([2.0, 1.0]),
        exit_set=ExitSpec("boxes", boxes=(((2.0, 2.0), (0.0, 1.0)), ((0.5, 0.75), (0.4, 0.6)))),
        modes=modes, rates=RateMatrix.uniform(2, 1.0), name="one_way")


def one_way_config(tmp_path) -> str:
    doc = {"schema_version": 1, "problem": serialize_problem(one_way_spec()),
           "numerics": {"dx": 0.05, "ds": 0.05, "s_max": 1.0}, "run": {}, "output": {}}
    return write_config(tmp_path, doc)


# A graph on which node 3 loops on both routes and route 1 leaves nodes 1 and 2 only
# through that loop (every step on route 1 switches to route 2 and back).
UNREACHABLE_GRAPH = {
    "schema_version": 1,
    "problem": {"kind": "graph", "name": "loop", "successors": [[1, 2, 3, 3], [0, 0, 1, 3]],
                "step_costs": [[1, 2, 1, 1], [1, 1, 1, 1]],
                "exit_costs": [[0, 0, 0, 0], [0.5, 0, 0, 0]], "exit_nodes": [0],
                "switch_probs": [[0.0, 1.0], [1.0, 0.0]]},
    "numerics": {"ds": 1.0, "s_max": 4.0}, "run": {}, "output": {},
}


class TestProblemLoading:
    def test_builtin_example1(self):
        spec, grid, numerics, run, output = load_problem("example1")
        assert spec.n_modes == 2
        assert spec.modes[0].dynamics.vector[0] == 1.0
        assert spec.modes[1].dynamics.vector[0] == -1.0
        assert spec.rates.off_diagonal()[0, 1] == 2.0
        assert grid.exit_mask.sum() == 2
        assert spec.modes[0].cost.value == 1.0
        assert spec.modes[0].exit_cost.value == 0.0

    def test_builtin_example3(self):
        spec, grid, *_ = load_problem("example3")
        assert spec.dim == 2 and spec.n_modes == 4
        dirs = np.array([m.dynamics.vector for m in spec.modes])
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        assert np.allclose(spec.rates.off_diagonal()[0, 1:], 1.0)

    def test_round_trip(self, tmp_path):
        for name in catalog.BUILTIN_NAMES:
            spec = catalog.builtin(name)
            doc = {
                "schema_version": 1,
                "problem": serialize_problem(spec),
                "numerics": {"dx": 0.05, "ds": 0.05, "s_max": 0.5},
                "run": {},
                "output": {},
            }
            back, *_ = load_problem(write_config(tmp_path, doc, f"{name}.json"))
            assert specs_equal(spec, back), name

    def test_unknown_keys_rejected(self, tmp_path):
        doc = {
            "schema_version": 1,
            "problem": "example1",
            "numerics": {"dx": 0.1, "ds": 0.1, "s_max": 1.0, "dz": 1},
            "run": {},
            "output": {},
        }
        with pytest.raises(ConfigError, match="dz"):
            load_problem(write_config(tmp_path, doc))

    def test_schema_version_checked(self, tmp_path):
        doc = {"schema_version": 99, "problem": "example1"}
        with pytest.raises(ConfigError, match="schema_version"):
            load_problem(write_config(tmp_path, doc))

    def test_field_path_in_errors(self, tmp_path):
        spec = catalog.example1()
        pdoc = serialize_problem(spec)
        pdoc["modes"][1]["cost"] = {"kind": "mystery"}
        doc = {"schema_version": 1, "problem": pdoc,
               "numerics": {"dx": 0.1, "ds": 0.1, "s_max": 1.0}, "run": {}, "output": {}}
        with pytest.raises(ConfigError, match=r"modes\[1\].cost"):
            load_problem(write_config(tmp_path, doc))

    def test_causality_guard_on_supercritical_spacing(self, tmp_path):
        # a space-varying velocity disables exact boundary capping, so the
        # uniform-step inequality is enforced
        spec = catalog.example1()
        grid = build_grid(spec, 0.1, 0.1, 1.0)
        pdoc = serialize_problem(spec)
        pdoc["modes"][0]["dynamics"] = {
            "kind": "tabulated",
            "values": [[1.0]] * grid.n_nodes,
        }
        doc = {"schema_version": 1, "problem": pdoc,
               "numerics": {"dx": 0.1, "ds": 0.2, "s_max": 1.0}, "run": {}, "output": {}}
        with pytest.raises(NumericsError, match="0.2"):
            load_problem(write_config(tmp_path, doc))

    def test_constant_velocity_supercritical_spacing_allowed(self, tmp_path):
        doc = {"schema_version": 1, "problem": "example6",
               "numerics": {"dx": 5e-2, "ds": 5e-2, "s_max": 0.5}, "run": {}, "output": {}}
        spec, grid, *_ = load_problem(write_config(tmp_path, doc))
        assert grid.ds == 5e-2

    def test_output_format_key_rejected(self, tmp_path):
        doc = {"schema_version": 1, "problem": "example1",
               "numerics": {"dx": 0.05, "ds": 0.05, "s_max": 1.0}, "run": {},
               "output": {"format": "csv"}}
        rc = main(["solve-cdf", "--problem", write_config(tmp_path, doc),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_face_exits_match_the_whole_boundary(self, tmp_path):
        # in 1D the two faces are the whole boundary, so the CDF is the same byte for byte
        cdfs = []
        for exit_doc in ({"kind": "faces", "faces": ["x_min", "x_max"]}, {"kind": "boundary"}):
            pdoc = serialize_problem(catalog.example1())
            pdoc["exit"] = exit_doc
            doc = {"schema_version": 1, "problem": pdoc,
                   "numerics": {"dx": 0.05, "ds": 0.05, "s_max": 1.0}, "run": {}, "output": {}}
            out = tmp_path / exit_doc["kind"]
            assert main(["solve-cdf", "--problem", write_config(tmp_path, doc, f"{out.name}.json"),
                         "--out", str(out)]) == 0
            cdfs.append((out / "cdf.csv").read_bytes())
        assert cdfs[0] == cdfs[1]

    def test_inconsistent_rate_bounds_rejected(self, tmp_path):
        pdoc = serialize_problem(catalog.example4())
        pdoc["rates"] = {"kind": "bounds", "lower": [[0, 4], [4, 0]], "upper": [[0, 1], [1, 0]]}
        doc = {"schema_version": 1, "problem": pdoc,
               "numerics": {"dx": 0.1, "ds": 0.1, "s_max": 1.0}, "run": {}, "output": {}}
        with pytest.raises(ConfigError):
            load_problem(write_config(tmp_path, doc))


class TestCommands:
    def test_solve_cdf_writes_slices_and_manifest(self, tmp_path):
        out = tmp_path / "run1"
        rc = main(["solve-cdf", "--problem", "example1", "--dx", "0.02", "--ds", "0.025",
                   "--s-max", "1.0", "--slice", "s=0.25,0.5,0.75,1.0", "--out", str(out)])
        assert rc == 0
        body = (out / "cdf.csv").read_text()
        lines = body.strip().splitlines()
        assert lines[0] == "x,mode,s,value"
        assert len(lines) == 1 + 4 * 2 * 51
        vals = np.array([float(l.split(",")[-1]) for l in lines[1:]])
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == ["cdf.csv"]
        assert len(manifest["config_sha256"]) == 64

    def test_config_hash_follows_an_edit_in_place(self, tmp_path):
        hashes = []
        for name in ("example1", "example2"):
            doc = {"schema_version": 1, "problem": serialize_problem(catalog.builtin(name)),
                   "numerics": {"dx": 0.1, "ds": 0.1, "s_max": 1.0}, "run": {}, "output": {}}
            cfg = write_config(tmp_path, doc)  # the same path, rewritten
            out = tmp_path / name
            assert main(["min-cost", "--problem", cfg, "--out", str(out)]) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())["config_sha256"])
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize("doc", [
        {"schema_version": 1, "problem": serialize_problem(catalog.example1()),
         "numerics": {"dx": 0.1, "ds": 0.1, "s_max": 1.0}, "run": {}, "output": {}},
        UNREACHABLE_GRAPH], ids=["grid", "graph"])
    def test_config_hash_ignores_where_the_document_lies(self, tmp_path, doc):
        hashes = set()
        for where in ("a", "b"):
            (tmp_path / where).mkdir()
            cfg = write_config(tmp_path / where, doc, f"{where}.json")
            assert main(["min-cost", "--problem", cfg, "--out", str(tmp_path / where)]) == 0
            manifest = json.loads((tmp_path / where / "manifest.json").read_text())
            hashes.add(manifest["config_sha256"])
        assert len(hashes) == 1

    def test_default_sheets_follow_the_grid(self, tmp_path):
        # quarter, half, three quarters and all of s_max, at the nearest levels
        out = tmp_path / "short"
        assert main(["solve-cdf", "--problem", "example1", "--dx", "0.02", "--ds", "0.02",
                     "--s-max", "0.5", "--out", str(out)]) == 0
        lines = (out / "cdf.csv").read_text().strip().splitlines()
        sheets = sorted({float(l.split(",")[2]) for l in lines[1:]})
        assert np.allclose(sheets, [0.12, 0.24, 0.38, 0.5])
        # on a unit grid the defaults are the documented s = 0.25, 0.5, 0.75, 1.0
        args = ["solve-cdf", "--problem", "example1", "--dx", "0.05", "--ds", "0.05",
                "--s-max", "1.0"]
        assert main(args + ["--out", str(tmp_path / "d")]) == 0
        assert main(args + ["--slice", "s=0.25,0.5,0.75,1.0", "--out", str(tmp_path / "e")]) == 0
        assert (tmp_path / "d" / "cdf.csv").read_bytes() == (tmp_path / "e" / "cdf.csv").read_bytes()

    def test_output_dir_from_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = {"schema_version": 1, "problem": "example1",
               "numerics": {"dx": 0.1, "ds": 0.1, "s_max": 1.0}, "run": {},
               "output": {"dir": "wanted_dir"}}
        assert main(["solve-cdf", "--problem", write_config(tmp_path, doc)]) == 0
        assert (tmp_path / "wanted_dir" / "cdf.csv").exists()
        assert not (tmp_path / "out").exists()
        # --out still wins over the config
        assert main(["solve-cdf", "--problem", write_config(tmp_path, doc),
                     "--out", "given"]) == 0
        assert (tmp_path / "given" / "cdf.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["solve-cdf", "--problem", "example1", "--dx", "0.05", "--ds", "0.05",
                "--s-max", "0.5", "--slice", "x=0.3,0.7"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "cdf.csv").read_bytes() == (out_b / "cdf.csv").read_bytes()

    def test_bounds_command(self, tmp_path):
        out = tmp_path / "b"
        rc = main(["bounds", "--problem", "example4", "--dx", "0.02", "--ds", "0.02",
                   "--s-max", "1.0", "--slice", "s=0.5", "--out", str(out)])
        assert rc == 0
        lines = (out / "bounds.csv").read_text().strip().splitlines()
        assert lines[0] == "x,mode,s,value,value_lo,value_hi"
        for line in lines[1:]:
            cells = [float(v) for v in line.split(",")]
            assert cells[-2] <= cells[-1] + 1e-12

    def test_sweep_command(self, tmp_path):
        out = tmp_path / "s"
        rc = main(["sweep", "--problem", "example4", "--dx", "0.05", "--ds", "0.05",
                   "--s-max", "0.5", "--rates", "1,4", "--slice", "s=0.25", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].endswith("rate_12,rate_21,kind")
        assert all(line.endswith("sample") for line in lines[1:])

    def test_sweep_manifest_counts_matrices_and_clamp(self, tmp_path, caplog):
        argv = ["sweep", "--problem", "example4", "--dx", "0.02", "--ds", "0.02",
                "--s-max", "0.5", "--rates", "1,4", "--slice", "s=0.24"]
        with caplog.at_level(logging.DEBUG, logger="pdmp_cdf"):
            assert main(argv + ["--out", str(tmp_path / "s")]) == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        (rec,) = [r for r in caplog.records if "CDF" in r.getMessage()]
        what, count, largest = rec.args
        assert what == "restricted CDF sweep over 4 rate matrices"
        assert manifest["rate_matrices"] == 4
        assert manifest["clamp"] == {"count": count, "largest": largest}
        spec, grid, *_ = load_problem("example4", {"numerics": {"dx": 0.02, "ds": 0.02,
                                                               "s_max": 0.5}})
        rms = default_rate_grid((1.0, 4.0))
        clamp = bounds.fixed_rate_sweep(spec, grid, rms, restrict=stacked_seed(spec, grid, rms))[0].clamp
        assert (clamp.count, clamp.largest) == (count, largest) and count > 0
        doc = {"schema_version": 1, "problem": "example4",
               "numerics": {"dx": 0.02, "ds": 0.02, "s_max": 0.5},
               "run": {"restrict": False}, "output": {}}
        out = tmp_path / "u"
        assert main(["sweep", "--problem", write_config(tmp_path, doc), "--rates", "1,4",
                     "--slice", "s=0.24", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rate_matrices"] == 4 and manifest["clamp"] is None

    @pytest.mark.parametrize("command, problem, numerics", [
        ("solve-cdf", "example2", {"dx": 0.02, "ds": 0.02, "s_max": 1.0}),
        ("bounds", "example4", {"dx": 0.02, "ds": 0.02, "s_max": 1.0}),
        ("threshold", "example5", {"dx": 0.02, "ds": 0.01, "s_max": 0.8}),
        ("sweep", "example4", {"dx": 0.02, "ds": 0.02, "s_max": 1.0}),
    ])
    @pytest.mark.parametrize("restrict", [True, False], ids=["restricted", "plain"])
    def test_sweep_manifests_report_the_clamp_and_min_cost_counters(
            self, tmp_path, command, problem, numerics, restrict):
        doc = {"schema_version": 1, "problem": problem, "numerics": numerics,
               "run": {"restrict": restrict, "slices": ["s=0.4"]}, "output": {}}
        out = tmp_path / "out"
        assert main([command, "--problem", write_config(tmp_path, doc), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        spec, grid, *_ = load_problem(problem, {"numerics": numerics})
        if command == "solve-cdf":
            mc = solve_min_cost(spec, grid) if restrict else None
            clamp = solve_cdf(spec, grid, restrict=mc).clamp
        elif command == "bounds":
            mc = bounds.solve_min_cost_bounds(spec, grid) if restrict else None
            clamp = bounds.solve_bounds(spec, grid, restrict=mc).lower.clamp
        elif command == "sweep":
            rms = default_rate_grid()
            mc = stacked_seed(spec, grid, rms) if restrict else None
            clamp = bounds.fixed_rate_sweep(spec, grid, rms, restrict=mc)[0].clamp
        else:
            mc = solve_min_cost(spec, grid) if restrict else None
            clamp = control.solve_threshold(spec, grid, restrict=mc).w.clamp
        if restrict:
            assert manifest["clamp"] == {"count": clamp.count, "largest": clamp.largest}
            assert manifest["min_cost"] == mc.counters and mc.counters["candidates"] > 0
        else:
            assert manifest["clamp"] is None and "min_cost" not in manifest

    def test_sweep_honours_tau(self, tmp_path):
        # every row of sweep.csv is its matrix's own restricted solve at the configured tau
        doc = {"schema_version": 1, "problem": "example4",
               "numerics": {"dx": 0.05, "ds": 0.05, "s_max": 0.5, "tau": 0.1},
               "run": {}, "output": {}}
        out = tmp_path / "s"
        rc = main(["sweep", "--problem", write_config(tmp_path, doc), "--rates", "1,4",
                   "--slice", "s=0.25,0.5", "--out", str(out)])
        assert rc == 0
        spec, grid, *_ = load_problem("example4", {"numerics": doc["numerics"]})
        fields = {}
        for rm in default_rate_grid((1.0, 4.0)):
            fixed = dataclasses.replace(spec, rates=rm)
            off = rm.off_diagonal()
            fields[off[0, 1], off[1, 0]] = solve_cdf(fixed, grid, tau=0.1,
                                                     restrict=solve_min_cost(fixed, grid)).values
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "x,mode,s,value,rate_12,rate_21,kind"
        for line in lines[1:]:
            x, mode, s_val, value, r12, r21, _ = line.split(",")
            node, level = round(float(x) / grid.dx[0]), round(float(s_val) / grid.ds)
            assert float(value) == fields[float(r12), float(r21)][int(mode) - 1, level, node]

    def test_threshold_then_simulate_policy_file(self, tmp_path):
        out = tmp_path / "t"
        pol = tmp_path / "p.bin"
        rc = main(["threshold", "--problem", "example5", "--dx", "0.01", "--ds", "0.005",
                   "--s-max", "0.6", "--slice", "x=0.4", "--out", str(out),
                   "--policy-out", str(pol)])
        assert rc == 0
        out2 = tmp_path / "sim"
        rc = main(["simulate", "--problem", "example5", "--dx", "0.01", "--ds", "0.005",
                   "--s-max", "0.6", "--policy-in", str(pol), "--threshold", "0.38",
                   "--n", "500", "--seed", "7", "--start", "0.4:1", "--out", str(out2),
                   "--dump-samples"])
        assert rc == 0
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["n_samples"] == 500
        assert manifest["seed"] == 7
        assert (out2 / "samples.csv").exists()
        lines = (out2 / "empirical_cdf.csv").read_text().strip().splitlines()
        assert lines[0] == "cost,cdf"

    def test_hjb_then_evaluate_policy(self, tmp_path):
        pol = tmp_path / "exp.bin"
        rc = main(["hjb", "--problem", "example5", "--dx", "0.02", "--ds", "0.01",
                   "--s-max", "1.0", "--out", str(tmp_path / "h"), "--policy-out", str(pol)])
        assert rc == 0
        rc = main(["evaluate-policy", "--problem", "example5", "--dx", "0.02", "--ds", "0.01",
                   "--s-max", "1.0", "--policy-in", str(pol), "--slice", "x=0.4",
                   "--out", str(tmp_path / "e")])
        assert rc == 0
        lines = (tmp_path / "e" / "policy_cdf.csv").read_text().strip().splitlines()
        vals = np.array([float(l.split(",")[-1]) for l in lines[1:]])
        assert np.all(np.diff(vals.reshape(2, -1), axis=1) >= -1e-12)

    def test_min_cost_command(self, tmp_path):
        out = tmp_path / "m"
        rc = main(["min-cost", "--problem", "example2", "--dx", "0.05", "--ds", "0.05",
                   "--s-max", "1.0", "--out", str(out)])
        assert rc == 0
        lines = (out / "min_cost.csv").read_text().strip().splitlines()
        assert lines[0] == "x,mode,min_cost,attain_prob"
        assert json.loads((out / "manifest.json").read_text())["unreachable_nodes"] == 0

    def test_min_cost_manifest_counts_unreachable_nodes(self, tmp_path):
        spec = one_way_spec()
        out = tmp_path / "m"
        assert main(["min-cost", "--problem", one_way_config(tmp_path), "--out", str(out)]) == 0
        rows = (out / "min_cost.csv").read_text().strip().splitlines()[1:]
        inf_rows = sum(row.split(",")[3] == "inf" for row in rows)
        unreachable = json.loads((out / "manifest.json").read_text())["unreachable_nodes"]
        assert unreachable > 0
        assert unreachable == inf_rows / spec.n_modes

    @pytest.mark.parametrize("problem, flags, candidates", [
        ("example3", [], 4), ("example6", ["--n-angles", "16"], 4 * 16)])
    def test_min_cost_manifest_reports_the_solver_counters(self, tmp_path, caplog, problem,
                                                           flags, candidates):
        out = tmp_path / "m"
        with caplog.at_level(logging.DEBUG, logger="pdmp_cdf"):
            assert main(["min-cost", "--problem", problem, *flags, "--dx", "0.1", "--ds", "0.1",
                         "--out", str(out)]) == 0
        (rec,) = [r for r in caplog.records if r.getMessage().startswith("minimal cost:")]
        counters = json.loads((out / "manifest.json").read_text())["min_cost"]
        keys = ("candidates", "s0_passes", "node_updates", "w0_passes")
        assert counters == dict(zip(keys, rec.args))
        assert counters["candidates"] == candidates and counters["w0_passes"] > 0


    def test_manifest_lists_the_warnings_of_lost_fallbacks(self, tmp_path):
        # the singular-LU problem of test_control: the first frozen policy never exits
        problem = {"dimension": 1, "domain": {"lo": [0.0], "hi": [1.0]}, "exit": {"kind": "boundary"},
                   "modes": [{"dynamics": {"kind": "control_offset", "offset": [0.0]},
                              "cost": {"kind": "constant", "value": 1.0},
                              "exit_cost": {"kind": "constant", "value": 0.0}}],
                   "rates": {"kind": "fixed", "matrix": [[0.0]]},
                   "controls": {"kind": "list", "vectors": [[0.0], [-1.0], [1.0]]}}
        doc = {"schema_version": 1, "problem": problem,
               "numerics": {"dx": 0.1, "ds": 0.1, "s_max": 1.0, "tol": 1e-10}, "run": {}, "output": {}}
        out = tmp_path / "lu"
        assert main(["hjb", "--problem", write_config(tmp_path, doc), "--out", str(out)]) == 0
        warnings = json.loads((out / "manifest.json").read_text())["warnings"]
        assert len(warnings) == 1 and "LU" in warnings[0]
        out = tmp_path / "clean"
        assert main(["hjb", "--problem", "example5", "--dx", "0.1", "--ds", "0.05", "--s-max", "0.5",
                     "--out", str(out)]) == 0
        assert "warnings" not in json.loads((out / "manifest.json").read_text())


class TestExitCodes:
    def test_config_error(self, tmp_path):
        assert main(["solve-cdf", "--problem", "nonexistent.json",
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command,problem", [
        ("solve-cdf", "example1"), ("min-cost", "example1"), ("sweep", "example4"),
        ("bounds", "example4"), ("hjb", "example5"), ("threshold", "example5"),
    ])
    def test_prob_method_is_an_unknown_key(self, tmp_path, command, problem):
        doc = {"schema_version": 1, "problem": problem,
               "numerics": {"dx": 0.05, "ds": 0.05, "s_max": 0.5, "prob_method": "exact"},
               "run": {}, "output": {}}
        assert main([command, "--problem", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_numerics_error(self, tmp_path):
        # spacing does not divide the domain extent
        assert main(["solve-cdf", "--problem", "example1", "--dx", "0.3", "--ds", "0.1",
                     "--s-max", "1.0", "--out", str(tmp_path)]) == EXIT_NUMERICS

    def test_a_running_cost_too_small_for_a_finite_step_exits_3(self, tmp_path):
        # ds / 5e-324 overflows to tau = inf; the sweep used to walk the NaN
        # switch levels of its capped rows up one level at a time, for ever
        problem = readme_problem()
        for mode in problem["modes"]:
            mode["cost"]["value"] = 5e-324
        doc = {"schema_version": 1, "problem": problem,
               "numerics": {"dx": 0.1, "ds": 0.05, "s_max": 0.5}, "run": {}, "output": {}}
        spec, grid, *_ = load_problem(doc)
        with pytest.raises(NumericsError, match="tau=inf is not finite"):
            within(5.0, lambda: solve_cdf(spec, grid))
        assert within(5.0, lambda: main(["solve-cdf", "--problem", write_config(tmp_path, doc),
                                         "--out", str(tmp_path / "o")])) == EXIT_NUMERICS

    def test_convergence_error(self, tmp_path):
        doc = {"schema_version": 1, "problem": "example5",
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 1.0,
                            "tol": 1e-12, "max_iter": 1},
               "run": {}, "output": {}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["hjb", "--problem", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONVERGENCE

    def test_threshold_honours_max_iter(self, tmp_path):
        # the threshold sweep's tie-breaking HJB solve obeys the same cap
        doc = {"schema_version": 1, "problem": "example5",
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 0.5,
                            "tol": 1e-12, "max_iter": 1},
               "run": {}, "output": {}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["threshold", "--problem", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONVERGENCE

    @pytest.mark.parametrize("command", ["hjb", "threshold"])
    @pytest.mark.parametrize("numerics", [
        {"tol": "x"}, {"tol": 0}, {"tol": -1}, {"tol": float("nan")}, {"tol": float("inf")},
        {"tol": True}, {"tol": [1e-8]},
        {"max_iter": "abc"}, {"max_iter": 2.7}, {"max_iter": True}, {"max_iter": 0},
        {"max_iter": -5}, {"max_iter": [3]},
    ])
    def test_bad_iteration_numerics_rejected_before_any_solve(self, tmp_path, monkeypatch,
                                                              capsys, command, numerics):
        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran before numerics.tol and max_iter were checked")

        monkeypatch.setattr(cdf_solver, "solve_min_cost", refuse)
        monkeypatch.setattr(control, "solve_hjb_expectation", refuse)
        # restrict makes threshold's min-cost solve the first one due; hjb does not read it
        doc = {"schema_version": 1, "problem": "example5",
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 0.5, **numerics},
               "run": {"restrict": True} if command == "threshold" else {}, "output": {}}
        assert main([command, "--problem", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        (key,) = numerics
        assert f"configuration error: numerics.{key} must be" in capsys.readouterr().err

    def test_iteration_numerics_range_ends_accepted(self, tmp_path):
        doc = {"schema_version": 1, "problem": "example5",
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 0.5, "tol": 1, "max_iter": 1e0},
               "run": {}, "output": {}}
        assert main(["hjb", "--problem", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == 0


class TestSchema:
    """`cli.SCHEMA` says what each command reads; anything else exits with code 2 before any solve."""

    @pytest.mark.parametrize("command, problem, section, key, value", [
        ("solve-cdf", "example1", "numerics", "tol", 1e-8),
        ("solve-cdf", "example1", "numerics", "max_iter", 0),
        ("solve-cdf", "example1", "run", "samples", "many"),
        ("solve-cdf", "example1", "run", "seed", "x"),
        ("solve-cdf", "example1", "run", "start", 5),
        ("hjb", "example5", "run", "restrict", True),
        ("hjb", "example5", "run", "slices", ["s=abc"]),
        ("min-cost", "example1", "numerics", "tol", "x"),
        ("bounds", "example4", "run", "thresholds", "zz"),
        ("bounds", "example4", "run", "dump_samples", 3),
        ("simulate", "example1", "numerics", "tau", 0.05),
        ("simulate", "example1", "numerics", "tol", -1),
        ("simulate", "example1", "run", "restrict", "no"),
        ("simulate", "example1", "run", "rates", "q"),
    ])
    def test_keys_the_command_does_not_read_rejected_before_any_solve(
            self, tmp_path, monkeypatch, capsys, command, problem, section, key, value):
        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran before the config was checked")

        for mod, name in ((cdf_solver, "solve_min_cost"), (cdf_solver, "solve_cdf"),
                          (bounds, "solve_bounds"), (bounds, "solve_min_cost_bounds"),
                          (control, "solve_hjb_expectation"), (simulate, "run_batch")):
            monkeypatch.setattr(mod, name, refuse)
        doc = {"schema_version": 1, "problem": problem,
               "numerics": {"dx": 0.05, "ds": 0.05, "s_max": 1.0}, "run": {}, "output": {}}
        doc[section][key] = value
        out = tmp_path / "o"
        assert main([command, "--problem", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_CONFIG
        assert f"configuration error: {command} does not read {section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"output": {"dir": 5}}, {"numerics": []}, {"problem": 7}, {"run": {"slices": 5}},
        {"schema_version": True},
    ])
    def test_malformed_documents_rejected(self, tmp_path, monkeypatch, capsys, change):
        monkeypatch.chdir(tmp_path)  # no --out: it would stand in for output.dir
        doc = {"schema_version": 1, "problem": "example1",
               "numerics": {"dx": 0.05, "ds": 0.05, "s_max": 1.0}, "run": {}, "output": {}}
        assert main(["solve-cdf", "--problem", write_config(tmp_path, {**doc, **change})]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}"])
    def test_unreadable_config_files_rejected(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()  # a directory
        else:
            path.write_bytes(content)  # not UTF-8
        assert main(["solve-cdf", "--problem", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(cli.GRID))
    def test_every_flag_in_the_table_is_a_flag_of_its_readers(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        words = set(re.split(r"[\s\[\],]+", capsys.readouterr().out))
        for entry in cli.SCHEMA.values():
            if entry.flag and command in (entry.flag_readers or entry.readers):
                assert entry.flag in words, entry.flag

    # a value each table flag's text reader takes, None for a switch
    FLAG_TEXTS = {"--dx": "0.1", "--ds": "0.1", "--s-max": "1", "--n-angles": "4",
                  "--slice": "s=0.5", "--thresholds": "0.5", "--rates": "1,2", "--n": "10",
                  "--seed": "3", "--start": "0.4:1", "--threshold": "0.5", "--dump-samples": None,
                  "--out": "o"}

    @pytest.mark.parametrize("command, problem", [
        *((command, "example1") for command in sorted(cli.GRID)), ("solve-cdf", "graph"),
        ("min-cost", "graph")])
    def test_flags_the_command_does_not_read_rejected(self, tmp_path, monkeypatch, capsys,
                                                      command, problem):
        monkeypatch.chdir(tmp_path)
        assert set(self.FLAG_TEXTS) == {entry.flag for entry in cli.SCHEMA.values() if entry.flag}
        column = cli.GRAPH if problem == "graph" else command
        if problem == "graph":
            problem = write_config(tmp_path, UNREACHABLE_GRAPH)
        unread = [entry.flag for entry in cli.SCHEMA.values()
                  if entry.flag and column not in (entry.flag_readers or entry.readers)]
        assert unread
        for flag in unread:
            text = self.FLAG_TEXTS[flag]
            argv = [command, "--problem", problem, flag, *([text] if text else [])]
            assert main(argv) == EXIT_CONFIG, flag
            assert "does not read " + flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flags_reach_the_check_as_their_rules_read_them(self, monkeypatch):
        # the types the hand-written flags had, so config_sha256 stays as it was
        seen = {}

        def check(doc, flags, column, name):
            seen.update({key: value for section in flags.values()
                         for key, value in section.items() if value is not None})
            raise ConfigError("checked")

        monkeypatch.setattr(cli, "_check", check)
        argv = [arg for flag, text in self.FLAG_TEXTS.items() for arg in (flag, text) if arg]
        assert main(["simulate", "--problem", "example1", *argv]) == EXIT_CONFIG
        assert seen == {"dx": 0.1, "ds": 0.1, "s_max": 1.0, "n_angles": 4, "slices": ["s=0.5"],
                        "thresholds": "0.5", "rates": "1,2", "samples": 10, "seed": 3,
                        "start": "0.4:1", "threshold": 0.5, "dump_samples": True, "dir": "o"}
        assert {key: type(value) for key, value in seen.items()} == {
            "dx": float, "ds": float, "s_max": float, "n_angles": int, "slices": list,
            "thresholds": str, "rates": str, "samples": int, "seed": int, "start": str,
            "threshold": float, "dump_samples": bool, "dir": str}

    @pytest.mark.parametrize("command, flag, text", [
        ("simulate", "--n", "abc"), ("solve-cdf", "--dx", "abc"), ("simulate", "--seed", "x")])
    def test_flag_text_its_reader_cannot_read_returns_2(self, tmp_path, monkeypatch, capsys,
                                                        command, flag, text):
        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran on an unreadable flag")

        for mod, name in ((cdf_solver, "solve_cdf"), (simulate, "run_batch")):
            monkeypatch.setattr(mod, name, refuse)
        out = tmp_path / "o"
        argv = [command, "--problem", "example1", flag, text, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert f"configuration error: {flag} must be " in capsys.readouterr().err
        assert not out.exists()

    def test_help_and_a_missing_command_still_exit(self, capsys):
        with pytest.raises(SystemExit) as help_exit:
            main(["solve-cdf", "--help"])
        with pytest.raises(SystemExit) as missing:
            main([])
        assert (help_exit.value.code, missing.value.code) == (0, 2)

    def test_readme_table_agrees_with_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = {}
        for line in readme.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split(" | ")]
            if len(cells) == 5 and re.fullmatch(r"`(numerics|run|output)\.\w+`", cells[0]):
                rows[tuple(cells[0].strip("`").split("."))] = cells
        assert set(rows) == set(cli.SCHEMA)
        words = {"all": cli.GRID, "sweeps": cli.SWEEPS}
        for (section, key), entry in cli.SCHEMA.items():
            _, text, _, read_by, flag = rows[section, key]
            assert text == entry.rule.text, key
            commands, _, only = read_by.partition(";")
            readers = set()
            for word in commands.split(","):
                readers |= words.get(word.strip(), {word.strip().strip("`")})
            assert readers == entry.readers, key
            assert (f"`{entry.problem}` only" in only) if entry.problem else not only, key
            assert flag.split(" ")[0].strip("`") == (entry.flag or ""), key
            assert ("not on a graph" in flag) == (entry.flag_readers is not None), key

    def test_readme_example_config_is_valid_for_its_command(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        command, example = re.search(r"A config for `([\w-]+)`:\n\n```json\n(.*?)```", readme,
                                     re.S).groups()
        spec, grid, numerics, run, output = load_problem(
            write_config(tmp_path, json.loads(example)), command=command)
        assert run["slices"] == [("s", [250, 500])] and run["restrict"] is True


DELETE = object()


def edited(doc: dict, changes: dict) -> dict:
    """A deep copy of ``doc`` with each dotted path ('modes.0.cost') set to its value, or deleted."""
    doc = json.loads(json.dumps(doc))
    for path, value in changes.items():
        *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        target = doc
        for key in parents:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    return doc


def key_path(dotted: str) -> str:
    """The error-message path of a dotted path: 'modes.0.cost' -> 'problem.modes[0].cost'."""
    return "problem" + "".join(f"[{k}]" if k.isdigit() else f".{k}" for k in dotted.split(".") if k)


def readme_problem() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"full inline definition:\n\n```json\n(.*?)```", readme, re.S)[1])


LINE_GRAPH = {"kind": "graph", "name": "line", "successors": [[1, 2, 3, 4, 5, 5], [0, 0, 1, 2, 3, 4]],
              "step_costs": [[1, 1, 1, 1, 1, 1]] * 2, "exit_costs": [[0, 0, 0, 0, 0, 0]] * 2,
              "exit_nodes": [0, 5], "switch_probs": [[0.5, 0.5], [0.5, 0.5]]}
CONTROLLED = {"modes.0.dynamics": {"kind": "control_offset", "offset": [0.5]},
              "modes.1.dynamics": {"kind": "control_offset", "offset": [-0.5]}}


def readme_and_table_rows(objects: dict) -> tuple[set, set]:
    """The README's (object, kind, key, value, may be absent) rows of the objects in
    ``objects``, and the same rows made from the table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = set()
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].strip("`") in objects:
            rows.add((*cells[:4], bool(cells[4])))

    def text(shape) -> str:
        if isinstance(shape, cli.Rule):
            return shape.text
        return f"a list of `{shape[0]}` objects" if isinstance(shape, list) else f"the `{shape}` object"

    table = set()
    for name, entry in objects.items():
        for kind, obj in (entry.items() if isinstance(entry, dict) else [("", entry)]):
            kind = f"`{kind}`" if kind else ""
            table |= {(f"`{name}`", kind, f"`{key}`", text(shape), key in obj.optional)
                      for key, shape in obj.keys.items()} or {(f"`{name}`", kind, "", "", False)}
    return rows, table


class TestProblemSchema:
    """`cli.PROBLEM` says what each problem object reads; anything else exits with code 2
    before any solve and names its key path."""

    @pytest.fixture(autouse=True)
    def refuse_solvers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran before the problem was checked")

        for mod, name in ((cdf_solver, "solve_min_cost"), (cdf_solver, "solve_cdf"),
                          (bounds, "solve_bounds"), (bounds, "solve_min_cost_bounds"),
                          (control, "solve_hjb_expectation"), (simulate, "run_batch"),
                          (discrete, "solve_cdf"), (discrete, "solve_min_cost")):
            monkeypatch.setattr(mod, name, refuse)

    def rejected(self, tmp_path, capsys, command, problem, numerics) -> str:
        doc = {"schema_version": 1, "problem": problem, "numerics": numerics, "run": {},
               "output": {}}
        out = tmp_path / "o"
        assert main([command, "--problem", write_config(tmp_path, doc), "--out", str(out)]) \
            == EXIT_CONFIG
        assert not out.exists()
        return capsys.readouterr().err

    # Each document ended in a traceback, or ran with a key ignored or a value
    # coerced, before the problem object was read through one table.
    @pytest.mark.parametrize("command, base, changes, path", [
        # tracebacks
        ("solve-cdf", "grid", {"domain.lo": DELETE}, "problem.domain.lo"),
        ("solve-cdf", "grid", {"dimension": "x"}, "problem.dimension"),
        ("solve-cdf", "grid", {"modes.0.cost.value": "abc"}, "problem.modes[0].cost.value"),
        ("solve-cdf", "grid", {"modes.0.cost.value": None}, "problem.modes[0].cost.value"),
        ("solve-cdf", "grid", {"modes.0.cost": 3}, "problem.modes[0].cost"),
        ("solve-cdf", "grid", {"modes.0.dynamics.vector": "abc"}, "problem.modes[0].dynamics.vector"),
        ("solve-cdf", "grid", {"rates.matrix": [[0, 2], [2]]}, "problem.rates.matrix"),
        ("solve-cdf", "grid", {"rates.matrix": "x"}, "problem.rates.matrix"),
        ("solve-cdf", "grid", {"exit": {"kind": "boxes", "boxes": [[0.2, 0.4]]}}, "problem.exit.boxes"),
        ("solve-cdf", "grid", {"exit": {"kind": "boxes", "boxes": [[[0.2, 0.4, 0.5]]]}},
         "problem.exit.boxes"),
        ("hjb", "grid", {**CONTROLLED, "controls": {"kind": "unit_circle", "n_angles": "x"}},
         "problem.controls.n_angles"),
        ("hjb", "grid", {**CONTROLLED, "controls": {"kind": "list", "vectors": "x"}},
         "problem.controls.vectors"),
        ("solve-cdf", "grid", {"modes.0.cost": {"kind": "tabulated", "values": [1.0] * 10}},
         "modes[0].cost"),
        ("solve-cdf", "grid", {"modes.1.exit_cost": {"kind": "tabulated", "values": [0.0] * 10}},
         "modes[1].exit_cost"),
        ("hjb", "grid", {**CONTROLLED, "controls": {"kind": "list", "vectors": [[1.0, 0.0], [-1.0, 0.0]]}},
         "problem: controls"),
        ("solve-cdf", "graph", {"exit_nodes": [9]}, "problem: exit_nodes"),
        ("min-cost", "graph", {"exit_nodes": "x"}, "problem.exit_nodes"),
        ("solve-cdf", "graph", {"successors": [[1, 2, 3, 4, 5, 5], [0, 0, 1]]}, "problem.successors"),
        ("solve-cdf", "graph", {"step_costs": "x"}, "problem.step_costs"),
        # keys silently ignored
        ("solve-cdf", "grid", {"exit.faces": ["x_min"]}, "problem.exit"),
        ("solve-cdf", "grid", {"exit": {"kind": "faces", "faces": ["x_min"], "boxes": [[[0.0, 0.0]]]}},
         "problem.exit"),
        ("solve-cdf", "grid", {"modes.0.cost.values": [1.0] * 11}, "problem.modes[0].cost"),
        ("solve-cdf", "grid", {"modes.0.dynamics.offset": [0.5]}, "problem.modes[0].dynamics"),
        ("solve-cdf", "grid", {"modes.0.dynamics.values": [[1.0]] * 11}, "problem.modes[0].dynamics"),
        ("solve-cdf", "grid", {"rates.lower": [[0, 1], [1, 0]], "rates.upper": [[0, 3], [3, 0]]},
         "problem.rates"),
        ("solve-cdf", "grid", {"controls.vectors": [[1.0]]}, "problem.controls"),
        # values silently coerced or accepted
        ("solve-cdf", "grid", {"dimension": 1.5}, "problem.dimension"),
        ("solve-cdf", "grid", {"modes.0.dynamics.vector": [[1], [2]]}, "problem.modes[0].dynamics.vector"),
        ("solve-cdf", "grid", {"modes.0.dynamics.vector": [1, 0.5]}, "modes[0].dynamics"),
        ("solve-cdf", "grid", {"modes.0.dynamics": {"kind": "tabulated", "values": [[1.0, 0.0]] * 11}},
         "modes[0].dynamics"),
        ("solve-cdf", "grid", {"name": [1]}, "problem.name"),
        ("min-cost", "graph", {"exit_nodes": [1.5]}, "problem.exit_nodes"),
        ("solve-cdf", "graph", {"successors": [[1, 2, 3, 4, 5, 5], [0, 0, 1.7, 2, 3, 4]]},
         "problem.successors"),
        ("solve-cdf", "graph", {"name": 5}, "problem.name"),
        # policies store action indices as int16: one check for both kinds
        ("hjb", "grid", {**CONTROLLED, "controls": {"kind": "unit_circle", "n_angles": 2**15}},
         "problem.controls: n_angles gives 32768 actions"),
        ("hjb", "grid", {**CONTROLLED, "controls": {"kind": "list", "vectors": [[0.0]] * 2**15}},
         "problem.controls: vectors gives 32768 actions"),
    ])
    def test_malformed_problem_documents_rejected(self, tmp_path, capsys, command, base, changes,
                                                  path):
        if base == "grid":
            problem, numerics = readme_problem(), {"dx": 0.1, "ds": 0.1, "s_max": 1.0}
        else:
            problem, numerics = LINE_GRAPH, {"ds": 1.0, "s_max": 6.0}
        err = self.rejected(tmp_path, capsys, command, edited(problem, changes), numerics)
        assert err.startswith("configuration error: ") and path in err, err

    # A key only another kind of the object reads, keyed by the object's kind, or a
    # required key of an object without kinds.
    OTHER_KINDS_KEY = {"boundary": "faces", "constant": "values", "control_offset": "vector",
                       "fixed": "lower", "bounds": "matrix", "none": "vectors", "list": "n_angles",
                       "unit_circle": "vectors"}
    REQUIRED_KEY = {"": "dimension", "domain": "hi", "modes.0": "exit_cost"}

    @pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
    @pytest.mark.parametrize("obj", ["", "domain", "exit", "modes.0", "modes.0.dynamics",
                                     "modes.0.cost", "modes.1.exit_cost", "rates", "controls"])
    def test_every_builtin_object_rejects_other_kinds_keys_and_missing_keys(
            self, tmp_path, capsys, name, obj):
        problem = serialize_problem(catalog.builtin(name))
        target = problem
        for part in filter(None, obj.split(".")):
            target = target[int(part) if part.isdigit() else part]
        if "kind" in target:
            change = {f"{obj}.{self.OTHER_KINDS_KEY[target['kind']]}": 1}
            what = f"unknown keys at {key_path(obj)}"
        else:
            key = self.REQUIRED_KEY[obj]
            change = {f"{obj}.{key}".lstrip("."): DELETE}
            what = f"missing required key {key_path(obj)}.{key}"
        err = self.rejected(tmp_path, capsys, "solve-cdf", edited(problem, change),
                            {"dx": 0.05, "ds": 0.05, "s_max": 0.5})
        assert what in err, err

    def test_readme_table_agrees_with_the_problem_schema(self):
        rows, table = readme_and_table_rows(cli.PROBLEM)
        assert rows == table

    def test_readme_problem_reads_as_example1(self, tmp_path):
        doc = {"schema_version": 1, "problem": readme_problem(),
               "numerics": {"dx": 0.1, "ds": 0.1, "s_max": 1.0}, "run": {}, "output": {}}
        spec, *_ = load_problem(write_config(tmp_path, doc), command="solve-cdf")
        assert specs_equal(spec, dataclasses.replace(catalog.example1(), name="custom"))


class TestGridNumerics:
    """``dx``, ``ds``, ``s_max`` and ``tau`` are checked before use, and ``hjb`` reads ``tau``."""

    @pytest.mark.parametrize("numerics", [
        {"tau": "abc"}, {"dx": "abc"}, {"ds": "abc"}, {"s_max": "abc"}, {"s_max": math.inf},
        {"tau": True}, {"tau": 0}, {"ds": -0.01}, {"dx": [0.02, 0.02]}, {"dx": [math.nan]},
        {"dx": [True]},
    ])
    def test_bad_config_values_rejected(self, tmp_path, capsys, numerics):
        doc = {"schema_version": 1, "problem": "example1",
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 0.5, **numerics},
               "run": {}, "output": {}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc).replace("Infinity", "1e400"))  # JSON reads 1e400 as inf
        assert main(["solve-cdf", "--problem", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--dx", "nan"], ["--s-max", "nan"], ["--ds", "inf"]])
    def test_bad_flags_rejected(self, tmp_path, capsys, flags):
        assert main(["solve-cdf", "--problem", "example1", *flags,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_hjb_honours_tau(self, tmp_path):
        spec = catalog.example5()
        grid = build_grid(spec, 0.02, 0.01, 1.0)
        doc = {"schema_version": 1, "problem": "example5",
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 1.0, "tau": 0.02},
               "run": {}, "output": {}}
        assert main(["hjb", "--problem", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "t")]) == 0
        assert main(["hjb", "--problem", "example5", "--dx", "0.02", "--ds", "0.01",
                     "--s-max", "1.0", "--out", str(tmp_path / "d")]) == 0
        rows = np.loadtxt(tmp_path / "t" / "expected_cost.csv", delimiter=",", skiprows=1)
        value, policy = control.solve_hjb_expectation(spec, grid, tau=0.02)
        assert np.array_equal(rows[:, 2], value.u.T.reshape(-1))
        assert np.array_equal(rows[:, 3], policy.actions[:, 0, :].T.reshape(-1))
        assert ((tmp_path / "t" / "expected_cost.csv").read_bytes()
                != (tmp_path / "d" / "expected_cost.csv").read_bytes())

    def test_hjb_tau_is_its_expected_cost_step(self, tmp_path):
        # tau = 0.005 breaks the level sweeps' causality rule at ds 0.01 (tau * min C >= ds);
        # hjb's tau is its expected-cost step, which has no such rule
        spec = catalog.example5()
        grid = build_grid(spec, 0.02, 0.01, 1.0)
        doc = {"schema_version": 1, "problem": "example5",
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 1.0, "tau": 0.005},
               "run": {}, "output": {}}
        cfg = write_config(tmp_path, doc)
        assert main(["hjb", "--problem", cfg, "--out", str(tmp_path / "h")]) == 0
        rows = np.loadtxt(tmp_path / "h" / "expected_cost.csv", delimiter=",", skiprows=1)
        value, policy = control.solve_hjb_expectation(spec, grid, tau=0.005)
        assert np.array_equal(rows[:, 2], value.u.T.reshape(-1))
        assert np.array_equal(rows[:, 3], policy.actions[:, 0, :].T.reshape(-1))
        assert main(["threshold", "--problem", cfg, "--out", str(tmp_path / "t")]) == EXIT_NUMERICS

    def test_threshold_tie_break_keeps_its_default_step(self, tmp_path, monkeypatch):
        # tau is the threshold sweep's step; the tie-breaking expectation solve runs at its
        # own default step, as solve_threshold(hjb=None) does
        spec = catalog.example5()
        grid = build_grid(spec, 0.02, 0.01, 0.5)
        want = tmp_path / "want.policy"
        control.save_policy(control.synthesize_policy(
            control.solve_threshold(spec, grid, tau=0.02), spec, grid), str(want))
        steps = []
        solve = control.solve_hjb_expectation
        monkeypatch.setattr(control, "solve_hjb_expectation",
                            lambda *a, **kw: steps.append(kw.get("tau")) or solve(*a, **kw))
        doc = {"schema_version": 1, "problem": "example5",
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 0.5, "tau": 0.02},
               "run": {}, "output": {}}
        got = tmp_path / "got.policy"
        assert main(["threshold", "--problem", write_config(tmp_path, doc), "--policy-out",
                     str(got), "--out", str(tmp_path / "t")]) == 0
        assert steps == [None]
        assert got.read_bytes() == want.read_bytes()


class TestAngleCount:
    """Only the built-in example6 reads ``--n-angles`` and ``numerics.n_angles``."""

    @pytest.mark.parametrize("argv", [
        ["hjb", "--problem", "example5", "--n-angles", "16"],
        ["solve-cdf", "--problem", "example1", "--n-angles", "4"],
        ["min-cost", "--problem", "example3", "--n-angles", "8"],
    ])
    def test_flag_on_another_problem_rejected(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "example6 only" in capsys.readouterr().err

    def test_numerics_on_another_problem_rejected(self, tmp_path):
        doc = {"schema_version": 1, "problem": "example5",
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 0.5, "n_angles": 8},
               "run": {}, "output": {}}
        assert main(["hjb", "--problem", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_custom_unit_circle_problem_rejects_it(self, tmp_path):
        problem = serialize_problem(catalog.example6(8))
        assert problem["controls"] == {"kind": "unit_circle", "n_angles": 8}
        doc = {"schema_version": 1, "problem": problem,
               "numerics": {"dx": 0.1, "ds": 0.05, "s_max": 0.2, "n_angles": 4},
               "run": {}, "output": {}}
        assert main(["min-cost", "--problem", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("angles", ["0", "1", "-3"])
    def test_too_few_angles_flag_rejected(self, tmp_path, capsys, angles):
        # 0 is a count like any other, not a request for the default
        assert main(["min-cost", "--problem", "example6", "--n-angles", angles, "--dx", "0.1",
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "at least 2 angles" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["abc", 2.5, True, 1, 0])
    def test_bad_count_rejected(self, tmp_path, value):
        doc = {"schema_version": 1, "problem": "example6",
               "numerics": {"dx": 0.1, "ds": 0.05, "s_max": 0.2, "n_angles": value},
               "run": {}, "output": {}}
        assert main(["min-cost", "--problem", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_example6_reads_it(self, tmp_path):
        grid = ["--dx", "0.1", "--ds", "0.05", "--s-max", "0.2"]
        for angles in ("4", "8"):
            assert main(["hjb", "--problem", "example6", "--n-angles", angles, *grid,
                         "--policy-out", str(tmp_path / f"{angles}.policy"),
                         "--out", str(tmp_path / angles)]) == 0
            policy = control.load_policy(str(tmp_path / f"{angles}.policy"))
            assert policy.control_set.n_angles == int(angles)


class TestRunValues:
    SIM = ["simulate", "--problem", "example1", "--start", "0.4:1"]

    @pytest.mark.parametrize("flags", [
        ["--n", "0"], ["--n", "-3"],
        ["--seed", "-1"], ["--seed", str(2**64)],
    ])
    def test_bad_flags_rejected(self, tmp_path, flags, capsys):
        assert main(self.SIM + flags + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("run", [
        {"samples": 0}, {"samples": -3}, {"samples": 2.5}, {"samples": "many"},
        {"seed": -1}, {"seed": 2**64}, {"seed": 1.5}, {"seed": True},
    ])
    def test_bad_config_values_rejected(self, tmp_path, run):
        doc = {"schema_version": 1, "problem": "example1", "numerics": {}, "run": run,
               "output": {}}
        assert main(["simulate", "--problem", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, problem, key, value", [
        ("solve-cdf", "example1", "restrict", "false"), ("solve-cdf", "example1", "restrict", 0),
        ("bounds", "example4", "restrict", None), ("sweep", "example1", "restrict", 1),
        ("threshold", "example5", "restrict", "true"),
        ("simulate", "example1", "dump_samples", "no"), ("simulate", "example1", "dump_samples", 1),
    ])
    def test_run_flags_must_be_json_booleans(self, tmp_path, capsys, command, problem, key, value):
        doc = {"schema_version": 1, "problem": problem,
               "numerics": {"dx": 0.05, "ds": 0.025, "s_max": 1.0},
               "run": {key: value}, "output": {}}
        out = tmp_path / "o"
        assert main([command, "--problem", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"run.{key} must be true or false" in capsys.readouterr().err
        assert not out.exists() or not any(out.glob("*.csv"))

    def test_run_flags_take_json_booleans(self, tmp_path):
        def run(command, run_doc, name):
            doc = {"schema_version": 1, "problem": "example1",
                   "numerics": {"dx": 0.05, "ds": 0.025, "s_max": 1.0}, "run": run_doc,
                   "output": {}}
            out = tmp_path / name
            assert main([command, "--problem", write_config(tmp_path, doc, f"{name}.json"),
                         "--out", str(out)]) == 0
            return out

        default = (run("solve-cdf", {}, "default") / "cdf.csv").read_bytes()
        assert (run("solve-cdf", {"restrict": True}, "on") / "cdf.csv").read_bytes() == default
        assert (run("solve-cdf", {"restrict": False}, "off") / "cdf.csv").read_bytes() != default
        sim = {"samples": 5, "start": [[0.4], 1]}
        assert (run("simulate", {**sim, "dump_samples": True}, "dump") / "samples.csv").exists()
        assert not (run("simulate", {**sim, "dump_samples": False}, "nodump")
                    / "samples.csv").exists()

    @pytest.mark.parametrize("start", ["0.4:x", "0.4", "0.4:3", "0.4:0", "2.0:1", "nan:1"])
    def test_bad_start_rejected(self, tmp_path, start):
        assert main(["simulate", "--problem", "example1", "--n", "5", "--start", start,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("start", [[0.4], [[0.4]], [[0.4], "one"], [[0.4], 3], [[True], 1],
                                       ["0.4", 1]])
    def test_bad_config_start_rejected(self, tmp_path, start):
        doc = {"schema_version": 1, "problem": "example1", "numerics": {},
               "run": {"samples": 5, "start": start}, "output": {}}
        assert main(["simulate", "--problem", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_number_flags_read_as_the_config_reads_them(self, tmp_path):
        # '--n 1e1' is "samples": 1e1 and '--seed 3.0' is "seed": 3.0, which a config takes
        hashes = set()
        for n, seed in (("10", "3"), ("1e1", "3.0")):
            out = tmp_path / n
            assert main(self.SIM + ["--n", n, "--seed", seed, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert (manifest["n_samples"], manifest["seed"]) == (10, 3)
            hashes.add(manifest["config_sha256"])
        assert len(hashes) == 1

    def test_range_ends_accepted(self, tmp_path):
        doc = {"schema_version": 1, "problem": "example1", "numerics": {},
               "run": {"samples": 1e1, "seed": 2**64 - 1, "start": [[0.4], 1]},
               "output": {}}
        out = tmp_path / "o"
        assert main(["simulate", "--problem", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["n_samples"], manifest["seed"]) == (10, 2**64 - 1)
        assert main(self.SIM + ["--n", "1", "--seed", "0", "--out", str(tmp_path / "p")]) == 0

    def test_manifest_names_the_stream_and_counts_switches(self, tmp_path):
        out = tmp_path / "o"
        assert main(self.SIM + ["--n", "200", "--seed", "3", "--dump-samples",
                                "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rng"] == "philox4x64-10/v2"
        switches = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)[:, -1]
        assert manifest["switches"] == int(switches.sum()) > 0
        # without a policy every event is a switch or the sample's last event
        assert manifest["events"] == manifest["switches"] + 200

    def ex5_policy(self, tmp_path, n_levels):
        return write_policy(tmp_path / f"levels{n_levels}.policy",
                            ControlSet.from_list([[-1.0], [1.0]]), 2, [0.0], [0.02], (51,),
                            n_levels=n_levels)

    def ex5_config(self, tmp_path, run, problem="example5"):
        doc = {"schema_version": 1, "problem": problem,
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 1.0},
               "run": {"samples": 20, "start": [[0.4], 1], **run}, "output": {}}
        return write_config(tmp_path, doc)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_bad_threshold_flag_rejected(self, tmp_path, value, capsys):
        pol = self.ex5_policy(tmp_path, 3)
        argv = ["simulate", *EX5_GRID, "--n", "20", "--start", "0.4:1", "--policy-in", pol,
                "--out", str(tmp_path / "o")]
        assert main(argv + ["--threshold", "0.3"]) == 0
        assert main(argv + [f"--threshold={value}"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.nan, math.inf, "abc", [0.3], True])
    def test_bad_threshold_value_rejected(self, tmp_path, value):
        pol = self.ex5_policy(tmp_path, 3)
        cfg = self.ex5_config(tmp_path, {"threshold": value})
        assert main(["simulate", "--problem", cfg, "--policy-in", pol,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["abc", math.nan, 0, -1.0, -math.inf, [5.0]])
    def test_bad_horizon_cap_rejected(self, tmp_path, value):
        cfg = self.ex5_config(tmp_path, {"horizon_cap": value})
        assert main(["simulate", "--problem", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_infinite_horizon_cap_accepted(self, tmp_path):
        out = tmp_path / "o"
        cfg = self.ex5_config(tmp_path, {"horizon_cap": math.inf})
        pol = self.ex5_policy(tmp_path, 1)
        assert main(["simulate", "--problem", cfg, "--policy-in", pol, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["censored"] == 0 and manifest["exited"] == 20

    def test_tabulated_costs_run_without_a_policy_only(self, tmp_path, capsys):
        spec = catalog.example1()
        grid = build_grid(spec, 0.02, 0.01, 1.0)
        pdoc = serialize_problem(spec)
        pdoc["modes"][0]["cost"] = {"kind": "tabulated",
                                    "values": (1.0 + grid.points[:, 0]).tolist()}
        doc = {"schema_version": 1, "problem": pdoc,
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 1.0},
               "run": {"samples": 20, "start": [[0.4], 1], "horizon_cap": 5.0}, "output": {}}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--problem", cfg, "--out", str(tmp_path / "o")]) == 0
        pol = self.ex5_policy(tmp_path, 1)
        assert main(["simulate", "--problem", cfg, "--policy-in", pol,
                     "--out", str(tmp_path / "p")]) == EXIT_CONFIG
        assert "policies over tabulated fields" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["example5", "mixed"])
    def test_control_offset_problem_needs_a_policy(self, tmp_path, capsys, problem):
        # a control-offset mode moves only under an action; a constant mode beside it does not
        # make the problem runnable without a policy
        if problem == "mixed":
            pdoc = serialize_problem(catalog.example5())
            pdoc["modes"][0]["dynamics"] = {"kind": "constant", "vector": [0.5]}
            problem = write_config(tmp_path, {"schema_version": 1, "problem": pdoc,
                                              "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 1.0},
                                              "run": {}, "output": {}})
        assert main(["simulate", "--problem", problem, *EX5_GRID[2:], "--n", "20",
                     "--start", "0.4:1", "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "control-offset velocity needs an action" in capsys.readouterr().err

    EX5_DS2 = ["--problem", "example5", "--dx", "0.02", "--ds", "0.02", "--s-max", "1.0"]

    @pytest.mark.parametrize("argv, run", [
        (["solve-cdf", "--problem", "example1", "--slice", "s=abc"], {}),
        (["solve-cdf", "--problem", "example1", "--slice", "s=0.25,nan"], {}),
        (["solve-cdf", "--problem", "example1", "--slice", "x=1.7"], {}),
        (["solve-cdf", "--problem", "example1", "--slice", "x=0.3,"], {}),
        (["solve-cdf", "--problem", "example3", "--slice", "at=0.4:1.2"], {}),
        (["solve-cdf", "--problem", "example3", "--slice", "at=0.4"], {}),
        (["bounds", "--problem", "example4", "--slice", "s=2.0"], {}),
        (["sweep", "--problem", "example4", "--rates", "1,abc"], {}),
        (["sweep", "--problem", "example4", "--rates", "1,inf"], {}),
        (["sweep", "--problem", "example4", "--slice", "x=-0.5"], {}),
        (["threshold", *EX5_DS2, "--thresholds", "abc"], {}),
        (["threshold", *EX5_DS2, "--thresholds", "0.37"], {}),
        (["evaluate-policy", *EX5_DS2, "--slice", "x=2", "--policy-in", "none.policy"], {}),
        (["solve-cdf", "--problem", "example1"], {"slices": [0.25]}),
        (["sweep", "--problem", "example4"], {"rates": ["1", "two"]}),
        (["threshold", *EX5_DS2], {"thresholds": "0.2,abc"}),
        (["threshold", *EX5_DS2], {"thresholds": [0.2, True]}),
        (["min-cost", "--problem", "example1", "--dx", "0.01", "--ds", "0.01", "--slice", "s=abc"],
         {}),
        (["min-cost", "--problem", "example1", "--slice", "s=0.5"], {}),
        (["hjb", "--problem", "example5", "--dx", "0.02", "--ds", "0.01", "--slice", "s=9"], {}),
        (["simulate", "--problem", "example1", "--n", "10", "--slice", "x=5"], {}),
    ])
    def test_bad_export_requests_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys,
                                                          argv, run):
        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran before the export request was checked")

        for mod, name in ((cdf_solver, "solve_min_cost"), (cdf_solver, "solve_cdf"),
                          (bounds, "solve_bounds"), (bounds, "solve_min_cost_bounds"),
                          (bounds, "fixed_rate_sweep"), (control, "solve_hjb_expectation"),
                          (control, "solve_threshold"), (control, "load_policy"),
                          (simulate, "run_batch")):
            monkeypatch.setattr(mod, name, refuse)
        if run:
            problem = argv[argv.index("--problem") + 1]
            doc = {"schema_version": 1, "problem": problem, "numerics": {}, "run": run,
                   "output": {}}
            argv = [*argv]
            argv[argv.index("--problem") + 1] = write_config(tmp_path, doc)
        assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("n_levels", [None, 1])
    def test_threshold_without_level_dependent_policy_rejected(self, tmp_path, n_levels):
        # no policy (on the uncontrolled example1, as example5 needs one), or an
        # expectation policy with one level: nothing reads a threshold
        problem = "example1" if n_levels is None else "example5"
        pol = [] if n_levels is None else ["--policy-in", self.ex5_policy(tmp_path, n_levels)]
        argv = ["simulate", "--problem", problem, *EX5_GRID[2:], "--n", "20", "--start", "0.4:1",
                *pol, "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert main(argv + ["--threshold", "0.3"]) == EXIT_CONFIG
        cfg = self.ex5_config(tmp_path, {"threshold": 0.3}, problem)
        assert main(["simulate", "--problem", cfg, *pol, "--out", str(tmp_path / "p")]) == EXIT_CONFIG


def row_wise_csv(header, rows) -> str:
    """The row-at-a-time formula: repr(float(v)) for floats, str(v) for everything else."""
    return ",".join(header) + "\n" + "".join(
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows)


def test_write_rows_matches_row_wise_formatting(tmp_path):
    # floats are written with repr(float(v)), everything else with str(v), row by row
    tiny = 5e-324
    rows = [
        (1, 0.5, -0.0, "a"), (2, math.inf, -math.inf, "b"), (3, math.nan, tiny, "c"),
        (np.int64(4), np.float64(2.5e-310), 1e300, True), (5, 7, np.float32(0.1), None),
    ]
    rows += [(i, i / 7.0, -i * tiny, f"r{i}") for i in range(6, 40)]
    want = row_wise_csv(["a", "b", "c", "d"], rows)
    exporter = Exporter(str(tmp_path), {}, {})
    columns = Table([np.array(col, dtype=object) for col in zip(*rows)])  # the same Python values
    assert exporter.write_rows("t.csv", ["a", "b", "c", "d"], columns).read_text() == want
    floats = [(0.1 * i, -0.0, tiny * i) for i in range(10_000)]  # several row blocks
    want = "x,y,z\n" + "".join(",".join(map(repr, row)) + "\n" for row in floats)
    columns = Table([np.array(col) for col in zip(*floats)])
    assert exporter.write_rows("f.csv", ["x", "y", "z"], columns).read_text() == want
    assert exporter.write_rows("e.csv", ["x"], Table([np.array([])])).read_text() == "x\n"
    with pytest.raises(ValueError):
        exporter.write_rows("r.csv", ["x", "y"], Table([np.array([1, 3]), np.array([2])]))


def row_wise_field_rows(field_values, grid, slices, lo=None, hi=None):
    """The one-row-at-a-time formula that `_field_rows` builds by columns."""
    rows = []
    m = field_values.shape[0]
    for kind, items in slices:
        if kind == "s":
            for n in items:
                for i in range(m):
                    for k in range(grid.n_nodes):
                        row = [*(float(c) for c in grid.points[k]), i + 1, float(n * grid.ds),
                               float(field_values[i, n, k])]
                        if lo is not None:
                            row += [float(lo[i, n, k]), float(hi[i, n, k])]
                        rows.append(row)
        else:
            for pt in items:
                for i in range(m):
                    curves = [grid.curve(f[i], pt) for f in (field_values, lo, hi) if f is not None]
                    for n in range(grid.n_levels):
                        rows.append([*(float(c) for c in pt), i + 1, float(n * grid.ds),
                                     *(float(c[n]) for c in curves)])
    return rows


@pytest.mark.parametrize("name, dx, texts", [
    ("example1", 0.02, ["s=0.1,0.5", "x=0.3,0.71", "s=1.0"]),
    ("example3", 0.1, ["s=0.2,0.6", "at=0.4:0.3,0.25:0.75"]),
])
def test_field_rows_match_the_row_wise_formula(tmp_path, name, dx, texts):
    spec = catalog.builtin(name)
    grid = build_grid(spec, dx, dx / 3, 1.0)
    rng = np.random.default_rng(4)
    shape = (spec.n_modes, grid.n_levels, grid.n_nodes)
    values, lo, hi = (rng.random(shape) / 3 for _ in range(3))
    slices = _parse_slices(texts, grid)
    exporter = Exporter(str(tmp_path), {}, {})
    for bounds_cols in ({}, {"lo": lo, "hi": hi}):
        want = row_wise_field_rows(values, grid, slices, **bounds_cols)
        got = _field_rows(values, grid, slices, **bounds_cols)
        assert len(got) == len(want)
        header = [f"c{j}" for j in range(len(want[0]))]
        assert (exporter.write_rows("got.csv", header, got).read_bytes()
                == row_wise_csv(header, want).encode())
    got = _field_rows(values, grid, slices, extra=(1.0, 4.0, "sample"))
    want = [row + [1.0, 4.0, "sample"] for row in row_wise_field_rows(values, grid, slices)]
    header = [f"c{j}" for j in range(len(want[0]))]
    assert (exporter.write_rows("extra.csv", header, got).read_bytes()
            == row_wise_csv(header, want).encode())


def fresh_python(code: str, *args: str) -> str:
    """The standard output of ``code`` run by a new interpreter that imports this package."""
    src_dir = str(Path(pdmp_cdf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestSweepMemory:
    """A sweep holds the levels it reads back and the slices its command exports, no whole field."""

    @staticmethod
    def _peak(argv, out) -> int:
        """Peak traced bytes of one command, after a first run has made the imports and caches."""
        assert main([*argv, "--out", str(out / "first")]) == 0
        tracemalloc.start()
        try:
            assert main([*argv, "--out", str(out / "traced")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _whole_field_bytes(name, numerics) -> int:
        spec, grid, *_ = load_problem(name, {"numerics": numerics})
        return spec.n_modes * grid.n_levels * grid.n_nodes * 8

    def test_sweep_peaks_below_its_sixteen_whole_fields(self, tmp_path):
        argv = ["sweep", "--problem", "example4", "--dx", "1e-2", "--ds", "1e-2",
                "--slice", "s=0.5", "--slice", "x=0.3"]
        whole = self._whole_field_bytes("example4", {"dx": 1e-2, "ds": 1e-2})
        assert self._peak(argv, tmp_path) < 16 * whole

    def test_solve_cdf_peaks_below_one_whole_field(self, tmp_path):
        argv = ["solve-cdf", "--problem", "example1", "--slice", "s=0.25,0.5,0.75,1.0",
                "--slice", "x=0.3,0.7"]
        assert self._peak(argv, tmp_path) < self._whole_field_bytes("example1", {})


EX5_COARSE = ["--problem", "example5", "--dx", "0.05", "--ds", "0.05"]


def test_cli_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse takes a noticeable share of start-up; only solvers load it
    assert fresh_python("import sys, pdmp_cdf.cli; print('scipy.sparse' in sys.modules)") == "False"


def test_graph_commands_min_cost_and_simulate_never_import_scipy(tmp_path):
    # importing scipy.sparse takes about as long as a whole graph min-cost or solve-cdf
    graph = write_config(tmp_path, UNREACHABLE_GRAPH, "graph.json")
    policy = str(tmp_path / "ex5.policy")
    assert main(["hjb", *EX5_COARSE, "--policy-out", policy, "--out", str(tmp_path / "h")]) == 0
    runs = [["solve-cdf", "--problem", graph], ["min-cost", "--problem", graph],
            ["min-cost", "--problem", "example1", "--dx", "0.05", "--ds", "0.05"],
            ["min-cost", "--problem", "example3", "--dx", "0.1", "--ds", "0.1"],
            ["simulate", "--problem", "example1", "--n", "200"],
            ["simulate", *EX5_COARSE, "--n", "200", "--policy-in", policy]]
    runs = [[*argv, "--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
    code = ("import json, sys\nfrom pdmp_cdf.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    codes, loaded = json.loads(fresh_python(code, json.dumps(runs)))
    assert codes == [0] * len(runs)
    assert loaded == []


EX5_GRID = ["--problem", "example5", "--dx", "0.02", "--ds", "0.01", "--s-max", "1.0"]


def write_policy(path, control_set, n_modes, lo, dx, shape, n_levels=1):
    n_nodes = int(np.prod(shape))
    policy = Policy(control_set, np.zeros((n_modes, n_levels, n_nodes)),
                    np.zeros((n_modes, n_nodes)), lo, dx, shape, 0.01,
                    provenance="expectation" if n_levels == 1 else "threshold")
    save_policy(policy, str(path))
    return str(path)


class TestPolicyFit:
    @pytest.mark.parametrize("command", [
        ["simulate", "--n", "50", "--start", "0.4:1"], ["evaluate-policy"]])
    @pytest.mark.parametrize("control_set, n_modes, lo, dx, shape", [
        (ControlSet.unit_circle(16), 4, [0.0, 0.0], [0.1, 0.1], (11, 11)),  # dimension
        (ControlSet.from_list([[-1.0], [1.0]]), 3, [0.0], [0.02], (51,)),   # mode count
        (ControlSet.unit_circle(4), 2, [0.0], [0.02], (51,)),               # control dimension
    ])
    def test_mismatched_policy_rejected(self, tmp_path, command, control_set, n_modes, lo, dx,
                                        shape):
        pol = write_policy(tmp_path / "p.policy", control_set, n_modes, lo, dx, shape)
        rc = main([*command, *EX5_GRID, "--policy-in", pol, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("n_modes", [3, None])
    def test_policy_array_lengths_checked(self, tmp_path, n_modes):
        path = tmp_path / "p.policy"
        write_policy(path, ControlSet.from_list([[-1.0], [1.0]]), 2, [0.0], [0.02], (51,))
        doc = json.loads(path.read_text())
        if n_modes is None:
            del doc["n_modes"]
        else:
            doc["n_modes"] = n_modes
        path.write_text(json.dumps(doc))
        rc = main(["evaluate-policy", *EX5_GRID, "--policy-in", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("command", [
        ["simulate", "--n", "50", "--start", "1.5:1"], ["evaluate-policy"]])
    def test_policy_on_another_domain_rejected(self, tmp_path, command):
        # 101 nodes on [0, 1], run on a copy of example5 on [0, 2] that has 101 nodes too
        pol = write_policy(tmp_path / "p.policy", ControlSet.from_list([[-1.0], [1.0]]), 2,
                           [0.0], [0.01], (101,))
        spec = dataclasses.replace(catalog.example5(), hi=np.array([2.0]))
        doc = {"schema_version": 1, "problem": serialize_problem(spec),
               "numerics": {"dx": 0.02, "ds": 0.01, "s_max": 1.0}, "run": {}, "output": {}}
        rc = main([*command, "--problem", write_config(tmp_path, doc), "--policy-in", pol,
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("malformed", ["no_grid", "not_json", "no_n_angles", "missing"])
    def test_malformed_policy_file_exits_2(self, tmp_path, capsys, malformed):
        path = tmp_path / "p.policy"
        write_policy(path, ControlSet.from_list([[-1.0], [1.0]]), 2, [0.0], [0.02], (51,))
        doc = json.loads(path.read_text())
        doc["control_set"] = {"kind": "unit_circle"}
        path.write_text({"no_grid": json.dumps({"format": "pdmp-policy/1", "n_modes": 2}),
                         "not_json": "actions: none", "no_n_angles": json.dumps(doc),
                         "missing": ""}[malformed])
        if malformed == "missing":
            path.unlink()
        rc = main(["evaluate-policy", *EX5_GRID, "--policy-in", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert {"no_grid": "'grid'", "not_json": "not valid JSON", "no_n_angles": "'n_angles'",
                "missing": "cannot read"}[malformed] in capsys.readouterr().err


@pytest.fixture(scope="module")
def ex5_policy(tmp_path_factory) -> dict:
    """The document of the expectation policy that `hjb` saves for example5 at dx 0.05."""
    path = tmp_path_factory.mktemp("policy") / "ex5.policy"
    assert main(["hjb", *EX5_COARSE, "--policy-out", str(path),
                 "--out", str(path.parent / "hjb")]) == 0
    return json.loads(path.read_text())


def int16s(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<i2").tobytes()).decode("ascii")


def key_paths(doc: dict, prefix: str = "") -> list[str]:
    """The dotted path of every key of ``doc``, nested objects' keys included."""
    return [path for key, value in doc.items() for path in [prefix + key, *(
        key_paths(value, f"{prefix}{key}.") if isinstance(value, dict) else [])]]


class TestPolicyFile:
    """`control.POLICY` says what a policy file holds; anything else exits with code 2 before
    any solve and names its key path."""

    N_NODES = 21  # example5 at dx 0.05

    # Each file ran with exit code 0, ended in a traceback, or exited 2 with a wrong
    # message, before the policy file was read through one table.
    @pytest.mark.parametrize("command, changes, path", [
        ("evaluate-policy", {"dtype": "float64"}, "policy.dtype"),
        ("evaluate-policy", {"byte_order": "big"}, "policy.byte_order"),
        ("evaluate-policy", {"n_modes": 2.5}, "policy.n_modes"),
        ("evaluate-policy", {"grid.ds": True}, "policy.grid.ds"),
        ("evaluate-policy", {"grid.shape": ["21"]}, "policy.grid.shape"),
        ("evaluate-policy", {"grid.lo": [None]}, "policy.grid.lo"),
        ("evaluate-policy", {"comment": "hand-edited"}, "unknown keys at policy: ['comment']"),
        ("simulate", {"control_set.vectors": [[True], [1.0]]}, "policy.control_set.vectors"),
        ("evaluate-policy", {"control_set": {"kind": "square"}},
         "unknown controls kind 'square' at policy.control_set"),
        ("evaluate-policy", {"actions_b64": int16s([-1] * 2 * N_NODES)}, "policy: actions"),
        ("simulate", {"fallback_b64": int16s([-1] * 2 * N_NODES)}, "policy: fallback"),
        ("simulate", {"fallback_b64": int16s([99] * 2 * N_NODES)}, "policy: fallback"),
        ("evaluate-policy", {"actions_b64": "not base64!"}, "policy.actions_b64"),
        # more of the same kinds
        ("evaluate-policy", {"format": "pdmp-policy/2"}, "policy.format"),
        ("evaluate-policy", {"grid.dx": [0.0]}, "policy.grid.dx"),
        ("evaluate-policy", {"grid.lo": [0.0, 0.0]}, "policy: grid lo, dx and shape"),
        ("evaluate-policy", {"grid.n_levels": 2}, "policy: actions_b64 and fallback_b64 do not hold"),
        ("evaluate-policy", {"actions_b64": int16s([0] * 2 * N_NODES)[:-4]}, "policy.actions_b64"),
        ("evaluate-policy", {"control_set": {"kind": "list", "vectors": [[1.0]] * 2**15}},
         "policy.control_set: vectors gives 32768 actions"),
        ("evaluate-policy", {"grid": DELETE}, "missing required key policy.grid"),
    ])
    def test_malformed_policy_files_rejected(self, tmp_path, monkeypatch, capsys, ex5_policy,
                                             command, changes, path):
        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran before the policy file was checked")

        for mod, name in ((cdf_solver, "solve_min_cost"), (cdf_solver, "solve_cdf"),
                          (control, "solve_cdf"), (control, "evaluate_policy_cdf"),
                          (control, "solve_hjb_expectation"), (simulate, "run_batch")):
            monkeypatch.setattr(mod, name, refuse)
        policy = tmp_path / "p.policy"
        policy.write_text(json.dumps(edited(ex5_policy, changes)))
        run = ["--n", "50", "--threshold", "0.2"] if command == "simulate" else []
        out = tmp_path / "o"
        assert main([command, *EX5_COARSE, *run, "--policy-in", str(policy),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and path in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["evaluate-policy"],
                                         ["simulate", "--n", "20", "--s-max", "0.5"]])
    def test_config_hash_covers_the_policy_bytes_not_their_path(self, tmp_path, ex5_policy,
                                                                command):
        # two runs that differ only in the policy they read got one config_sha256
        texts = {"a": json.dumps(ex5_policy), "b": json.dumps(ex5_policy),
                 "c": json.dumps(edited(ex5_policy, {"actions_b64": int16s(
                     [0] * 2 * self.N_NODES)}))}
        hashes = {}
        for name, text in texts.items():
            (tmp_path / f"{name}.policy").write_text(text)
            out = tmp_path / name
            assert main([*command, *EX5_COARSE, "--policy-in", str(tmp_path / f"{name}.policy"),
                         "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["policy_sha256"] == hashlib.sha256(text.encode()).hexdigest()
            hashes[name] = manifest["config_sha256"]
        assert hashes["a"] == hashes["b"] != hashes["c"]

    def test_saved_policies_load_to_what_was_saved(self, tmp_path):
        spec = catalog.example6(4)
        grid = build_grid(spec, 0.25, 0.1, 0.3)
        policy = control.synthesize_policy(control.solve_threshold(spec, grid), spec, grid)
        save_policy(policy, str(tmp_path / "p.policy"))
        back = control.load_policy(str(tmp_path / "p.policy"))
        for name in ("actions", "fallback", "lo", "dx"):
            assert np.array_equal(getattr(back, name), getattr(policy, name)), name
        assert (back.shape, back.ds, back.provenance) == (policy.shape, policy.ds, "threshold")
        assert back.control_set.n_angles == 4
        assert np.array_equal(back.control_set.vectors, policy.control_set.vectors)

    @pytest.mark.parametrize("control_set", [None, {"kind": "unit_circle", "n_angles": 2}])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), value=st.sampled_from(
        [None, True, False, "text", math.inf, 10**400, [], [[0], [0, 1]]]))
    def test_any_key_replaced_loads_or_is_a_config_error(self, tmp_path_factory, ex5_policy,
                                                         control_set, data, value):
        doc = edited(ex5_policy, {"control_set": control_set} if control_set else {})
        doc = edited(doc, {data.draw(st.sampled_from(key_paths(doc))): value})
        path = tmp_path_factory.mktemp("replaced") / "p.policy"
        path.write_text(json.dumps(doc))  # math.inf is written as Infinity, as JSON reads 1e400
        try:
            control.load_policy(str(path))
        except ConfigError:
            pass

    def test_readme_table_agrees_with_the_policy_table(self):
        rows, table = readme_and_table_rows(control.POLICY)
        assert rows == table


class TestGraphProblems:
    def graph_doc(self):
        return {
            "schema_version": 1,
            "problem": {
                "kind": "graph",
                "name": "line",
                "successors": [[1, 2, 3, 4, 5, 5], [0, 0, 1, 2, 3, 4]],
                "step_costs": [[1, 1, 1, 1, 1, 1]] * 2,
                "exit_costs": [[0, 0, 0, 0, 0, 0]] * 2,
                "exit_nodes": [0, 5],
                "switch_probs": [[0.5, 0.5], [0.5, 0.5]],
            },
            "numerics": {"ds": 1.0, "s_max": 6.0},
            "run": {},
            "output": {},
        }

    def test_graph_cdf_export(self, tmp_path):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps(self.graph_doc()))
        out = tmp_path / "g_out"
        assert main(["solve-cdf", "--problem", str(cfg), "--out", str(out)]) == 0
        lines = (out / "cdf.csv").read_text().strip().splitlines()
        assert lines[0] == "node,route,s,value"
        assert len(lines) == 1 + 6 * 2 * 7
        # the exit-adjacent node succeeds after one unit step
        row = [l for l in lines if l.startswith("4,1,1.0,")][0]
        assert row.endswith("1.0")

    def test_graph_min_cost_export(self, tmp_path):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps(self.graph_doc()))
        out = tmp_path / "g_mc"
        assert main(["min-cost", "--problem", str(cfg), "--out", str(out)]) == 0
        lines = (out / "min_cost.csv").read_text().strip().splitlines()
        assert lines[0] == "node,route,min_cost,attain_prob"
        assert len(lines) == 1 + 6 * 2

    @pytest.mark.parametrize("change", [
        {"schema_version": 7},
        {"numerics": {"ds": 1.0, "s_mx": 6.0}},
        {"numerics": {"ds": 1.0, "s_max": 6.0, "dx": "bogus"}},
        {"numerics": {"ds": 1.0, "s_max": 6.0, "tau": 1.0}},
        {"numerics": {"ds": "abc", "s_max": 6.0}},
        {"numerics": {"ds": True, "s_max": 6.0}},
        {"numerics": {"ds": 0, "s_max": 6.0}},
        {"numerics": {"ds": 1.0, "s_max": float("inf")}},
        {"numerics": {"ds": 1.0, "s_max": [6.0]}},
        {"run": {"whatever": 1}},
        {"run": {"slices": ["s=1"]}},
        {"output": {"dir": "o", "format": "csv"}},
    ])
    @pytest.mark.parametrize("command", ["solve-cdf", "min-cost"])
    def test_graph_config_checked_like_grid_configs(self, tmp_path, capsys, command, change):
        cfg = write_config(tmp_path, {**self.graph_doc(), **change})
        assert main([command, "--problem", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--slice", "s=99", "--ds", "0.5", "--s-max", "2"], ["--ds", "0.5"], ["--s-max", "2"],
        ["--dx", "0.1"], ["--n-angles", "4"], ["--slice", "s=1"],
    ])
    def test_grid_flags_on_a_graph_rejected(self, tmp_path, flags):
        cfg = write_config(tmp_path, self.graph_doc())
        out = tmp_path / "o"
        assert main(["solve-cdf", "--problem", cfg, *flags, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_graph_numerics_defaults_and_whole_numbers(self, tmp_path):
        doc = self.graph_doc()
        del doc["numerics"]
        out = tmp_path / "d"
        assert main(["solve-cdf", "--problem", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        assert len((out / "cdf.csv").read_text().strip().splitlines()) == 1 + 6 * 2 * 11
        doc["numerics"] = {"ds": 1, "s_max": 6}
        out = tmp_path / "w"
        assert main(["solve-cdf", "--problem", write_config(tmp_path, doc, "w.json"),
                     "--out", str(out)]) == 0
        assert len((out / "cdf.csv").read_text().strip().splitlines()) == 1 + 6 * 2 * 7

    @pytest.mark.parametrize("command", ["bounds", "sweep", "hjb", "threshold", "simulate",
                                         "evaluate-policy"])
    def test_graph_problem_on_a_grid_command_rejected(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, self.graph_doc())
        assert main([command, "--problem", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "graph problems run only solve-cdf and min-cost" in capsys.readouterr().err

    def test_off_grid_slice_threshold_rejected(self, tmp_path):
        rc = main(["solve-cdf", "--problem", "example1", "--dx", "0.02", "--ds", "0.02",
                   "--s-max", "1.0", "--slice", "s=0.25", "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_threshold_policy_map_export(self, tmp_path):
        out = tmp_path / "tmap"
        rc = main(["threshold", "--problem", "example5", "--dx", "0.02", "--ds", "0.01",
                   "--s-max", "0.5", "--thresholds", "0.2,0.4", "--slice", "x=0.4",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "policy_map.csv").read_text().strip().splitlines()
        assert lines[0] == "x,mode,s,action"
        assert len(lines) == 1 + 2 * 2 * 51    # two sheets, two modes
        actions = {int(l.split(",")[-1]) for l in lines[1:]}
        assert actions <= {0, 1}


class TestExportEdgeCases:
    """Files whose rows are unusual; the expected bytes are those of the row-wise writer."""

    def test_all_censored_samples(self, tmp_path):
        doc = {"schema_version": 1, "problem": "example1",
               "numerics": {"dx": 0.05, "ds": 0.05, "s_max": 1.0},
               "run": {"samples": 3, "seed": 5, "start": [[0.5], 2], "horizon_cap": 0.01,
                       "dump_samples": True}, "output": {}}
        out = tmp_path / "o"
        assert main(["simulate", "--problem", write_config(tmp_path, doc), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["censored"] == 3
        assert (out / "empirical_cdf.csv").read_bytes() == b"cost,cdf\n"
        assert (out / "samples.csv").read_bytes() == (
            b"sample,x0_0,mode0,exited,escaped,censored,cost,switches\n"
            b"0,0.5,2,0,0,1,inf,0\n1,0.5,2,0,0,1,inf,0\n2,0.5,2,0,0,1,inf,0\n")

    def test_grid_min_cost_with_unreachable_nodes(self, tmp_path):
        out = tmp_path / "m"
        assert main(["min-cost", "--problem", one_way_config(tmp_path), "--out", str(out)]) == 0
        data = (out / "min_cost.csv").read_bytes()
        assert data.count(b",inf,") == 1494
        assert hashlib.sha256(data).hexdigest() == (
            "3a1322f293e1b5715a17f497d8d9f30d5a62ac341060f48df557f2bcc33ade93")

    def test_graph_min_cost_with_unreachable_node(self, tmp_path):
        out = tmp_path / "m"
        cfg = write_config(tmp_path, UNREACHABLE_GRAPH)
        assert main(["min-cost", "--problem", cfg, "--out", str(out)]) == 0
        assert (out / "min_cost.csv").read_bytes() == (
            b"node,route,min_cost,attain_prob\n0,1,0.0,1.0\n0,2,0.5,1.0\n1,1,inf,0.0\n"
            b"1,2,1.0,1.0\n2,1,inf,0.0\n2,2,inf,0.0\n3,1,inf,0.0\n3,2,inf,0.0\n")


def test_every_exported_table_counts_its_rows(tmp_path, monkeypatch):
    # len() of the table handed to write_rows is the number of data rows in its file
    counted = []
    write_rows = Exporter.write_rows

    def counting(self, name, header, rows):
        path = write_rows(self, name, header, rows)
        counted.append((path, len(rows)))
        return path

    monkeypatch.setattr(Exporter, "write_rows", counting)
    ex1 = ["--problem", "example1", "--dx", "0.05", "--ds", "0.025", "--s-max", "1.0"]
    graph = write_config(tmp_path, UNREACHABLE_GRAPH, "graph.json")
    pol = str(tmp_path / "exp.policy")
    for i, argv in enumerate((
        ["solve-cdf", *ex1, "--slice", "s=0.5", "--slice", "x=0.3"],
        ["solve-cdf", "--problem", graph],
        ["min-cost", *ex1],
        ["min-cost", "--problem", graph],
        ["bounds", "--problem", "example4", "--dx", "0.05", "--ds", "0.025", "--s-max", "1.0"],
        ["sweep", *ex1, "--rates", "1,2", "--slice", "s=0.5", "--slice", "x=0.3"],
        ["hjb", *EX5_GRID, "--policy-out", pol],
        ["threshold", *EX5_GRID, "--slice", "x=0.4", "--thresholds", "0.2,0.4"],
        ["evaluate-policy", *EX5_GRID, "--policy-in", pol],
        ["simulate", *EX5_GRID, "--n", "50", "--start", "0.4:1", "--policy-in", pol,
         "--dump-samples"],
    )):
        assert main([*argv, "--out", str(tmp_path / f"{i}_{argv[0]}")]) == 0
    assert len(counted) == 11
    for path, n_rows in counted:
        assert len(path.read_bytes().splitlines()) == 1 + n_rows, path.name
    assert len((tmp_path / "9_simulate" / "samples.csv").read_bytes().splitlines()) == 1 + 50


# a four-node, two-route graph with exits at both ends; each rejection case below breaks one check
LINE_GRAPH = {"kind": "graph", "name": "line", "successors": [[1, 2, 3, 3], [0, 0, 1, 2]],
              "step_costs": [[1, 1, 1, 1]] * 2, "exit_costs": [[0, 0, 0, 0]] * 2,
              "exit_nodes": [0, 3], "switch_probs": [[0.5, 0.5], [0.5, 0.5]]}
COARSE = ["--dx", "0.1", "--ds", "0.1", "--s-max", "0.5"]


@pytest.mark.parametrize("command,problem,flags,fault", [
    ("evaluate-policy", "example5", COARSE, "evaluate-policy requires --policy-in"),
    ("sweep", "example3", COARSE, "the rate sweep grid is defined for two-mode problems"),
    ("solve-cdf", "example3", [*COARSE, "--slice", "x=0.3"], "bad slice 'x=0.3' for dimension 2"),
    ("solve-cdf", "custom example1", [], "config.numerics.dx is required for custom problems"),
    ("simulate", "example5", ["--n", "10", "--policy-in", "{threshold policy}"],
     "a level-dependent policy needs a cost threshold"),
    ("solve-cdf", {"step_costs": [[1, 1, 1]] * 2}, [], "graph arrays have inconsistent shapes"),
    ("solve-cdf", {"successors": [[1, 2, 4, 3], [0, 0, 1, 2]]}, [],
     "route successors must be valid node indices"),
    ("solve-cdf", {"step_costs": [[1, 0, 1, 1], [1, 1, 1, 1]]}, [],
     "step costs must be strictly positive off the exit set"),
    ("solve-cdf", {"exit_costs": [[0, 0, 0, -1], [0, 0, 0, 0]]}, [],
     "exit costs must be nonnegative"),
    ("solve-cdf", {"switch_probs": [[0.5, 0.4], [0.5, 0.5]]}, [],
     "switch probabilities must be row-stochastic"),
], ids=["evaluate_without_policy", "sweep_on_four_modes", "x_slice_in_2d", "custom_without_dx",
        "threshold_policy_without_threshold", "graph_shapes", "graph_successor",
        "graph_zero_step_cost", "graph_negative_exit_cost", "graph_switch_rows"])
def test_rejections_name_their_fault_and_write_nothing(tmp_path, capsys, command, problem, flags,
                                                       fault):
    if problem == "custom example1":
        problem = write_config(tmp_path, {
            "schema_version": 1, "problem": serialize_problem(catalog.example1()),
            "numerics": {"ds": 0.1, "s_max": 0.5}, "run": {}, "output": {}})
    elif isinstance(problem, dict):  # a change to LINE_GRAPH
        problem = write_config(tmp_path, {
            "schema_version": 1, "problem": {**LINE_GRAPH, **problem},
            "numerics": {"ds": 1.0, "s_max": 4.0}, "run": {}, "output": {}})
    policy = write_policy(tmp_path / "threshold.policy", ControlSet.from_list([[-1.0], [1.0]]),
                          2, [0.0], [0.02], (51,), n_levels=2)
    flags = [policy if flag == "{threshold policy}" else flag for flag in flags]
    out = tmp_path / "o"
    assert main([command, "--problem", problem, *flags, "--out", str(out)]) == EXIT_CONFIG
    assert fault in capsys.readouterr().err
    assert not out.exists()
