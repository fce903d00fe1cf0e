"""The same-answers tool (tools/same_answers.py) at the benchmark's tiny size."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import same_answers  # noqa: E402


def test_a_tree_against_itself_reports_nothing(capsys):
    assert same_answers.compare(ROOT / "src", ROOT / "src", sizes=["tiny"]) == []
    # and one peak-RSS line per workload, from each tree's own process
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" peak RSS: ")[0] for line in lines] == [
        f"{workload}/tiny" for workload in same_answers.WORKLOADS]
    for line in lines:
        old, new = (float(v) for v in re.findall(r"(?:old|new) ([0-9.]+) MB", line))
        assert old > 10.0 and new > 10.0


def test_a_changed_tree_reports_exactly_what_changed(tmp_path):
    # graph CDF values flipped and graph min-cost made to fail: the graph
    # solve-cdf files differ, and the graph min-cost exits 2 without its CSV
    shutil.copytree(ROOT / "src", tmp_path / "src")
    cli = tmp_path / "src" / "pdmp_cdf" / "cli.py"
    text = cli.read_text()
    for old, new in (
        ("w.values.transpose(2, 0, 1).reshape(-1)])",
         "1.0 - w.values.transpose(2, 0, 1).reshape(-1)])"),
        ("    s0, w0 = discrete.solve_min_cost(g)\n",
         "    raise ConfigError('changed')\n"),
    ):
        assert text.count(old) == 1
        text = text.replace(old, new)
    cli.write_text(text)
    found = same_answers.compare(ROOT / "src", tmp_path / "src", ["uncontrolled"], ["tiny"])
    heads = {line.split("\n")[0] for line in found}
    assert heads == {
        "uncontrolled/tiny graph_min_cost: exit code 0 -> 2",
        "uncontrolled/tiny round/graph_min_cost/min_cost.csv: missing under the new tree",
        "uncontrolled/tiny round/graph_min_cost/manifest.json: missing under the new tree",
        "uncontrolled/tiny round/graph_cdf/cdf.csv: differs",
        "uncontrolled/tiny round/small_graph_0_cdf/cdf.csv: differs",
        "uncontrolled/tiny round/small_graph_1_cdf/cdf.csv: differs",
    }
    # each difference names the command that wrote the file
    cdf = next(line for line in found if "round/graph_cdf/cdf.csv" in line)
    assert "old argv ['solve-cdf', '--problem', '{work}/setup/graph.json']" in cdf


def test_a_revision_is_extracted_with_git_archive(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    src = same_answers.extract("HEAD", tmp_path)
    assert (src / "pdmp_cdf" / "cli.py").is_file()
    with pytest.raises(RuntimeError):
        same_answers.extract("no-such-revision", tmp_path / "none")
