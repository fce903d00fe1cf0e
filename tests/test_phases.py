"""The phases tool (tools/phases.py) at its coarse size."""

import re
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import phases  # noqa: E402


def test_a_tree_against_itself_reports_nothing(capsys):
    assert phases.compare(ROOT / "src", ROOT / "src", "coarse") == []
    # one line per run with every phase's wall time and peak RSS, then one per phase
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["pair 1 old", "pair 1 new", *phases.PHASES]
    for line in lines[:2]:
        found = re.findall(r"(\w+) ([0-9.]+) s \(([0-9]+) MiB\)", line)
        assert [name for name, _, _ in found] == list(phases.PHASES)
        assert all(int(rss) > 10 for _, _, rss in found)


def test_a_changed_tree_reports_exactly_what_changed(tmp_path):
    # V raised by one at every entry: only V differs, by exactly one
    shutil.copytree(ROOT / "src", tmp_path / "src")
    control = tmp_path / "src" / "pdmp_cdf" / "control.py"
    text = control.read_text()
    old = "w=wf, v=v, actions=actions"
    assert text.count(old) == 1
    control.write_text(text.replace(old, "w=wf, v=v + 1.0, actions=actions"))
    found = phases.compare(ROOT / "src", tmp_path / "src", "coarse")
    assert len(found) == 1
    assert re.fullmatch(r"pair 1 v: (\d+) of \1 entries differ, largest difference 1", found[0])
