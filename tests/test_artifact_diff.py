"""tools/artifact_diff.py on a real artifact set: all zeros against a copy of
itself, and each kind of change reported in the file it was made in."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from factortilt.cli import main

from test_cli import write_config

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "artifact_diff.py"
_spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)

ZERO = {"max_abs": 0.0, "max_rel": 0.0, "flips": 0, "other": 0}


@pytest.fixture(scope="module")
def out_dir(synth_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("run")
    assert main(["backtest", "--config", str(write_config(work, synth_dir)), "--out", str(work / "out")]) == 0
    return work / "out"


def edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert text.count(old) == 1, old
    path.write_text(text.replace(old, new))


def test_identical_directories_report_zeros(out_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    reports = artifact_diff.diff_dirs(out_dir, copy)
    assert sorted(reports) == sorted(p.name for p in out_dir.iterdir())
    assert all(r == ZERO for r in reports.values())
    proc = subprocess.run([sys.executable, str(TOOL), str(out_dir), str(copy)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == list(artifact_diff.COLUMNS)
    assert len(proc.stdout.splitlines()) == 1 + len(reports)


def test_each_change_is_reported_in_its_file(out_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    lines = (copy / "weights_dmft.csv").read_text().splitlines()
    date, asset, weight, *rest = lines[1].split(",")
    edit(copy / "weights_dmft.csv", lines[1], ",".join([date, asset, repr(float(weight) * 1.5), *rest]))
    eligible = next(line for line in (copy / "eligibility.csv").read_text().splitlines() if line.endswith(",1"))
    edit(copy / "eligibility.csv", eligible, eligible[:-1] + "0")
    held = (copy / "weights_ew_all.csv").read_text().splitlines()[1]
    edit(copy / "weights_ew_all.csv", held + "\n", "")
    edit(copy / "manifest.txt", "lambda = 0.25", "lambda = 0.3")
    (copy / "returns_dmft.csv").unlink()

    reports = artifact_diff.diff_dirs(out_dir, copy)
    assert reports["weights_dmft.csv"]["max_abs"] == pytest.approx(0.5 * float(weight))
    assert reports["weights_dmft.csv"]["max_rel"] == pytest.approx(1 / 3)
    assert reports["eligibility.csv"]["flips"] == 1
    assert reports["weights_ew_all.csv"] == {**ZERO, "flips": 1}
    assert reports["manifest.txt"] == {**ZERO, "other": 1}
    assert reports["returns_dmft.csv"] == {**ZERO, "other": 1}
    changed = {"weights_dmft.csv", "eligibility.csv", "weights_ew_all.csv", "manifest.txt", "returns_dmft.csv"}
    assert all(r == ZERO for name, r in reports.items() if name not in changed)
    assert artifact_diff.main([str(out_dir), str(copy)]) == 1
