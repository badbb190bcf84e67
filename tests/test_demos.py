"""Every demo script runs to completion against the package in src/, and
each self-check line it prints reads True."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the labels of the "<label>: True" lines a demo prints to check itself
SELF_CHECKS = {
    "02_screens_and_tilts.py": ("all weights equal 1/N",),
    "03_capped_projection.py": ("caps respected", "fully invested"),
}


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = [line.strip() for line in proc.stdout.splitlines()]
    for label in SELF_CHECKS.get(demo.name, ()):
        checks = [line for line in lines if line.startswith(f"{label}:")]
        assert checks == [f"{label}: True"], (label, checks)
