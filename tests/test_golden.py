"""Every file `synth`, `backtest` and `diagnose` write for tests/golden/'s
scenario and three run configs (caps on under constant_mix, drift, and an
applied calibration) has the sha256 stored in tests/golden/digests.json,
under the numpy version stored with it. A change that moves an artifact
byte on purpose rewrites the digests with `python tools/golden.py --write`.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_artifacts_match_the_golden_digests(tmp_path):
    stored = json.loads(golden.DIGESTS.read_text())
    digests = golden.artifact_digests(tmp_path)
    problems = golden.mismatch(stored, digests)
    assert not problems, f"artifacts differ from tests/golden/digests.json:\n{problems}"


def test_a_moved_byte_and_a_numpy_change_are_named():
    stored = {"numpy": "0.0.0", "files": {"a/manifest.txt": "0" * 64, "a/returns_dmft.csv": "1" * 64}}
    problems = golden.mismatch(stored, {"a/manifest.txt": "0" * 64, "a/returns_dmft.csv": "2" * 64, "b.csv": "3"})
    assert problems.splitlines() == [
        f"digests made with numpy 0.0.0, regenerated with numpy {golden.np.__version__}",
        "a/returns_dmft.csv: differs",
        "b.csv: not golden",
    ]
