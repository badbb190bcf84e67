"""Every file `synth`, `backtest` and `diagnose` write for tests/golden/'s
scenario and three run configs (caps on under constant_mix, drift, and an
applied calibration) has the sha256 stored in tests/golden/digests.json,
under the numpy version stored with it. A change that moves an artifact
byte on purpose rewrites the digests with `python tools/golden.py --write`.
No artifact byte follows the SIMD code numpy dispatches to on this CPU:
with every dispatch target disabled, the digests and the row kernels'
bytes stay the same.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from factortilt.calibration import average_ranks_rows
from factortilt.factors import _winsorized_rows

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "golden.py"
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


def kernel_digest() -> str:
    """The sha256 of the average ranks and winsorized rows of tie-heavy
    (k, n) stacks: a few distinct values, 0.0 beside -0.0 and both
    infinities, n from 3 to 3,000 (rows short enough for a SIMD sort to
    sort in registers and long enough to partition); and the ranks of
    such stacks with NaNs among them."""
    rng = np.random.default_rng(34)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf])
    h = hashlib.sha256()
    for n in (3, 4, 16, 17, 64, 255, 256, 257, 1000, 3000):
        ties = rng.choice(pool, size=(4, n))
        for x in (ties, np.where(rng.random((4, n)) < 0.5, ties, rng.normal(size=(4, n)))):
            h.update(average_ranks_rows(x).tobytes())
            with np.errstate(invalid="ignore"):  # a bound between two infinities
                for p in (0.01, 0.1, 0.3):
                    h.update(_winsorized_rows(x, p).tobytes())
            h.update(average_ranks_rows(np.where(rng.random((4, n)) < 0.2, np.nan, x)).tobytes())
    return h.hexdigest()


# prints the dispatch targets left on, the kernels' digest, the commands'
# output and last the golden tool's report, then exits with the tool's status
_UNDISPATCHED = """
import sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
import test_golden
print([name for name in __cpu_dispatch__ if __cpu_features__.get(name)])
print(test_golden.kernel_digest())
sys.exit(test_golden.golden.main([]))
"""


def test_no_artifact_bit_follows_numpy_simd_dispatch():
    """numpy ignores a disabled name this CPU lacks, so disabling every
    dispatch target runs its baseline code on any CPU."""
    from numpy._core._multiarray_umath import __cpu_dispatch__  # numpy >= 2

    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(__cpu_dispatch__),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _UNDISPATCHED], env=env, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    assert len(lines) >= 3, run.stderr
    enabled, digest, *_, report = lines
    assert enabled == "[]", run.stderr
    assert digest == kernel_digest()
    stored = json.loads(golden.DIGESTS.read_text())
    assert (run.returncode, report) == (0, f"all {len(stored['files'])} artifacts match their golden digests"), run.stderr
