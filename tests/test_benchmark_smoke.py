"""The benchmark's smoke run: a tiny scenario through every workload path,
checking its outputs and that it emits every metric BENCHMARK.json names.
It calls the library the way the benchmark's tracer and checks do, so an
API change that breaks them fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "smoke: OK" in proc.stdout
