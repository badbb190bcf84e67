"""What a factortilt process loads at start-up. The pytest process itself
has scipy.stats loaded (the oracle tests import it), so each check runs in
a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import write_config

SRC = Path(__file__).resolve().parents[1] / "src"

# after running the given code, prints the loaded scipy modules as the last line
PROBE = """
import json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def loaded_scipy_modules(code: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PROBE.format(code=code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["factortilt", "factortilt.cli"])
def test_import_loads_no_scipy(module):
    assert loaded_scipy_modules(f"import {module}") == []


@pytest.mark.parametrize("command", ["validate", "synth", "backtest", "diagnose"])
def test_command_loads_no_scipy(tmp_path, synth_dir, command):
    if command == "synth":
        scenario = tmp_path / "s.ini"
        scenario.write_text("n_assets = 4\nn_days = 30\n")
        argv = ["synth", str(scenario), "--out", str(tmp_path / "out")]
    else:
        argv = [command, "--config", str(write_config(tmp_path, synth_dir)), "--out", str(tmp_path / "out")]
    code = f"from factortilt import cli\nassert cli.main({argv!r}) == 0"
    assert loaded_scipy_modules(code) == []
