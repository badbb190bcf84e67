"""Golden artifact digests: one sha256 per file that `synth`, `backtest` and
`diagnose` write for the scenario and run configs in tests/golden/.

    PYTHONPATH=src python tools/golden.py           # regenerate; exit 1 and name what differs
    PYTHONPATH=src python tools/golden.py --write   # regenerate and store the digests

`synth` runs on tests/golden/scenario.ini, then `backtest` and `diagnose`
on every other .ini there, in process, inside a temporary directory that
is the working directory meanwhile, so that the data paths the manifests
echo are the relative ones of the configs. The parsed-panel cache, a
hidden file, is not an artifact. tests/golden/digests.json also records
the numpy version the digests were made with: a change that moves an
artifact byte on purpose rewrites the file in the same commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from factortilt.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DIGESTS = GOLDEN / "digests.json"


def artifact_digests(work: Path) -> dict[str, str]:
    """Write the golden artifacts under the empty directory `work` and
    return the sha256 of each, keyed by its path relative to `work`."""
    cwd = os.getcwd()
    os.chdir(work)
    try:
        runs = [["synth", str(GOLDEN / "scenario.ini"), "--out", "data"]]
        for config in sorted(GOLDEN.glob("*.ini")):
            if config.name != "scenario.ini":
                shutil.copy(config, config.name)
                runs += [[step, "--config", config.name, "--out", f"{config.stem}/{step}"]
                         for step in ("backtest", "diagnose")]
        for argv in runs:
            if cli_main(argv) != 0:
                raise RuntimeError(f"factortilt {' '.join(argv)} failed")
    finally:
        os.chdir(cwd)
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*"))
            if p.is_file() and p.parent != work and not any(part.startswith(".") for part in p.relative_to(work).parts)}


def mismatch(stored: dict, digests: dict[str, str]) -> str:
    """What differs between the stored digest record and these digests
    made with this numpy, or '' when nothing does."""
    lines = []
    if stored["numpy"] != np.__version__:
        lines.append(f"digests made with numpy {stored['numpy']}, regenerated with numpy {np.__version__}")
    want = stored["files"]
    lines += [f"{name}: {'missing' if name not in digests else 'not golden' if name not in want else 'differs'}"
              for name in sorted(want.keys() | digests.keys()) if want.get(name) != digests.get(name)]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"store the digests in {DIGESTS.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        digests = artifact_digests(Path(work))
    if args.write:
        DIGESTS.write_text(json.dumps({"numpy": np.__version__, "files": digests}, indent=1) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS}")
        return 0
    problems = mismatch(json.loads(DIGESTS.read_text()), digests)
    print(problems or f"all {len(digests)} artifacts match their golden digests")
    return int(bool(problems))


if __name__ == "__main__":
    sys.exit(main())
