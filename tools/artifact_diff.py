"""Compare two factortilt `--out` directories file by file.

    python tools/artifact_diff.py OLD_DIR NEW_DIR

For every file in either directory it prints one line: the largest absolute
and relative change of a numeric cell, the number of flips, and the number
of other differences. CSV rows are matched on their key columns (date,
asset, factor, metric, factor_a, factor_b), each table of a file on its
own. A flip is a key whose eligibility (`eligible` is not 0), holding
(`weight` > 0) or, in a table with neither column, presence differs. Other
differences are cells that differ and are not both numbers, and for a file
that is not CSV (the manifest), lines that differ. A file in one directory
only counts as one other difference. The exit status is 0 when every
figure is zero and 1 otherwise, so a change that claims byte-identical
artifacts can be gated on it, and a change that does not can show how far
its artifacts moved.
"""

from __future__ import annotations

import argparse
import difflib
import math
import sys
from pathlib import Path

KEYS = ("date", "asset", "factor", "metric", "factor_a", "factor_b")
COLUMNS = ("file", "max_abs", "max_rel", "flips", "other")


def read_tables(path: Path) -> list[tuple[list[str], list[list[str]]]]:
    """The CSV tables of an artifact: blocks of lines separated by blank
    lines, each led by its header; lines starting with '#' are notes."""
    tables, block = [], []
    for line in path.read_text(encoding="utf-8").splitlines() + [""]:
        if line.startswith("#"):
            continue
        if line.strip():
            block.append(line.split(","))
        elif block:
            tables.append((block[0], block[1:]))
            block = []
    return tables


def keyed(header: list[str], rows: list[list[str]]) -> dict[tuple, dict[str, str]]:
    """Rows keyed by their key cells (unique in every artifact table), each
    a mapping of value column to cell."""
    at = [i for i, name in enumerate(header) if name in KEYS]
    return {tuple(row[i] for i in at): {name: cell for i, (name, cell) in enumerate(zip(header, row)) if i not in at}
            for row in rows}


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _member(row: dict[str, str] | None) -> bool:
    if row is None:
        return False
    if "eligible" in row:
        return _number(row["eligible"]) != 0
    if "weight" in row:
        return (_number(row["weight"]) or 0.0) > 0
    return True


def _change(a: float, b: float) -> tuple[float, float]:
    """(absolute, relative) change from a to b; NaN equals NaN, and a change
    to or from a non-finite value is infinite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    diff = abs(a - b)
    return diff, diff / max(abs(a), abs(b))


def compare_csv(old: Path, new: Path) -> dict[str, float]:
    report = {"max_abs": 0.0, "max_rel": 0.0, "flips": 0, "other": 0}
    old_tables, new_tables = read_tables(old), read_tables(new)
    report["other"] += abs(len(old_tables) - len(new_tables))
    for (old_header, old_rows), (new_header, new_rows) in zip(old_tables, new_tables):
        if old_header != new_header:
            report["other"] += 1
            continue
        a, b = keyed(old_header, old_rows), keyed(new_header, new_rows)
        for key in a.keys() | b.keys():
            ra, rb = a.get(key), b.get(key)
            report["flips"] += _member(ra) != _member(rb)
            if ra is None or rb is None:
                continue
            for name, cell in ra.items():
                if cell == rb[name]:
                    continue
                x, y = _number(cell), _number(rb[name])
                if x is None or y is None:
                    report["other"] += 1
                    continue
                diff, rel = _change(x, y)
                report["max_abs"] = max(report["max_abs"], diff)
                report["max_rel"] = max(report["max_rel"], rel)
    return report


def compare_file(old: Path, new: Path) -> dict[str, float]:
    if not (old.exists() and new.exists()):
        return {"max_abs": 0.0, "max_rel": 0.0, "flips": 0, "other": 1}
    if old.suffix == ".csv":
        return compare_csv(old, new)
    a, b = old.read_text(encoding="utf-8").splitlines(), new.read_text(encoding="utf-8").splitlines()
    opcodes = difflib.SequenceMatcher(a=a, b=b, autojunk=False).get_opcodes()
    changed = sum(max(i2 - i1, j2 - j1) for tag, i1, i2, j1, j2 in opcodes if tag != "equal")
    return {"max_abs": 0.0, "max_rel": 0.0, "flips": 0, "other": changed}


def diff_dirs(old_dir: Path, new_dir: Path) -> dict[str, dict[str, float]]:
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    return {name: compare_file(old_dir / name, new_dir / name) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="an --out directory")
    parser.add_argument("new", type=Path, help="the --out directory to compare with it")
    args = parser.parse_args(argv)
    for d in (args.old, args.new):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    reports = diff_dirs(args.old, args.new)
    width = max(map(len, [*reports, COLUMNS[0]]))
    print(f"{COLUMNS[0]:<{width}}  " + "  ".join(f"{c:>10}" for c in COLUMNS[1:]))
    for name, r in reports.items():
        print(f"{name:<{width}}  {r['max_abs']:>10.3g}  {r['max_rel']:>10.3g}  {r['flips']:>10}  {r['other']:>10}")
    return int(any(r["max_abs"] or r["flips"] or r["other"] for r in reports.values()))


if __name__ == "__main__":
    sys.exit(main())
