"""The columnar artifact writer against the row-wise writer it replaced.

`_fmt`, `oracle_write` and the `oracle_*` row builders are the CLI's
artifact code as it was before artifacts were built from whole columns:
every cell through `_fmt`, one `csv.writer.writerow` per row, and rows
built one tuple at a time from the screen values, factor matrices and
weight vectors. Artifacts must stay byte-identical to what they write.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factortilt import cli
from factortilt.backtest import STRATEGIES, run_baselines, run_factor_removals
from factortilt.calibration import build_ic_series, information_ratio, ir_to_alpha
from factortilt.eligibility import compute_eligibility
from factortilt.factors import FACTORS, build_factor_matrix
from factortilt.stats import factor_redundancy, summarize

IC_NOTE = "# forward window starts at the rebalance date and overlaps the holding period\n"


def _fmt(x) -> str:
    if isinstance(x, float):  # covers numpy float scalars
        if math.isnan(x):
            return ""
        return repr(float(x))
    return str(x)


def oracle_write(path: Path, *tables, note: str = "") -> None:
    """(header, rows) tables as csv.writer writes them, a blank row between."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(note)
        writer = csv.writer(fh)
        for k, (header, rows) in enumerate(tables):
            if k:
                writer.writerow([])
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------- property

SPECIAL = [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
           1e-310, 1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e-5, 0.1, 1.0 / 3.0]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
ints = st.integers(-(2**62), 2**62)
# no field of an artifact needs quoting: no ',', '"', CR or LF
texts = st.text(st.characters(exclude_characters=',"\r\n', exclude_categories=("Cs",)), max_size=6)


@st.composite
def tables(draw):
    """A header and, per column, what the new writer is given and the cells
    the old row loop saw: floats as a float64 array (numpy or Python float
    cells), ints as an int64 array (numpy cells) or a list of Python ints,
    strings as a list."""
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["float_np", "float_py", "int_np", "int_py", "str"]),
                          min_size=2, max_size=6))
    header = [f"c{j}" for j in range(len(kinds))]
    columns, cells = [], []
    for kind in kinds:
        if kind.startswith("float"):
            col = np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64)
            columns.append(col)
            cells.append(list(col) if kind == "float_np" else col.tolist())
        elif kind == "int_np":
            col = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
            columns.append(col)
            cells.append(list(col))
        else:
            col = draw(st.lists(ints if kind == "int_py" else texts, min_size=n, max_size=n))
            columns.append(col)
            cells.append(col)
    return header, columns, list(zip(*cells))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(first=tables(), second=st.one_of(st.none(), tables()), note=st.sampled_from(["", IC_NOTE]))
def test_columnar_writer_matches_csv_writer(first, second, note):
    header, columns, rows = first
    new_tables, old_tables = [(header, columns)], [(header, rows)]
    if second is not None:
        new_tables.append(second[:2])
        old_tables.append((second[0], second[2]))
    with TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        cli._write_csv(new, *new_tables, note=note)
        oracle_write(old, *old_tables, note=note)
        assert new.read_bytes() == old.read_bytes()


def test_zero_row_table_is_its_header(tmp_path):
    cli._write_csv(tmp_path / "t.csv", (["date", "value"], [[], np.empty(0)]))
    assert (tmp_path / "t.csv").read_bytes() == b"date,value\r\n"


def test_columns_of_unequal_length_are_refused(tmp_path):
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "t.csv", (["date", "value"], [["2020-01-02"], np.empty(0)]))


# ------------------------------------------- the CLI's artifacts, file by file

def oracle_screens(panel, universes, matrices):
    rows = []
    for t, uni in universes.items():
        for a in panel.assets:
            sv = uni.screen_values[a]
            rows.append((t, a, sv.history, sv.adv, int(a in uni)))
    yield "eligibility.csv", ["date", "asset", "history_days", "adv", "eligible"], rows
    rows = []
    for t, m in matrices.items():
        for i, a in enumerate(m.assets):
            for j, f in enumerate(FACTORS):
                rows.append((t, a, f, float(m.raw[i, j]), float(m.z[i, j])))
    yield "factors.csv", ["date", "asset", "factor", "raw", "z"], rows


def oracle_weight_rows(result):
    for wv in result.weights:
        held = np.flatnonzero(wv.w)
        mults = wv.multipliers[held] if wv.multipliers is not None else np.ones(len(held))
        caps = wv.caps[held] if wv.caps is not None else np.full(len(held), np.nan)
        for i, x, m, c in zip(held.tolist(), wv.w[held].tolist(), mults.tolist(), caps.tolist()):
            yield wv.t, wv.assets[i], x, m, c


def oracle_results(results, cfg):
    for name in STRATEGIES:
        res = results[name]
        yield f"returns_{name}.csv", ["date", "return", "equity"], zip(res.dates, res.daily_returns, res.equity_curve)
        yield f"turnover_{name}.csv", ["date", "turnover", "cost"], zip(res.rebalance_dates, res.turnover, res.costs)
        yield (f"weights_{name}.csv", ["date", "asset", "weight", "multiplier", "cap"],
               oracle_weight_rows(res))
    benchmark = results["ew_eligible"]
    for name in STRATEGIES:
        report = summarize(results[name], benchmark=benchmark, n_trials=cfg.n_trials, nw_lag=cfg.nw_lag)
        yield f"stats_{name}.csv", ["metric", "value"], report.rows()


def oracle_ic_ir(path, ics, m_min):
    """ic_ir.csv as the row loop wrote it, into `path`."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(IC_NOTE)
        writer = csv.writer(fh)
        writer.writerow(["factor", "date", "ic"])
        for f in sorted(ics):
            for d, v in zip(ics[f].dates, ics[f].values):
                writer.writerow([f, d, _fmt(float(v))])
        writer.writerow([])
        writer.writerow(["factor", "ir", "alpha"])
        if ics:
            alpha = ir_to_alpha(ics, m_min)
            for f in sorted(ics):
                writer.writerow([f, _fmt(information_ratio(ics[f].values, m_min)), _fmt(alpha[f])])


def oracle_diagnostics(matrices, removals):
    factors, corr, marginal = factor_redundancy(matrices.values(), removals)
    rows = []
    for i, fi in enumerate(factors):
        for j, fj in enumerate(factors):
            if i < j:
                rows.append(("correlation", fi, fj, float(corr[i, j])))
    for f in factors:
        rows.append(("marginal_sharpe", f, "", marginal[f]))
    return rows


CONFIG = """
[data]
prices = {data}/prices.csv
volumes = {data}/volumes.csv
mktcap = {data}/mktcap.csv
fundamentals = {data}/fundamentals.csv

[run]
start = 2020-06-01
end = 2022-06-30
cost_rate = 0.0005

[eligibility]
h_min = 120
adv_min = 1000.0
l_adv = 21

[factors]
l_mom = 120
skip = 10

[calibration]
horizon = 60
m_min = 2
apply = {apply}
"""


def late_listing(synth_dir: Path, tmp_path: Path) -> Path:
    """synth_dir with A009 unpriced before 2021-01-01, so its history and ADV
    are 0 and NaN (an empty field) at the first rebalance dates."""
    data = tmp_path / "late"
    data.mkdir()
    for name in ("volumes", "mktcap", "fundamentals"):
        (data / f"{name}.csv").write_bytes((synth_dir / f"{name}.csv").read_bytes())
    lines = (synth_dir / "prices.csv").read_text().splitlines(keepends=True)
    (data / "prices.csv").write_text("".join(l for l in lines if not (",A009," in l and l < "2021-01-01")))
    return data


@pytest.mark.parametrize("command, variant", [
    ("backtest", "plain"), ("backtest", "calibrated"), ("backtest", "calibrated_capped"),
    ("backtest", "late_listing"), ("diagnose", "plain"),
])
def test_cli_artifacts_equal_the_row_writer(synth_dir, tmp_path, command, variant):
    data = late_listing(synth_dir, tmp_path) if variant == "late_listing" else synth_dir
    text = CONFIG.format(data=data, apply="calibrated" in variant)
    if variant.endswith("capped"):
        text += "\n[caps]\nenabled = true\nc_max = 0.18\nkappa = 0.12\n"
    (tmp_path / "run.ini").write_text(text)
    out, expected = tmp_path / "out", tmp_path / "expected"
    expected.mkdir()
    assert cli.main([command, "--config", str(tmp_path / "run.ini"), "--out", str(out)]) == 0

    cfg = cli.load_config(tmp_path / "run.ini")
    panel, schedule = cli._load_inputs(cfg)
    config = cfg.backtest
    universes = {t: compute_eligibility(panel, t, config.eligibility) for t in schedule.dates}
    matrices = {t: build_factor_matrix(panel, u, t, config.factors) for t, u in universes.items() if u.members}
    if command == "backtest":
        if cfg.calibration.apply:
            alpha = ir_to_alpha(build_ic_series(panel, schedule, matrices, cfg.calibration), cfg.calibration.m_min)
            assert set(alpha) == set(FACTORS)  # the calibrated weights differ from the plain ones
            config = replace(config, tilt=replace(config.tilt, alpha=alpha))
        results = run_baselines(panel, schedule, config, end=cfg.end)
        for name, header, rows in [*oracle_screens(panel, universes, matrices), *oracle_results(results, cfg)]:
            oracle_write(expected / name, (header, rows))
    else:
        oracle_ic_ir(expected / "ic_ir.csv", build_ic_series(panel, schedule, matrices, cfg.calibration),
                     cfg.calibration.m_min)
        removals = run_factor_removals(panel, schedule, config, end=cfg.end)
        oracle_write(expected / "factor_diagnostics.csv",
                     (["metric", "factor_a", "factor_b", "value"], oracle_diagnostics(matrices, removals)))

    written = {p.name for p in out.iterdir()} - {"manifest.txt"}
    assert written == {p.name for p in expected.iterdir()}
    for name in sorted(written):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
    if variant.endswith("capped"):  # the cap column is filled, not only blank
        assert any(line.split(",")[4] for line in (out / "weights_dmft.csv").read_text().splitlines()[1:])
    if variant == "late_listing":
        assert b"2020-07-01,A009,0,,0\r\n" in (out / "eligibility.csv").read_bytes()
