"""Properties of CSV export and ingest.

Export then ingest is the identity on random panels with gaps: missing
cells, an asset with no prices at all, zero and negative-zero volumes,
floats whose shortest repr is long or extreme, and fundamentals with blank
metrics and report dates outside the calendar. The columnar cell reader
accepts, rejects and locates errors exactly as the row-by-row csv.reader
loop it replaced, kept here as the oracle, on messy unquoted files. The
block size ingest reads files in changes nothing a parse returns.
"""

from __future__ import annotations

import csv
import math
from datetime import date, timedelta
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factortilt import market_data
from factortilt.errors import DataError
from factortilt.market_data import (
    _REPORT_FIELDS, FundamentalRecord, MarketPanel, _assemble, _parse_panel, _read_cell_file, load_panel,
    save_panel,
)
from factortilt.synthetic import trading_days

from conftest import report_arrays

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)

AWKWARD = np.array([5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1.0 / 3.0, 2.0, 1e16,
                    123456789.00000001, 1.7976931348623157e308])


def random_panel(seed: int, n_assets: int, n_days: int, gap: float) -> MarketPanel:
    rng = np.random.default_rng(seed)
    cal = trading_days(n_days)
    shape = (n_days, n_assets)

    def positive():
        values = rng.lognormal(0.0, 8.0, shape)
        odd = rng.random(shape) < 0.1
        values[odd] = rng.choice(AWKWARD, int(odd.sum()))
        return values

    def holes(arr):
        arr[rng.random(shape) < gap] = np.nan
        return arr

    price = holes(positive())
    price[:, -1] = np.nan  # the last asset has no prices at all
    zeros = rng.random(shape) < 0.2
    volume = holes(np.where(zeros, rng.choice([0.0, -0.0], shape), positive()))
    volume[:, 0] = positive()[:, 0]  # every date keeps a cell, so the calendar survives
    mktcap = holes(positive())

    assets = [f"A{i}" for i in range(n_assets)]
    first, last = date.fromisoformat(cal.days[0]), date.fromisoformat(cal.days[-1])
    # report dates are trading days or lie outside the calendar span, so none is snapped
    report_days = [*cal.days, (first - timedelta(days=30)).isoformat(), (last + timedelta(days=9)).isoformat()]
    fundamentals = {}
    for i, a in enumerate(assets):
        n = int(rng.integers(1 if i == n_assets - 1 else 0, 4))
        days = sorted(rng.choice(report_days, size=min(n, len(report_days)), replace=False).tolist())
        records = []
        for d in days:
            fields = [float(v) for v in rng.normal(0.0, 10.0, 4) * rng.choice([1.0, 1e-9, 1e9], 4)]
            records.append(FundamentalRecord(d, *(math.nan if rng.random() < 0.3 else v for v in fields)))
        if records:
            fundamentals[a] = records
    return MarketPanel(assets, cal, price, volume, mktcap, **report_arrays(assets, fundamentals))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n_assets=st.integers(1, 6), n_days=st.integers(1, 40),
       gap=st.sampled_from([0.0, 0.2, 0.6]))
def test_save_then_load_is_identity(seed, n_assets, n_days, gap):
    panel = random_panel(seed, n_assets, n_days, gap)
    with TemporaryDirectory() as tmp:
        first = save_panel(panel, Path(tmp) / "first")
        again = load_panel(first["prices"], first["volumes"], first["fundamentals"], first["mktcap"])
        assert again.calendar.days == panel.calendar.days
        assert again.assets == panel.assets
        for name in ("price", "volume", "mktcap"):
            assert getattr(again, name).tobytes() == getattr(panel, name).tobytes(), name
        assert again.fundamentals == panel.fundamentals
        second = save_panel(again, Path(tmp) / "second")
        for name, path in first.items():
            assert second[name].read_bytes() == path.read_bytes(), name


# --- ingest against the row-wise csv.reader oracle ----------------------------

def reference_cells(path: Path, kind: str) -> dict[tuple[str, str], float]:
    """The row-by-row csv.reader ingest the columnar reader replaced, kept
    as the oracle; an invalid date now also names its line."""
    cells: dict[tuple[str, str], float] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["date", "asset", "value"]:
            raise DataError(f"{path}: expected header 'date,asset,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            d, asset, raw = row[0].strip(), row[1].strip(), row[2].strip()
            try:
                date.fromisoformat(d)
            except ValueError:
                raise DataError(f"{path}:{lineno}: invalid ISO date {d!r}") from None
            if not asset:
                raise DataError(f"{path}:{lineno}: empty asset id")
            if not raw:
                continue
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparseable value {raw!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite value for ({d},{asset})")
            if kind in ("price", "mktcap") and value <= 0:
                raise DataError(f"{path}:{lineno}: non-positive {kind} for cell ({d},{asset})")
            if kind == "volume" and value < 0:
                raise DataError(f"{path}:{lineno}: negative volume for cell ({d},{asset})")
            if (d, asset) in cells:
                raise DataError(f"{path}:{lineno}: duplicate cell ({d},{asset})")
            cells[(d, asset)] = value
    return cells


def outcome(read, path, kind):
    """{(date, asset): float.hex(value)} of a successful read, or the error text."""
    try:
        cells = read(path, kind)
    except DataError as exc:
        return str(exc)
    if isinstance(cells, dict):
        return {k: v.hex() for k, v in cells.items()}
    i, j = np.nonzero(~np.isnan(cells.values))
    return {(cells.dates[r], cells.assets[c]): v.hex()
            for r, c, v in zip(i.tolist(), j.tolist(), cells.values[i, j].tolist())}


GOOD_VALUES = st.one_of(st.floats(1e-300, 1e300).map(repr), st.sampled_from(["1", "2.50", "1e3", "1_0", ""]))
BAD_VALUES = st.sampled_from(["0", "-0.0", "-3", "x", "nan", "-inf", "1.2.3", "0x10"])
PADS = st.sampled_from(["", "", " ", "\t", " \t\x0b", "\xa0"])
DEFECTS = st.sampled_from(["date", "asset", "value", "short", "long", "duplicate"])


@st.composite
def messy_file(draw):
    """A cell file with padded fields, blank lines, mixed LF/CRLF line ends
    and empty values, plus up to two defective rows: a bad date, an empty
    asset id, a bad value, a wrong field count or a repeated cell."""
    rows = draw(st.lists(st.tuples(st.sampled_from(trading_days(12).days), st.sampled_from(["A", "B", "C", "A B"]),
                                   GOOD_VALUES), min_size=1, max_size=25, unique_by=lambda r: r[:2]))
    rows = [list(r) for r in rows]
    for defect in draw(st.lists(DEFECTS, max_size=2)):
        row = list(draw(st.sampled_from(rows)))
        if defect == "date":
            row[0] = draw(st.sampled_from(["2020-02-30", "2020-1-7", "", "x"]))
        elif defect == "asset":
            row[1] = ""
        elif defect == "value":
            row[2] = draw(BAD_VALUES)
        elif defect == "short":
            row = row[:2]
        elif defect == "long":
            row.append("1")
        rows.insert(draw(st.integers(0, len(rows))), row)
    header = draw(st.sampled_from([("date", "asset", "value"), ("DATE", "Asset", "vAlUe")]))
    lines = []
    for fields in [header, *rows]:
        lines.append(",".join(draw(PADS) + f + draw(PADS) for f in fields))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t \t"])))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


@settings(SETTINGS, max_examples=200)
@given(text=messy_file(), kind=st.sampled_from(["price", "volume", "mktcap"]))
def test_columnar_ingest_matches_row_reader(text, kind):
    with TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(_read_cell_file, path, kind) == outcome(reference_cells, path, kind)


# --- block boundaries ----------------------------------------------------------

MULTIBYTE_IDS = ("A", "\u00c4pfel", "\u682a\u5f0f", "\U0001f642x", "Z\u00e9")  # 1- to 4-byte UTF-8


def parse_outcome(paths):
    """Everything a parse of the four files returns, bit for bit, with the
    sha256 of each file's bytes; or the error text."""
    digests = []
    try:
        panel = _assemble(*_parse_panel(paths["prices"], paths["volumes"], paths["fundamentals"], paths["mktcap"],
                                        digests))
    except DataError as exc:
        return str(exc)
    reports = [(a, r.report_date, *(float.hex(getattr(r, f)) for f in _REPORT_FIELDS))
               for a, records in panel.fundamentals.items() for r in records]
    return (panel.assets, panel.calendar.days, [g.tobytes() for g in (panel.price, panel.volume, panel.mktcap)],
            reports, digests)


@settings(SETTINGS, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n_assets=st.integers(1, len(MULTIBYTE_IDS)), n_days=st.integers(1, 12),
       gap=st.sampled_from([0.0, 0.3]), data=st.data())
def test_block_size_changes_nothing(seed, n_assets, n_days, gap, data):
    panel = random_panel(seed, n_assets, n_days, gap)
    ids = dict(zip(panel.assets, MULTIBYTE_IDS))
    panel = MarketPanel([ids[a] for a in panel.assets], panel.calendar, panel.price, panel.volume, panel.mktcap,
                        report_asset=panel.report_asset, report_date=panel.report_date,
                        report_values=panel.report_values)
    defective = data.draw(st.sampled_from([None, "prices", "fundamentals"]))
    with TemporaryDirectory() as tmp:
        paths = save_panel(panel, Path(tmp))
        for name, path in paths.items():
            lines = path.read_bytes().decode("utf-8").split("\r\n")[:-1]
            if name == defective:  # a short line, so the outcome is an error naming its line number
                lines.insert(data.draw(st.integers(1, len(lines))), f"{panel.calendar.days[0]},{MULTIBYTE_IDS[1]}")
            text = ""
            for line in lines:
                text += line + data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
                if data.draw(st.integers(0, 3)) == 0:  # a blank line
                    text += data.draw(st.sampled_from(["", " ", "\t "])) + data.draw(st.sampled_from(["\n", "\r\n"]))
            if data.draw(st.booleans()):  # no line end after the last line
                text = text.rstrip("\r\n")
            path.write_bytes(text.encode("utf-8"))
        whole = parse_outcome(paths)
        assert isinstance(whole, str) == (defective is not None), whole
        for size in (1, 7, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(market_data, "BLOCK_BYTES", size)
                assert parse_outcome(paths) == whole, size
