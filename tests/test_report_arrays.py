"""The panel's fundamentals are three report arrays (asset positions, dates,
values), whatever built the panel.

A panel of the report arrays of a random mapping of records (gaps, NaN
metrics, assets that never report, the mapping in any asset order) has the
report table, the `fundamentals` view, the censored panels at every cutoff
and the fundamentals.csv bytes of a record-based form kept here as the
oracle. Report arrays that break the panel's rules fail with the messages
records did, a report date not in YYYY-MM-DD form fails however the panel
is built, and no generate, save, load or censor path builds a record.
"""

from __future__ import annotations

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
    _REPORT_FIELDS, FundamentalRecord, MarketPanel, TradingCalendar, censor_panel, load_panel, parse_panel,
    save_panel,
)
from factortilt.synthetic import ScenarioSpec, generate, trading_days

from conftest import fundamental, make_panel, report_arrays

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def random_records(seed: int, n_assets: int, n_days: int) -> tuple[list[str], TradingCalendar, dict]:
    """Assets, a calendar and each reporting asset's records, the mapping
    in a random asset order: report dates from before the calendar to past
    its end, weekends included, a quarter of the metrics NaN, and some
    assets with no report."""
    rng = np.random.default_rng(seed)
    cal = trading_days(n_days)
    assets = [f"A{i}" for i in range(n_assets)]
    first = date.fromisoformat(cal.days[0])
    fundamentals = {}
    for a in rng.permutation(assets).tolist():
        offsets = sorted(set(rng.integers(-30, int(n_days * 1.5), size=rng.integers(0, 5)).tolist()))
        records = []
        for off in offsets:
            values = [math.nan if rng.random() < 0.25 else v for v in rng.normal(0.0, 10.0, 4).tolist()]
            records.append(FundamentalRecord((first + timedelta(days=off)).isoformat(), *values))
        if records:
            fundamentals[a] = records
    return assets, cal, fundamentals


def grids(n_days: int, n_assets: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    price = np.full((n_days, n_assets), 10.0)
    return price, np.full_like(price, 100.0), np.full_like(price, 1e6)


def array_panel(assets, cal, fundamentals) -> MarketPanel:
    """The panel of the records' report arrays."""
    return MarketPanel(assets, cal, *grids(len(cal), len(assets)), **report_arrays(assets, fundamentals))


def table_oracle(panel: MarketPanel, fundamentals) -> tuple[np.ndarray, np.ndarray]:
    """report_table built record by record, as it was before the panel kept arrays."""
    width = max(map(len, fundamentals.values()), default=0)
    days = np.full((panel.n_assets, width), np.iinfo(np.int64).max)
    values = np.full((len(_REPORT_FIELDS), panel.n_assets, width), np.nan)
    for asset, records in fundamentals.items():
        i = panel.positions([asset])[0]
        for k, r in enumerate(records):
            days[i, k] = np.datetime64(r.report_date, "D").astype(np.int64)
            values[:, i, k] = [getattr(r, f) for f in _REPORT_FIELDS]
    return days, values


def fundamentals_csv_oracle(panel: MarketPanel, fundamentals) -> bytes:
    """fundamentals.csv written record by record, as save_panel did."""
    text = ",".join(["report_date", "asset", *_REPORT_FIELDS]) + "\r\n"
    for asset in panel.assets:
        for r in fundamentals.get(asset, []):
            metrics = ["" if math.isnan(v) else repr(v) for v in (getattr(r, f) for f in _REPORT_FIELDS)]
            text += ",".join([r.report_date, asset, *metrics]) + "\r\n"
    return text.encode("utf-8")


def assert_same_records(got: dict, want: dict) -> None:
    """Equal down to dict order, Python floats and the NaN singleton."""
    assert list(got) == list(want)
    for asset, records in want.items():
        assert got[asset] == records, asset
        for r in got[asset]:
            assert type(r.report_date) is str
            for f in _REPORT_FIELDS:
                v = getattr(r, f)
                assert type(v) is float and (v == v or v is math.nan), (asset, f)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n_assets=st.integers(1, 6), n_days=st.integers(1, 40))
def test_report_arrays_match_the_record_oracle(seed, n_assets, n_days):
    assets, cal, fundamentals = random_records(seed, n_assets, n_days)
    panel = array_panel(assets, cal, fundamentals)
    assert_same_records(panel.fundamentals, fundamentals)
    for got, want in zip(panel.report_table, table_oracle(panel, fundamentals)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with TemporaryDirectory() as tmp:
        written = save_panel(panel, Path(tmp))["fundamentals"].read_bytes()
    assert written == fundamentals_csv_oracle(panel, fundamentals)
    for cutoff in cal.days:
        kept = {a: [r for r in records if r.report_date < cutoff] for a, records in fundamentals.items()}
        kept = {a: records for a, records in kept.items() if records}
        censored = censor_panel(panel, cutoff)
        assert_same_records(censored.fundamentals, kept)
        for got, want in zip(censored.report_table, table_oracle(censored, kept)):
            assert got.tobytes() == want.tobytes()


def test_fundamentals_view_is_a_copy():
    assets, cal, fundamentals = random_records(3, 4, 30)
    panel = array_panel(assets, cal, fundamentals)
    view = panel.fundamentals
    view.clear()
    assert panel.fundamentals == fundamentals
    for arr in (panel.report_asset, panel.report_date, panel.report_values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = arr[0]


# --- planted report arrays --------------------------------------------------------

DAYS = trading_days(4).days


@pytest.mark.parametrize("positions, dates, message", [
    ([0, 1, 0], [DAYS[0], DAYS[0], DAYS[1]], "fundamental records for A not sorted"),  # interleaved
    ([1, 0, 1], [DAYS[0], DAYS[0], DAYS[1]], "fundamental records for B not sorted"),
    ([0, 0, 1], [DAYS[1], DAYS[0], DAYS[0]], "fundamental records for A not sorted"),  # unsorted
    ([1, 0, 0], [DAYS[0], DAYS[2], DAYS[2]], rf"duplicate fundamental report \({DAYS[2]},A\)"),
    ([0, 2, 2], [DAYS[0], DAYS[0], DAYS[1]], "fundamentals for unknown asset"),  # out of range
    ([0, -1, -1], [DAYS[0], DAYS[0], DAYS[1]], "fundamentals for unknown asset"),
    ([0, 1], [DAYS[0], DAYS[0], DAYS[1]], "report asset, date and value arrays differ in length"),
])
def test_broken_report_arrays_are_rejected(positions, dates, message):
    with pytest.raises(DataError, match=message):
        MarketPanel(["A", "B"], trading_days(4), *grids(4, 2), report_asset=np.array(positions),
                    report_date=np.array(dates), report_values=np.ones((len(dates), 4)))


@pytest.mark.parametrize("report_date", ["20200102", "2020-1-2"])
def test_report_dates_not_in_iso_form_are_rejected(report_date):
    # read as a date, the first is the year 20,200,102 and the second a form numpy refuses
    with pytest.raises(DataError, match=f"invalid ISO date '{report_date}'"):
        make_panel(4, ["A"], price=10.0, fundamentals={"A": [fundamental(report_date, book=1.0)]})


# --- no records on the generate, save, load and censor paths -----------------------

def test_no_record_is_built_outside_the_view(tmp_path, monkeypatch):
    built = []
    record_init = FundamentalRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        record_init(self, *args, **kwargs)

    monkeypatch.setattr(FundamentalRecord, "__init__", counted)
    paths = save_panel(generate(ScenarioSpec(seed=5, n_assets=8, n_days=300, missing_rate=0.05)), tmp_path)
    files = [paths[name] for name in ("prices", "volumes", "fundamentals", "mktcap")]
    load_panel(*files)  # a parse, which writes the cache
    parse_panel(*files)
    with monkeypatch.context() as mp:
        mp.setattr(market_data, "_read_cell_file", None)  # a parse would fail: this load is a cache hit
        hit = load_panel(*files)
    for t in hit.calendar.days[::50]:
        censor_panel(hit, t).report_table
    assert built == []
    assert sum(map(len, hit.fundamentals.values())) == len(built) == len(hit.report_asset) > 0
