"""The per-date kernels against the implementations they replaced, kept here
as oracles and compared bit for bit: winsorize with one np.quantile call,
standardize with np.mean, the latest fundamental report with one bisection
per asset, and the average dollar volume with a stable argsort that
left-packs each asset's valid days.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial
from itertools import compress
from operator import attrgetter, getitem

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from factortilt.factors import standardize, winsorize
from factortilt.market_data import (
    _REPORT_FIELDS,
    AsOf,
    MarketPanel,
    _average_dollar_volumes,
    _latest_reports,
)
from factortilt.synthetic import trading_days

from test_asof_properties import SETTINGS, panels, random_panel


def winsorize_oracle(values, p) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    finite = np.isfinite(arr)
    if p == 0 or not finite.any():
        return arr
    lo, hi = np.quantile(arr[finite], [p, 1.0 - p])
    arr[finite] = np.clip(arr[finite], lo, hi)
    return arr


def standardize_oracle(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    z = np.zeros(arr.shape, dtype=float)
    finite = np.isfinite(arr)
    if not finite.any():
        return z
    x = arr[finite]
    if np.all(x == x[0]):
        return z
    mu = float(np.mean(x))
    sigma = float(np.sqrt(np.mean((x - mu) ** 2)))
    if sigma > 0:
        z[finite] = (x - mu) / sigma
    return z


def latest_reports_oracle(panel: MarketPanel, t: str, l_fund: int) -> np.ndarray:
    out = np.full((len(_REPORT_FIELDS), panel.n_assets), np.nan)
    lists = panel.fundamentals.values()
    bisect_t = partial(bisect_left, x=t, key=attrgetter("report_date"))
    n_before = np.fromiter(map(bisect_t, lists), dtype=np.intp, count=len(lists))
    reported = n_before > 0
    latest = list(map(getitem, compress(lists, reported.tolist()), (n_before[reported] - 1).tolist()))
    age = np.datetime64(t, "D") - np.array([r.report_date for r in latest], dtype="datetime64[D]")
    fresh = age.astype(np.int64) <= l_fund
    owner = panel.positions(panel.fundamentals)[reported][fresh]
    for row, name in enumerate(_REPORT_FIELDS):
        out[row, owner] = np.fromiter(map(attrgetter(name), latest), dtype=float, count=len(latest))[fresh]
    return out


def average_dollar_volumes_oracle(panel: MarketPanel, it: int, lookback: int) -> np.ndarray:
    p = panel.price[max(0, it - lookback) : it].T
    v = panel.volume[max(0, it - lookback) : it].T
    valid = np.isfinite(p) & np.isfinite(v)
    counts = valid.sum(axis=1)
    packed = np.take_along_axis(p * v, np.argsort(~valid, axis=1, kind="stable"), axis=1)
    out = np.full(panel.n_assets, np.nan)
    for k in np.unique(counts[counts >= math.ceil(0.5 * lookback)]).tolist():
        rows = counts == k
        out[rows] = np.ascontiguousarray(packed[rows, :k]).sum(axis=1) / k
    return out


def same_bits(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


# --- winsorize ------------------------------------------------------------------

# tied 0.0 and -0.0 at the interpolation points: the sign a bound takes
# depends on where numpy's partition puts them, which a sort, or two
# separate np.quantile calls, do not always reproduce
signed_zeros = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, math.nan]), max_size=80)
# ties, NaN and inf among ordinary values
mixed = st.lists(st.one_of(st.floats(-1e9, 1e9), st.sampled_from([math.nan, math.inf, 0.0, 1.5, -2.0])),
                 max_size=50)


@SETTINGS
@given(values=st.one_of(signed_zeros, mixed, st.lists(st.floats(-1e300, 1e300), max_size=300)),
       p=st.one_of(st.sampled_from([0.0, 0.01, 0.25, 0.4999, 1e-20]), st.floats(0.0, 0.4999)))
@example(values=[1.0, 5.0, -3.0], p=0.0)
@example(values=[math.nan, math.nan], p=0.1)
@example(values=[], p=0.1)
@example(values=[math.nan, 7.0, math.nan], p=0.3)
@example(values=[2.0, 2.0, 2.0, 1.0, 2.0, 9.0, 9.0], p=0.2)
@example(values=[-0.0], p=0.1)
@example(values=[0.0, -0.0, 0.0, -0.0, -1.0, 1.0], p=0.2)
@example(values=[-0.0, -0.0, 1.0], p=1e-20)  # (n-1)(1-p) rounds up to n-1
@example(values=[0.0, 1.0, -0.0, -1.0, -0.0], p=0.3)  # a sort puts the tied zeros elsewhere
@example(values=[0.0, -0.0, -0.0, 0.0, -1.0], p=0.4)
def test_winsorize_equals_one_quantile_call(values, p):
    same_bits(winsorize(values, p), winsorize_oracle(values, p), (values, p))


# --- standardize -----------------------------------------------------------------

EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1e308, -1e308, 1.7e308, 5e-324, -5e-324, 1e-300]
cross_sections = st.one_of(
    st.lists(st.one_of(st.floats(), st.sampled_from(EXTREMES)), max_size=60),
    st.lists(st.floats(-1e6, 1e6), max_size=300),
    st.builds(lambda v, n: [v] * n, st.sampled_from([0.0, -0.0, 3.25, 1e308]), st.integers(1, 20)),
)


@SETTINGS
@given(values=cross_sections)
@example(values=[])
@example(values=[math.nan, math.inf, -math.inf])
@example(values=[0.0, -0.0, 0.0, -0.0])
@example(values=[2.5, 2.5, math.nan, 2.5])
@example(values=[1e308, 1.7e308, -1e308])  # the sums overflow
@example(values=[5e-324, -5e-324, 0.0])  # the spread underflows
@example(values=[1e-300, 1e300, -0.0, math.inf])
def test_standardize_equals_mean_formula(values):
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        same_bits(standardize(values), standardize_oracle(values), values)


# --- latest fundamental report -----------------------------------------------------


@SETTINGS
@given(panel=panels, l_fund=st.sampled_from([1, 7, 30, 400]))
def test_latest_reports_equal_bisection(panel, l_fund):
    # report dates run from before the calendar to past its end, weekends
    # included; some assets have no records and many reports go stale
    for t in panel.calendar.days:
        same_bits(_latest_reports(panel, t, l_fund), latest_reports_oracle(panel, t, l_fund), (t, l_fund))


def test_latest_reports_without_fundamentals():
    panel = random_panel(3, 4, 20, 0.1)
    bare = MarketPanel(list(panel.assets), panel.calendar, panel.price, panel.volume, panel.mktcap, {})
    assert [a.shape for a in bare.report_table] == [(4, 0), (4, 4, 0)]
    for t in bare.calendar.days:
        got = _latest_reports(bare, t, 400)
        same_bits(got, latest_reports_oracle(bare, t, 400), t)
        assert np.isnan(got).all()


def test_report_table_is_built_on_first_use_and_read_only():
    panel = random_panel(11, 5, 30, 0.0)
    assert "report_table" not in vars(panel)
    AsOf(panel, panel.calendar.days[10])  # no fundamentals window: no table
    assert "report_table" not in vars(panel)
    AsOf(panel, panel.calendar.days[10], l_fund=60)
    days, values = panel.report_table
    assert panel.report_table is panel.report_table
    width = max(map(len, panel.fundamentals.values()))
    assert days.shape == (5, width) and days.dtype == np.int64
    assert values.shape == (4, 5, width) and values.dtype == np.float64
    for arr in (days, values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    for i, asset in enumerate(panel.assets):
        records = panel.fundamentals.get(asset, [])
        want = [int(np.datetime64(r.report_date, "D").astype(np.int64)) for r in records]
        assert days[i].tolist() == want + [np.iinfo(np.int64).max] * (width - len(records))


# --- average dollar volume -----------------------------------------------------------


@SETTINGS
@given(panel=panels, lookback=st.integers(1, 40))
def test_average_dollar_volumes_equal_argsort_packing(panel, lookback):
    for it in range(panel.n_days + 1):
        same_bits(_average_dollar_volumes(panel, it, lookback),
                  average_dollar_volumes_oracle(panel, it, lookback), (it, lookback))


def test_average_dollar_volume_keeps_an_overflowed_product():
    cal = trading_days(6)
    price = np.full((6, 3), 10.0)
    volume = np.full((6, 3), 100.0)
    price[2, 0], volume[2, 0] = 1e200, 1e200  # p * v overflows to inf, yet both are present
    volume[3, 1] = math.nan
    panel = MarketPanel(["A", "B", "C"], cal, price, volume, np.full((6, 3), 1e6), {})
    with np.errstate(over="ignore"):
        got = _average_dollar_volumes(panel, 5, 4)
        want = average_dollar_volumes_oracle(panel, 5, 4)
    same_bits(got, want, "overflow")
    assert got.tolist() == [math.inf, 1000.0, 1000.0]
