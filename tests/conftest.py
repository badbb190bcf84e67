"""Shared fixtures: tiny hand-built panels and CSV writers."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from factortilt.backtest import _run
from factortilt.cli import cmd_synth
from factortilt.market_data import _REPORT_FIELDS, FundamentalRecord, MarketPanel, RebalanceSchedule
from factortilt.synthetic import trading_days


def grid_from(days, assets, values) -> np.ndarray:
    """values: {asset: list (None = missing)} or scalar applied everywhere."""
    arr = np.full((len(days), len(assets)), np.nan)
    if np.isscalar(values):
        arr[:] = float(values)
        return arr
    for j, a in enumerate(assets):
        col = values.get(a)
        if col is None:
            continue
        if np.isscalar(col):
            arr[:, j] = float(col)
        else:
            for i, v in enumerate(col):
                if v is not None:
                    arr[i, j] = float(v)
    return arr


def report_arrays(assets, fundamentals) -> dict[str, np.ndarray]:
    """MarketPanel's report arrays, as keyword arguments, of the records
    {asset: [FundamentalRecord, ...]}, asset by asset in mapping order."""
    reports = [(list(assets).index(a), r) for a, records in fundamentals.items() for r in records]
    return {
        "report_asset": np.array([i for i, _ in reports], dtype=np.intp),
        "report_date": np.array([r.report_date for _, r in reports], dtype=str),
        "report_values": np.array([[getattr(r, f) for f in _REPORT_FIELDS] for _, r in reports],
                                  dtype=float).reshape(-1, len(_REPORT_FIELDS)),
    }


def make_panel(n_days, assets, price, volume=1000.0, mktcap=1e6, fundamentals=None, start="2020-01-06"):
    days = trading_days(n_days, start)
    assets = list(assets)
    return MarketPanel(
        assets=assets,
        calendar=days,
        price=grid_from(days.days, assets, price),
        volume=grid_from(days.days, assets, volume),
        mktcap=grid_from(days.days, assets, mktcap),
        **report_arrays(assets, fundamentals or {}),
    )


def targets_at(panel, t, config, strategy):
    """One strategy's target weights at rebalance date t, built as the walk
    builds them: the one row of its Targets."""
    (row,) = _run(panel, RebalanceSchedule((t,)), config, {strategy: (strategy, config.tilt)}, None)[strategy].weights
    return row


def fundamental(report_date, book=math.nan, roe=math.nan, margin=math.nan, leverage=math.nan):
    return FundamentalRecord(
        report_date=report_date,
        book_equity=book,
        roe=roe,
        gross_margin=margin,
        debt_to_assets=leverage,
    )


def write_cell_csv(path: Path, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "asset", "value"])
        writer.writerows(rows)


def write_fundamentals_csv(path: Path, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["report_date", "asset", "book_equity", "roe", "gross_margin", "debt_to_assets"])
        writer.writerows(rows)


@pytest.fixture
def csv_dir(tmp_path):
    """Four-file input directory for a clean 3-day x 2-asset panel."""
    days = trading_days(3).days
    prices, volumes, caps = [], [], []
    for i, d in enumerate(days):
        for j, a in enumerate(("AAA", "BBB")):
            prices.append([d, a, 10.0 + i + j])
            volumes.append([d, a, 100.0 * (j + 1)])
            caps.append([d, a, 1e6 * (j + 1)])
    write_cell_csv(tmp_path / "prices.csv", prices)
    write_cell_csv(tmp_path / "volumes.csv", volumes)
    write_cell_csv(tmp_path / "mktcap.csv", caps)
    write_fundamentals_csv(
        tmp_path / "fundamentals.csv",
        [
            [days[0], "AAA", 50.0, 0.1, 0.4, 0.3],
            [days[1], "BBB", 80.0, 0.2, 0.5, ""],
        ],
    )
    return tmp_path


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """Synthetic 10-asset x 700-day CSV input directory, built once per module."""
    data = tmp_path_factory.mktemp("data")
    scenario = data / "scenario.ini"
    scenario.write_text(
        "seed = 11\nn_assets = 10\nn_days = 700\nvol = 0.01\n"
        "dispersion = 0.8\nic_target = 0.5\nliquidity_tiers = 1,4,16\n"
    )
    assert cmd_synth(scenario, data) == 0
    return data
