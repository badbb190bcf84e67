import math

import numpy as np
import pytest

from factortilt.errors import ConfigError, DataError
from factortilt.market_data import (
    ROW_BLOCK_CELLS,
    AsOf,
    MarketPanel,
    build_schedule,
    censor_panel,
    load_panel,
    save_panel,
)
from factortilt.synthetic import ScenarioSpec, generate, trading_days

from conftest import fundamental, make_panel, write_cell_csv, write_fundamentals_csv


def load_dir(d):
    return load_panel(d / "prices.csv", d / "volumes.csv", d / "fundamentals.csv", d / "mktcap.csv")


class TestLoadPanel:
    def test_full_panel_round_trip(self, csv_dir):
        panel = load_dir(csv_dir)
        assert panel.n_days == 3 and panel.n_assets == 2
        assert panel.missing_counts() == {"price": 0, "volume": 0, "mktcap": 0}

    def test_zero_price_names_cell(self, csv_dir):
        days = trading_days(3).days
        write_cell_csv(csv_dir / "prices.csv", [[days[0], "AAA", 10.0], [days[1], "AAA", 0.0]])
        with pytest.raises(DataError, match=rf"\({days[1]},AAA\)"):
            load_dir(csv_dir)

    def test_fundamentals_sorted(self, csv_dir):
        write_fundamentals_csv(
            csv_dir / "fundamentals.csv",
            [
                ["2020-06-30", "AAA", 60.0, 0.1, 0.4, 0.3],
                ["2020-03-31", "AAA", 50.0, 0.1, 0.4, 0.3],
            ],
        )
        panel = load_dir(csv_dir)
        records = panel.fundamentals["AAA"]
        assert len(records) == 2
        assert records[0].report_date < records[1].report_date

    def test_duplicate_cell_rejected(self, csv_dir):
        days = trading_days(3).days
        write_cell_csv(
            csv_dir / "volumes.csv",
            [[days[0], "AAA", 1.0], [days[0], "AAA", 2.0]],
        )
        with pytest.raises(DataError, match="duplicate cell"):
            load_dir(csv_dir)

    def test_malformed_row_reports_line(self, csv_dir):
        (csv_dir / "mktcap.csv").write_text("date,asset,value\n2020-01-06,AAA\n")
        with pytest.raises(DataError, match="mktcap.csv:2"):
            load_dir(csv_dir)

    def test_duplicate_fundamental_report(self, csv_dir):
        write_fundamentals_csv(
            csv_dir / "fundamentals.csv",
            [
                ["2020-01-06", "AAA", 50.0, 0.1, 0.4, 0.3],
                ["2020-01-06", "AAA", 51.0, 0.1, 0.4, 0.3],
            ],
        )
        with pytest.raises(DataError, match="duplicate fundamental"):
            load_dir(csv_dir)

    def test_report_duplicated_by_snapping(self, tmp_path):
        # the Saturday report snaps back to the Friday the asset already reports on
        days = trading_days(5, "2020-01-01").days
        write_cell_csv(tmp_path / "prices.csv", [[d, "AAA", 10.0] for d in days])
        write_cell_csv(tmp_path / "volumes.csv", [[d, "AAA", 5.0] for d in days])
        write_cell_csv(tmp_path / "mktcap.csv", [[d, "AAA", 1e6] for d in days])
        write_fundamentals_csv(tmp_path / "fundamentals.csv", [["2020-01-03", "AAA", 50.0, "", "", ""],
                                                               ["2020-01-04", "AAA", 51.0, "", "", ""]])
        with pytest.raises(DataError, match=r"^duplicate fundamental report \(2020-01-03,AAA\)$"):
            load_dir(tmp_path)

    def test_report_date_snaps_to_prior_trading_day(self, tmp_path):
        # calendar spans the Jan 4/5 weekend; Saturday report snaps back to Friday
        days = trading_days(5, "2020-01-01").days
        write_cell_csv(tmp_path / "prices.csv", [[d, "AAA", 10.0] for d in days])
        write_cell_csv(tmp_path / "volumes.csv", [[d, "AAA", 5.0] for d in days])
        write_cell_csv(tmp_path / "mktcap.csv", [[d, "AAA", 1e6] for d in days])
        write_fundamentals_csv(tmp_path / "fundamentals.csv", [["2020-01-04", "AAA", 50.0, "", "", ""]])
        panel = load_dir(tmp_path)
        assert panel.fundamentals["AAA"][0].report_date == "2020-01-03"

    def test_out_of_span_report_dates_kept_verbatim(self, csv_dir):
        write_fundamentals_csv(csv_dir / "fundamentals.csv", [["2020-03-31", "AAA", 50.0, "", "", ""]])
        panel = load_dir(csv_dir)
        assert panel.fundamentals["AAA"][0].report_date == "2020-03-31"

    def test_serialize_round_trips(self, tmp_path):
        panel = generate(ScenarioSpec(seed=3, n_assets=5, n_days=40, dispersion=0.7, missing_rate=0.05))
        save_panel(panel, tmp_path)
        again = load_panel(
            tmp_path / "prices.csv", tmp_path / "volumes.csv",
            tmp_path / "fundamentals.csv", tmp_path / "mktcap.csv",
        )
        assert again.assets == panel.assets
        assert again.calendar.days == panel.calendar.days
        for name in ("price", "volume", "mktcap"):
            np.testing.assert_array_equal(getattr(again, name), getattr(panel, name))
        assert again.fundamentals == panel.fundamentals


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("where", ["price", "volume", "mktcap", "report"])
def test_hand_built_panel_rejects_infinite_values(where, value):
    grids = {"price": 10.0, "volume": 1000.0, "mktcap": 1e6}
    fundamentals = {"A": [fundamental("2020-01-06", book=value if where == "report" else 1.0)]}
    if where != "report":
        grids[where] = {"A": [grids[where], value, grids[where]]}
    with pytest.raises(DataError, match="^non-finite value in a grid or a report$"):
        make_panel(3, ["A"], **grids, fundamentals=fundamentals)


class TestSchedule:
    def test_snaps_forward_to_first_trading_day(self):
        cal = trading_days(300, "2020-01-02")
        sched = build_schedule(cal, "2020-01-01", "2020-12-31")
        assert sched.dates[0] == "2020-01-02"

    def test_two_full_years_give_four_dates(self):
        cal = trading_days(600, "2020-01-02")
        sched = build_schedule(cal, "2020-01-01", "2021-12-31")
        assert len(sched.dates) == 4

    def test_empty_range_errors(self):
        cal = trading_days(10, "2020-03-02")
        with pytest.raises(ConfigError, match="no rebalance dates in range"):
            build_schedule(cal, "2020-02-01", "2020-02-10")

    def test_deterministic_and_idempotent(self):
        cal = trading_days(700, "2019-06-03")
        a = build_schedule(cal, "2019-06-03", "2021-12-31")
        b = build_schedule(cal, "2019-06-03", "2021-12-31")
        assert a.dates == b.dates

    def test_custom_anchors(self):
        cal = trading_days(300, "2020-01-02")
        sched = build_schedule(cal, "2020-01-01", "2020-12-31", anchors=((3, 1), (9, 1)))
        assert len(sched.dates) == 2
        assert all(d >= "2020-03" for d in sched.dates)


class TestHistoryLength:
    def test_full_history(self):
        panel = make_panel(11, ["A"], price=100.0)
        assert AsOf(panel, panel.calendar.days[10]).history[panel.positions(["A"])[0]] == 10

    def test_listed_today_has_zero(self):
        panel = make_panel(5, ["A"], price={"A": [None, None, None, None, 100]})
        assert AsOf(panel, panel.calendar.days[4]).history[panel.positions(["A"])[0]] == 0

    def test_gaps_counted_by_hand(self):
        # 7 present, 3 missing in the 10 days before t
        col = [100, None, 101, 102, None, 103, 104, None, 105, 106, 999]
        panel = make_panel(11, ["A"], price={"A": col})
        assert AsOf(panel, panel.calendar.days[10]).history[panel.positions(["A"])[0]] == 7

    def test_unknown_asset_errors(self):
        panel = make_panel(3, ["A"], price=100.0)
        with pytest.raises(DataError, match="unknown asset"):
            AsOf(panel, panel.calendar.days[2]).history[panel.positions(["Z"])[0]]


class TestAverageDollarVolume:
    def test_constant_product(self):
        panel = make_panel(6, ["A"], price=10.0, volume=100.0)
        assert AsOf(panel, panel.calendar.days[5], l_adv=5).adv[panel.positions(["A"])[0]] == 1000.0

    def test_two_term_mean(self):
        panel = make_panel(
            3, ["A"],
            price={"A": [10, 20, 999]},
            volume={"A": [100, 50, 999]},
        )
        adv = AsOf(panel, panel.calendar.days[2], l_adv=2).adv[panel.positions(["A"])[0]]
        assert adv == pytest.approx((10 * 100 + 20 * 50) / 2)

    def test_coverage_rule(self):
        panel = make_panel(
            6, ["A"],
            price={"A": [10, None, None, None, 10, 999]},
            volume={"A": [100, None, None, None, None, 999]},
        )
        # only day 0 has both legs in the 5-day window
        assert math.isnan(AsOf(panel, panel.calendar.days[5], l_adv=5).adv[panel.positions(["A"])[0]])

    def test_lookback_validation(self):
        panel = make_panel(3, ["A"], price=10.0)
        with pytest.raises(ConfigError):
            AsOf(panel, panel.calendar.days[2], l_adv=0)


def test_asof_quantities_ignore_cells_from_t_onward():
    rng = np.random.default_rng(11)
    cols = {
        "A": [float(x) if rng.random() > 0.2 else None for x in rng.uniform(50, 150, 30)],
        "B": [float(x) for x in rng.uniform(50, 150, 30)],
    }
    panel = make_panel(30, ["A", "B"], price=cols, volume=500.0)
    t = panel.calendar.days[20]
    censored = censor_panel(panel, t)
    for a in ("A", "B"):
        i, j = panel.positions([a])[0], censored.positions([a])[0]
        assert AsOf(panel, t).history[i] == AsOf(censored, t).history[j]
        lhs = AsOf(panel, t, l_adv=10).adv[i]
        rhs = AsOf(censored, t, l_adv=10).adv[j]
        assert (math.isnan(lhs) and math.isnan(rhs)) or lhs == rhs


@pytest.mark.parametrize("width", [1, 60, 700])
@pytest.mark.parametrize("length", ["one day", "a row short of a block", "one block", "a block and a row",
                                    "three blocks and a rest"])
def test_history_counts_equal_a_whole_column_cumsum(width, length):
    # history_counts sums down blocks of max(1, ROW_BLOCK_CELLS // width)
    # rows; these lengths end a panel on, beside and past block boundaries
    rows = max(1, ROW_BLOCK_CELLS // width)
    n_days = {"one day": 1, "a row short of a block": rows - 1, "one block": rows, "a block and a row": rows + 1,
              "three blocks and a rest": 3 * rows + rows // 3 + 1}[length]
    rng = np.random.default_rng([width, n_days])
    price = np.where(rng.random((n_days, width)) < 0.3, np.nan, rng.uniform(1.0, 2.0, (n_days, width)))
    if width > 1:
        price[:, -1] = np.nan  # an asset never priced
    ones = np.ones_like(price)
    panel = MarketPanel([f"A{j}" for j in range(width)], trading_days(n_days, "1900-01-01"), price, ones, ones)
    want = np.zeros((n_days + 1, width), dtype=np.int32)
    want[1:] = np.cumsum(np.isfinite(price), axis=0)
    got = panel.history_counts
    assert got.dtype == np.int32 and got.shape == want.shape
    assert np.array_equal(got, want)
