import logging
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from factortilt import backtest, weighting
from factortilt.backtest import (
    BacktestConfig,
    evolve,
    pool_matrices,
    removal_tilt,
    run_baselines,
    run_factor_removals,
    snapshot,
)
from factortilt.calibration import CalibrationParams, build_ic_series
from factortilt.eligibility import EligibilityParams
from factortilt.errors import ConfigError, DataError
from factortilt.factors import FactorParams
from factortilt.market_data import RebalanceSchedule, censor_panel
from factortilt.synthetic import ScenarioSpec, generate
from factortilt.weighting import CapParams, Targets, TiltParams, member_caps

from conftest import make_panel, targets_at
from test_asof_properties import fresh_copy


def loose_config(**kw):
    defaults = dict(
        eligibility=EligibilityParams(h_min=5, adv_min=0.0, l_adv=5),
        factors=FactorParams(l_mom=5, skip=1, winsor_p=0.0),
    )
    defaults.update(kw)
    return BacktestConfig(**defaults)


def schedule_at(panel, *indices):
    return RebalanceSchedule(dates=tuple(panel.calendar.days[i] for i in indices))


class TestRunBacktest:
    def test_single_asset_pass_through(self):
        prices = [100.0 * (1.02**i) for i in range(20)]
        panel = make_panel(20, ["A"], price={"A": prices})
        sched = schedule_at(panel, 8)
        res = run_baselines(panel, sched, loose_config())["ew_eligible"]
        expected = np.array(prices[9:]) / np.array(prices[8:-1]) - 1.0
        np.testing.assert_allclose(res.daily_returns[1:], expected, atol=1e-15)
        assert res.daily_returns[0] == 0.0  # cash into the market, costless by default

    def test_two_asset_offsetting_returns(self):
        a = [100.0, 100, 100, 100, 110.0]
        b = [100.0, 100, 100, 100, 90.0]
        panel = make_panel(5, ["A", "B"], price={"A": a, "B": b})
        sched = schedule_at(panel, 3)
        res = run_baselines(panel, sched, loose_config(eligibility=EligibilityParams(3, 0.0, 3)))["ew_eligible"]
        assert res.daily_returns[-1] == pytest.approx(0.0, abs=1e-15)

    def test_initial_rebalance_turnover_and_cost(self):
        panel = make_panel(10, ["A", "B"], price=100.0)
        sched = schedule_at(panel, 6)
        res = run_baselines(panel, sched, loose_config(cost_rate=0.002))["ew_eligible"]
        assert res.turnover[0] == 1.0
        assert res.costs[0] == pytest.approx(0.002)
        assert res.daily_returns[0] == pytest.approx(-0.002)

    def test_accounting_identity(self):
        panel = generate(ScenarioSpec(seed=4, n_assets=8, n_days=160, dispersion=0.8, vol=0.015))
        sched = schedule_at(panel, 40, 100)
        res = run_baselines(panel, sched, loose_config(eligibility=EligibilityParams(30, 0.0, 10),
                                                       factors=FactorParams(l_mom=20, skip=2),
                                                       cost_rate=0.001))["dmft"]
        eq = 1.0
        for r, e in zip(res.daily_returns, res.equity_curve):
            eq *= 1.0 + r
            assert e == pytest.approx(eq, abs=1e-12)

    def test_cost_monotonicity(self):
        panel = generate(ScenarioSpec(seed=5, n_assets=6, n_days=140, dispersion=0.9, vol=0.01))
        sched = schedule_at(panel, 40, 90)
        kwargs = dict(
            eligibility=EligibilityParams(30, 0.0, 10),
            factors=FactorParams(l_mom=20, skip=2),
        )
        curves = []
        for rate in (0.0, 0.001, 0.01):
            res = run_baselines(panel, sched, loose_config(cost_rate=rate, **kwargs))["dmft"]
            curves.append(res.equity_curve)
        assert np.all(curves[1] <= curves[0] + 1e-15)
        assert np.all(curves[2] <= curves[1] + 1e-15)

    def test_return_across_a_gap_is_credited_when_the_price_returns(self):
        a = [100.0, 100, 100, None, 120.0]
        panel = make_panel(5, ["A"], price={"A": a})
        sched = schedule_at(panel, 2)
        res = run_baselines(panel, sched, loose_config(eligibility=EligibilityParams(2, 0.0, 2)))["ew_eligible"]
        # day 3 has no price and earns zero; day 4 earns 120 / 100 - 1 from day 2's price
        np.testing.assert_array_equal(res.daily_returns, [0.0, 0.0, 120.0 / 100.0 - 1.0])
        np.testing.assert_allclose(res.daily_returns, [0.0, 0.0, 0.2], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("weight_mode", ["constant_mix", "drift"])
    def test_held_asset_equity_is_its_price_ratio_across_a_gap(self, weight_mode):
        panel = make_panel(4, ["A"], price={"A": [100.0, 100, None, 121.0]})
        res = run_baselines(panel, schedule_at(panel, 1), loose_config(weight_mode=weight_mode))["ew_all"]
        np.testing.assert_array_equal(res.daily_returns[:2], [0.0, 0.0])
        assert abs(res.equity_curve[-1] - 1.21) <= 1e-15

    def test_returns_before_a_first_price_and_across_the_walks_start(self):
        # B has no price before day 3, so it earns nothing until day 4; A's
        # gap spans the first trade, so day 4 is measured from day 1's price
        a = [100.0, 110.0, None, None, 121.0, 121.0]
        b = [None, None, None, 50.0, 55.0, 55.0]
        panel = make_panel(6, ["A", "B"], price={"A": a, "B": b})
        w = Targets(dates=[panel.calendar.days[2]], assets=("A", "B"), w=[[0.5, 0.5]])
        for mode in ("constant_mix", "drift"):
            res = evolve(panel, {"x": ("ew_all", w)}, BacktestConfig(weight_mode=mode))["x"]
            want = [0.0, 0.0, 0.5 * (121.0 / 110.0 - 1.0) + 0.5 * (55.0 / 50.0 - 1.0), 0.0]
            np.testing.assert_allclose(res.daily_returns, want, rtol=0, atol=1e-15, err_msg=mode)

    def test_empty_universe_holds_cash(self, caplog):
        panel = make_panel(10, ["A"], price=100.0)
        sched = schedule_at(panel, 5)
        cfg = loose_config(eligibility=EligibilityParams(100, 0.0, 5))
        with caplog.at_level(logging.WARNING):
            res = run_baselines(panel, sched, cfg)["ew_eligible"]
        assert "empty universe" in caplog.text
        np.testing.assert_array_equal(res.daily_returns, np.zeros(5))
        np.testing.assert_array_equal(res.weights.w[0], [0.0])

    def test_empty_universe_logged_once_per_date_and_pool(self, caplog):
        # the screens admit no asset; every other pool holds both assets
        panel = make_panel(12, ["A", "B"], price=100.0)
        sched = schedule_at(panel, 7, 10)
        cfg = loose_config(eligibility=EligibilityParams(100, 0.0, 5))
        want = [f"empty universe at {t} in the screened pool; holding cash until next rebalance"
                for t in sched.dates]
        for run in (run_baselines, run_factor_removals):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="factortilt.backtest"):
                run(panel, sched, cfg)
            assert [r.getMessage() for r in caplog.records] == want, run.__name__

    def test_schedule_outside_panel_errors(self):
        panel = make_panel(10, ["A"], price=100.0)
        sched = RebalanceSchedule(dates=("2030-01-02",))
        with pytest.raises(DataError, match="outside the panel"):
            run_baselines(panel, sched, loose_config())

    def test_no_lookahead_through_rebalance(self):
        panel = generate(ScenarioSpec(seed=6, n_assets=10, n_days=200, dispersion=0.7, vol=0.012))
        sched = schedule_at(panel, 60, 120)
        cfg = loose_config(eligibility=EligibilityParams(40, 0.0, 10), factors=FactorParams(l_mom=30, skip=3))
        full = run_baselines(panel, sched, cfg)["dmft"]
        t = sched.dates[1]
        it = panel.calendar.position(t)
        censored = censor_panel(panel, panel.calendar.days[it + 1])
        cut = run_baselines(censored, sched, cfg, end=t)["dmft"]
        k = full.dates.index(t)
        np.testing.assert_array_equal(full.daily_returns[: k + 1], cut.daily_returns)
        for w_full, w_cut in zip(full.weights, cut.weights):
            np.testing.assert_array_equal(w_full.w, w_cut.w)

    def test_drift_mode_turnover_measured_against_drifted(self):
        a = [100.0, 100, 120.0, 120]
        b = [100.0, 100, 80.0, 80]
        panel = make_panel(4, ["A", "B"], price={"A": a, "B": b})
        sched = schedule_at(panel, 1, 3)
        cfg = loose_config(weight_mode="drift",
                           eligibility=EligibilityParams(1, 0.0, 1))
        res = run_baselines(panel, sched, cfg)["ew_eligible"]
        # after day 2 the book drifts to (0.6, 0.4); day 3 returns are flat
        # so the trade back to (0.5, 0.5) costs |0.1| + |0.1| one-way
        assert res.turnover[1] == pytest.approx(0.2)
        # constant-mix trades nothing at the second rebalance
        res_cm = run_baselines(panel, sched, loose_config(eligibility=EligibilityParams(1, 0.0, 1)))["ew_eligible"]
        assert res_cm.turnover[1] == pytest.approx(0.0)


class TestTurnoverSeries:
    def test_unchanged_weights_zero_turnover(self):
        panel = make_panel(12, ["A", "B"], price=100.0)
        sched = schedule_at(panel, 6, 9)
        res = run_baselines(panel, sched, loose_config())["ew_eligible"]
        np.testing.assert_array_equal(res.turnover, [1.0, 0.0])

    def test_full_replacement_is_two(self):
        # A delists in spirit: loses eligibility as B becomes the only member
        a = [100.0] * 6 + [None] * 6
        b = [None] * 4 + [100.0] * 8
        panel = make_panel(12, ["A", "B"], price={"A": a, "B": b})
        sched = schedule_at(panel, 5, 10)
        cfg = loose_config(eligibility=EligibilityParams(3, 0.0, 3))
        res = run_baselines(panel, sched, cfg)["ew_eligible"]
        np.testing.assert_array_equal(res.weights.w, [[1.0, 0.0], [0.0, 1.0]])
        assert res.turnover[1] == 2.0

    def test_hand_delta(self):
        # engineered (0.6, 0.4) -> (0.5, 0.5) via cap-weight then equal-weight? keep direct:
        panel = make_panel(8, ["A", "B"], price=100.0, mktcap={"A": 60e6, "B": 40e6})
        sched = schedule_at(panel, 4, 6)
        res_cw = run_baselines(panel, sched, loose_config())["cap_weighted"]
        np.testing.assert_allclose(res_cw.weights.w[0], [0.6, 0.4], atol=1e-12)
        # switch: compare cap-weight book against the equal-weight targets by hand
        assert abs(res_cw.weights.w[0] - np.array([0.5, 0.5])).sum() == pytest.approx(0.2)


class TestBaselines:
    def small_run(self, lam):
        panel = generate(ScenarioSpec(seed=7, n_assets=8, n_days=220, dispersion=0.8, vol=0.01,
                                      liquidity_tiers=(1.0, 4.0)))
        sched = schedule_at(panel, 60, 120, 180)
        cfg = loose_config(
            eligibility=EligibilityParams(40, 0.0, 10),
            factors=FactorParams(l_mom=30, skip=3),
            tilt=TiltParams(lam=lam),
            cost_rate=0.001,
        )
        return panel, sched, cfg

    def test_lambda_zero_matches_equal_weight_exactly(self):
        panel, sched, cfg = self.small_run(lam=0.0)
        results = run_baselines(panel, sched, cfg)
        np.testing.assert_array_equal(
            results["dmft"].daily_returns, results["ew_eligible"].daily_returns
        )
        for w_d, w_e in zip(results["dmft"].weights, results["ew_eligible"].weights):
            np.testing.assert_array_equal(w_d.w, w_e.w)

    def test_single_asset_universe_identical_across_strategies(self):
        fr = None
        panel = make_panel(30, ["A"], price={"A": [100.0 * 1.01**i for i in range(30)]},
                           mktcap=5e6, fundamentals=fr)
        sched = schedule_at(panel, 10, 20)
        cfg = loose_config(eligibility=EligibilityParams(5, 0.0, 5),
                           factors=FactorParams(l_mom=5, skip=1))
        results = run_baselines(panel, sched, cfg)
        base = results["dmft"].daily_returns
        for name, res in results.items():
            np.testing.assert_allclose(res.daily_returns, base, atol=1e-15, err_msg=name)

    def test_cap_weighted_fixture(self):
        panel = make_panel(10, ["A", "B", "C"], price=100.0,
                           mktcap={"A": 60e6, "B": 30e6, "C": 10e6})
        t = panel.calendar.days[5]
        wv = targets_at(panel, t, loose_config(), "cap_weighted")
        np.testing.assert_allclose(wv.w, [0.6, 0.3, 0.1], atol=1e-15)

    def test_identical_rebalance_dates_across_strategies(self):
        panel, sched, cfg = self.small_run(lam=0.3)
        results = run_baselines(panel, sched, cfg)
        reference = results["dmft"].rebalance_dates
        for res in results.values():
            assert res.rebalance_dates == reference
            assert res.dates == results["dmft"].dates

    def test_results_matrices_and_ic_series_compare_by_identity_without_raising(self):
        # == on numpy arrays has no single truth value; like WeightVector and
        # Targets, each of these compares by identity and returns a bool
        panel, sched, cfg = self.small_run(lam=0.3)

        def built(panel):
            matrices = pool_matrices([snapshot(panel, t, cfg) for t in sched.dates], "dmft", cfg)
            ics = build_ic_series(panel, sched, dict(zip(sched.dates, matrices)), CalibrationParams(horizon=5))
            assert len(ics["MOM"]) > 1  # == on its values would have no single truth value
            return run_baselines(panel, sched, cfg)["dmft"], matrices[0], ics["MOM"]

        # the second set on a new panel: the same panel returns its stored matrices themselves
        for a, b in zip(built(panel), built(fresh_copy(panel)), strict=True):
            assert (a == b) is False and (a != b) is True and (a == a) is True, type(a).__name__

    def test_rebalance_dates_are_the_weights_dates(self):
        # a result's trades are dated by its weights alone, in every walk and
        # when `end` cuts the schedule short
        panel, sched, cfg = self.small_run(lam=0.3)
        for end in (None, panel.calendar.days[-1], sched.dates[-1], sched.dates[1]):
            for run in (run_baselines, run_factor_removals):
                for name, res in run(panel, sched, cfg, end).items():
                    assert res.rebalance_dates == list(res.weights.dates) == [t for t in sched.dates
                                                                             if end is None or t <= end], name
                    assert len(res.turnover) == len(res.costs) == len(res.rebalance_dates), name


def test_each_walk_computes_each_pool_once_per_date(monkeypatch):
    # one pool_positions call per (date, pool) the walk's books hold, however
    # many books or lookups (matrices, caps, weights, logging) read it
    panel = generate(ScenarioSpec(seed=9, n_assets=60, n_days=300, liquidity_tiers=(1.0, 4.0)))
    sched = schedule_at(panel, *range(60, 280, 4))
    cfg = loose_config(eligibility=EligibilityParams(40, 0.0, 10), factors=FactorParams(l_mom=30, skip=3),
                       caps=CapParams(c_max=0.15, kappa=0.2))
    calls = Counter()
    real = backtest.pool_positions

    def counting(snap, strategy, config):
        calls[snap.t, backtest._POOLS.get(strategy, strategy)] += 1
        return real(snap, strategy, config)

    monkeypatch.setattr(backtest, "pool_positions", counting)
    assert len(sched) == 55
    for run, pools in ((run_baselines, ("screened", "fixed_universe", "ew_all", "cap_weighted")),
                       (run_factor_removals, ("screened",))):
        calls.clear()
        run(panel, sched, cfg)
        assert calls == Counter({(t, pool): 1 for t in sched.dates for pool in pools}), run.__name__


def test_evolve_rejects_books_it_cannot_trade():
    panel = make_panel(10, ["A", "B"], price=100.0)
    d = panel.calendar.days

    def book(*dates, assets=("A", "B")):
        return "ew_all", Targets(dates=dates, assets=assets, w=np.full((len(dates), 2), 0.5))

    cases = [
        ({"x": book(d[2], d[5]), "y": book(d[2], d[6])}, ConfigError, "books rebalance on different dates"),
        ({"x": book(d[2], assets=("B", "A"))}, ConfigError, "not over the panel's assets"),
        ({"x": book(d[5], d[2])}, DataError, "rebalance dates not strictly increasing"),
        ({"x": book(d[2], "2020-01-11")}, DataError, "2020-01-11 is not a trading day"),  # a Saturday
        ({"x": book(d[7])}, ConfigError, f"no target weights dated on or before the backtest end {d[6]}"),
        ({}, ConfigError, "no target weights dated"),
    ]
    for books, error, message in cases:
        with pytest.raises(error, match=message):
            evolve(panel, books, BacktestConfig(), end=d[6])
    with pytest.raises(DataError, match="backtest end precedes the panel calendar"):
        evolve(panel, {"x": book(d[2])}, BacktestConfig(), end="2019-12-31")


def test_a_walk_cut_short_checks_no_row_again(monkeypatch):
    """evolve cut short by `end` keeps the head of each book's targets:
    slices of the blocks the constructor checked, with no second check."""
    panel = make_panel(30, ["A", "B"], price={"A": np.linspace(100, 130, 30), "B": 100.0})
    d = panel.calendar.days
    targets = Targets(dates=(d[2], d[10], d[20]), assets=("A", "B"), w=[[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
    checks = []
    check_rows = weighting._check_rows
    monkeypatch.setattr(weighting, "_check_rows", lambda *args: checks.append(args) or check_rows(*args))
    kept = evolve(panel, {"x": ("ew_all", targets)}, BacktestConfig(), end=d[12])["x"].weights
    assert not checks
    assert kept.dates == targets.dates[:2] and kept.assets == targets.assets
    assert kept.w.tobytes() == targets.w[:2].tobytes() and not kept.w.flags.writeable
    assert kept.multipliers is None and kept.caps is None
    Targets(kept.dates, kept.assets, kept.w)  # the public constructor still checks
    assert len(checks) == 1


def test_evolve_peak_follows_the_walked_rows():
    """evolve builds asset returns in fixed blocks of calendar rows (163 rows
    at 200 assets), one block at a time, and for each book one product of
    the block's returns with each row's target, freed before the next
    block. With a trade every 21 days over 1,201 of 1,500 days its
    transient is 0.23 of the panel's price grid under constant_mix and 0.25
    under drift (0.16 with one product per holding-period piece, 0.07 when
    evolve built one holding period at a time; the day loop over a returns
    grid of all walked rows peaked at 1.35). A single holding period peaks
    at 0.23 grids whether it lasts 500 days or 1,500, where evolve built
    that period's returns whole (0.71 and 2.13); five books over it peak at
    0.25, one book's products at a time (0.74 with all five books' products
    in one array, 2.16 before blocks). Five books that trade every day or
    every 5 days peak at 0.33 and 0.27 (drift 0.36 and 0.30; 0.23-0.33 with
    one product per piece), since a block holds no array that grows with
    the trades in it: drift finds the drifted weights of at most an eighth
    of a block's rows of ended periods at once."""
    panel = generate(ScenarioSpec(seed=1, n_assets=200, n_days=1500, missing_rate=0.02))
    days, assets = panel.calendar.days, tuple(panel.assets)
    w = np.full(panel.n_assets, 1.0 / panel.n_assets)
    cases = ((21, days[1200], 1, 0.25), (len(days), days[499], 1, 0.4), (len(days), None, 1, 0.4),
             (len(days), None, 5, 1.0), (1, None, 5, 0.4), (5, None, 5, 0.4))
    for mode in ("constant_mix", "drift"):
        for every, end, n_books, gate in cases:
            dates = days[::every]
            book = ("ew_all", Targets(dates=dates, assets=assets, w=np.broadcast_to(w, (len(dates), len(w)))))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                evolve(panel, {f"ew{i}": book for i in range(n_books)}, BacktestConfig(weight_mode=mode), end=end)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < gate * panel.price.nbytes, \
                f"{mode} every {every} to {end}, {n_books} books: peak {peak / panel.price.nbytes:.2f} grids"


@pytest.mark.parametrize("weight_mode", ["constant_mix", "drift"])
def test_a_book_in_cash_earns_plus_zero_on_days_every_price_falls(weight_mode):
    # a cash row's products are 0 * r, -0.0 wherever r < 0; its return is
    # the +0.0 of a book that holds nothing, never -0.0 or a 0 / 0
    panel = make_panel(8, [f"A{i}" for i in range(12)], price={f"A{i}": [100.0 * 0.99**k for k in range(8)]
                                                              for i in range(12)})
    days, w = panel.calendar.days, np.full(12, 1.0 / 12)
    book = Targets(dates=[days[0], days[2], days[6]], assets=panel.assets, w=[w, np.zeros(12), w])
    res = evolve(panel, {"x": ("ew_all", book)}, BacktestConfig(weight_mode=weight_mode))["x"]
    assert res.daily_returns[3:7].tobytes() == np.zeros(4).tobytes()
    assert (res.daily_returns[[1, 2, 7]] < 0).all()


def test_walk_peak_does_not_grow_with_the_rebalance_dates():
    """A walk holds one block of snapshots at a time, and evolve one block
    of rows, so its transient (its traced peak less what it returns) stays
    0.24-0.26 of the panel's price grid from 16 to 128 rebalance dates (200
    assets; 0.32-0.38 when evolve made one product per holding-period piece
    over every book at once). Holding every date's snapshot until the
    last target is built, the transient grew with the dates, to 2.5 grids
    at 128. The ADV row and report block of each date, and its factor
    matrices (one per distinct member set of the tilted pools), stay in the
    panel's stores after the walk, so they count in `kept`, not in the
    transient: this test does not see that retained memory, which grows
    with the dates."""
    panel = generate(ScenarioSpec(seed=1, n_assets=200, n_days=1500, dispersion=0.8,
                                  liquidity_tiers=(1.0, 50.0, 300.0), missing_rate=0.02))
    days = panel.calendar.days
    config = BacktestConfig(cost_rate=0.001, caps=CapParams())
    run_baselines(panel, schedule_at(panel, 400), config)  # the panel's tables, built on first use and kept
    transient = {}
    for n in (16, 128):
        sched = RebalanceSchedule(dates=tuple(days[300 :: 1200 // n][:n]))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            results = run_baselines(panel, sched, config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results["dmft"].weights) == n and kept > before
        transient[n] = (peak - kept) / panel.price.nbytes
    assert transient[128] < 1.25 * transient[16], f"{transient} grids"


class TestFactorRemovals:
    def test_keys_and_single_factor_degeneracy(self):
        panel = generate(ScenarioSpec(seed=8, n_assets=6, n_days=160, dispersion=0.8, vol=0.01))
        sched = schedule_at(panel, 50, 100)
        cfg = loose_config(
            eligibility=EligibilityParams(30, 0.0, 10),
            factors=FactorParams(l_mom=20, skip=2),
            tilt=TiltParams(alpha={"MOM": 1.0, "VAL": 0.0, "QUAL": 0.0}, lam=0.5),
        )
        runs = run_factor_removals(panel, sched, cfg)
        assert set(runs) == {"full", "drop_MOM", "drop_VAL", "drop_QUAL"}
        # dropping the only loaded factor leaves VAL/QUAL shared uniformly
        assert not np.array_equal(runs["drop_MOM"].daily_returns, runs["full"].daily_returns)
        # dropping a zero-weight factor renormalizes back to the same mixture
        np.testing.assert_allclose(
            runs["drop_VAL"].daily_returns, runs["full"].daily_returns, atol=1e-15
        )

    def test_full_book_is_the_dmft_baseline(self):
        # one config per walk: the removals' full book is run_baselines' dmft
        # book, caps included, and every removal book is a dmft book
        panel = generate(ScenarioSpec(seed=7, n_assets=12, n_days=220, dispersion=0.8, vol=0.01,
                                      liquidity_tiers=(1.0, 4.0, 16.0)))
        sched = schedule_at(panel, 60, 120, 180)
        cfg = loose_config(eligibility=EligibilityParams(40, 0.0, 10), factors=FactorParams(l_mom=30, skip=3),
                           tilt=TiltParams(lam=1.0), caps=CapParams(c_max=0.15, kappa=0.1), cost_rate=0.001,
                           weight_mode="drift")
        full = run_factor_removals(panel, sched, cfg)
        dmft = run_baselines(panel, sched, cfg)["dmft"]
        assert {res.strategy for res in full.values()} == {"dmft"}
        full = full["full"]
        for attr in ("daily_returns", "equity_curve", "turnover", "costs"):
            assert getattr(full, attr).tobytes() == getattr(dmft, attr).tobytes(), attr
        assert (full.dates, full.rebalance_dates) == (dmft.dates, dmft.rebalance_dates)
        binding = 0
        for a, b in zip(full.weights, dmft.weights, strict=True):
            for attr in ("w", "multipliers", "caps"):
                assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes(), (a.t, attr)
            binding += int(np.sum(np.isclose(a.w, a.caps, rtol=0, atol=1e-15)))
        assert binding  # a cap binds somewhere, so the caps reach both walks


    def test_caps_are_computed_once_per_date(self, monkeypatch):
        # the four dmft books share one pool, so they share its cap row, and
        # the walk's one block of three dates takes one member_caps call
        panel = generate(ScenarioSpec(seed=7, n_assets=12, n_days=220, liquidity_tiers=(1.0, 4.0, 16.0)))
        sched = schedule_at(panel, 60, 120, 180)
        cfg = loose_config(eligibility=EligibilityParams(40, 0.0, 10), factors=FactorParams(l_mom=30, skip=3),
                           caps=CapParams(c_max=0.15, kappa=0.1))
        calls = []

        def counting(advs, params):
            calls.append([adv.size for adv in advs])
            return member_caps(advs, params)

        monkeypatch.setattr(backtest, "member_caps", counting)
        runs = run_factor_removals(panel, sched, cfg)
        sizes = [n for call in calls for n in call]
        assert len(calls) == 1 and len(sizes) == len(sched) and all(sizes)
        assert all(np.isfinite(w.caps).sum() == n for res in runs.values() for w, n in zip(res.weights, sizes))


class TestRemovalTilt:
    def test_rest_renormalized(self):
        tilt = removal_tilt(TiltParams(alpha={"MOM": 0.5, "VAL": 0.3, "QUAL": 0.2}, lam=0.4), "VAL")
        assert tilt.alpha == {"MOM": 0.5 / 0.7, "VAL": 0.0, "QUAL": 0.2 / 0.7}
        assert (tilt.lam, tilt.m_min, tilt.m_max) == (0.4, 0.5, 1.5)

    def test_rest_without_weight_shared_uniformly(self):
        tilt = removal_tilt(TiltParams(alpha={"MOM": 1.0, "VAL": 0.0, "QUAL": 0.0}), "MOM")
        assert tilt.alpha == {"MOM": 0.0, "VAL": 0.5, "QUAL": 0.5}

    def test_unknown_factor(self):
        with pytest.raises(ConfigError, match="factor 'SIZE' not in mixture"):
            removal_tilt(TiltParams(), "SIZE")
