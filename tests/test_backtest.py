import logging

import numpy as np
import pytest

from factortilt.backtest import (
    BacktestConfig,
    run_backtest,
    run_baselines,
    run_factor_removals,
    target_weights,
    turnover_series,
)
from factortilt.eligibility import EligibilityParams
from factortilt.errors import DataError
from factortilt.factors import FactorParams
from factortilt.market_data import RebalanceSchedule, censor_panel
from factortilt.synthetic import ScenarioSpec, generate
from factortilt.weighting import TiltParams

from conftest import make_panel


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
        res = run_backtest(panel, sched, loose_config(strategy="ew_eligible"))
        expected = np.array(prices[9:]) / np.array(prices[8:-1]) - 1.0
        np.testing.assert_allclose(res.daily_returns[1:], expected, atol=1e-15)
        assert res.daily_returns[0] == 0.0  # cash into the market, costless by default

    def test_two_asset_offsetting_returns(self):
        a = [100.0, 100, 100, 100, 110.0]
        b = [100.0, 100, 100, 100, 90.0]
        panel = make_panel(5, ["A", "B"], price={"A": a, "B": b})
        sched = schedule_at(panel, 3)
        res = run_backtest(panel, sched, loose_config(strategy="ew_eligible",
                                                      eligibility=EligibilityParams(3, 0.0, 3)))
        assert res.daily_returns[-1] == pytest.approx(0.0, abs=1e-15)

    def test_initial_rebalance_turnover_and_cost(self):
        panel = make_panel(10, ["A", "B"], price=100.0)
        sched = schedule_at(panel, 6)
        res = run_backtest(panel, sched, loose_config(strategy="ew_eligible", cost_rate=0.002))
        assert res.turnover[0] == 1.0
        assert res.costs[0] == pytest.approx(0.002)
        assert res.daily_returns[0] == pytest.approx(-0.002)

    def test_accounting_identity(self):
        panel = generate(ScenarioSpec(seed=4, n_assets=8, n_days=160, dispersion=0.8, vol=0.015))
        sched = schedule_at(panel, 40, 100)
        res = run_backtest(panel, sched, loose_config(strategy="dmft",
                                                      eligibility=EligibilityParams(30, 0.0, 10),
                                                      factors=FactorParams(l_mom=20, skip=2),
                                                      cost_rate=0.001))
        eq = 1.0
        for r, e in zip(res.daily_returns, res.equity_curve):
            eq *= 1.0 + r
            assert e == pytest.approx(eq, abs=1e-12)

    def test_cost_monotonicity(self):
        panel = generate(ScenarioSpec(seed=5, n_assets=6, n_days=140, dispersion=0.9, vol=0.01))
        sched = schedule_at(panel, 40, 90)
        kwargs = dict(
            strategy="dmft",
            eligibility=EligibilityParams(30, 0.0, 10),
            factors=FactorParams(l_mom=20, skip=2),
        )
        curves = []
        for rate in (0.0, 0.001, 0.01):
            res = run_backtest(panel, sched, loose_config(cost_rate=rate, **kwargs))
            curves.append(res.equity_curve)
        assert np.all(curves[1] <= curves[0] + 1e-15)
        assert np.all(curves[2] <= curves[1] + 1e-15)

    def test_missing_returns_contribute_zero(self):
        a = [100.0, 100, 100, None, 120.0]
        panel = make_panel(5, ["A"], price={"A": a})
        sched = schedule_at(panel, 2)
        res = run_backtest(panel, sched, loose_config(strategy="ew_eligible",
                                                      eligibility=EligibilityParams(2, 0.0, 2)))
        # day 3 has no price, day 4 has no prior price: both zero
        np.testing.assert_array_equal(res.daily_returns, [0.0, 0.0, 0.0])

    def test_empty_universe_holds_cash(self, caplog):
        panel = make_panel(10, ["A"], price=100.0)
        sched = schedule_at(panel, 5)
        cfg = loose_config(strategy="ew_eligible", eligibility=EligibilityParams(100, 0.0, 5))
        with caplog.at_level(logging.WARNING):
            res = run_backtest(panel, sched, cfg)
        assert "empty universe" in caplog.text
        np.testing.assert_array_equal(res.daily_returns, np.zeros(5))
        np.testing.assert_array_equal(res.weights[0].w, [0.0])

    def test_schedule_outside_panel_errors(self):
        panel = make_panel(10, ["A"], price=100.0)
        sched = RebalanceSchedule(dates=("2030-01-02",))
        with pytest.raises(DataError, match="outside the panel"):
            run_backtest(panel, sched, loose_config())

    def test_no_lookahead_through_rebalance(self):
        panel = generate(ScenarioSpec(seed=6, n_assets=10, n_days=200, dispersion=0.7, vol=0.012))
        sched = schedule_at(panel, 60, 120)
        cfg = loose_config(strategy="dmft",
                           eligibility=EligibilityParams(40, 0.0, 10),
                           factors=FactorParams(l_mom=30, skip=3))
        full = run_backtest(panel, sched, cfg)
        t = sched.dates[1]
        it = panel.calendar.position(t)
        censored = censor_panel(panel, panel.calendar.days[it + 1])
        cut = run_backtest(censored, sched, cfg, end=t)
        k = full.dates.index(t)
        np.testing.assert_array_equal(full.daily_returns[: k + 1], cut.daily_returns)
        for w_full, w_cut in zip(full.weights, cut.weights):
            np.testing.assert_array_equal(w_full.w, w_cut.w)

    def test_drift_mode_turnover_measured_against_drifted(self):
        a = [100.0, 100, 120.0, 120]
        b = [100.0, 100, 80.0, 80]
        panel = make_panel(4, ["A", "B"], price={"A": a, "B": b})
        sched = schedule_at(panel, 1, 3)
        cfg = loose_config(strategy="ew_eligible", weight_mode="drift",
                           eligibility=EligibilityParams(1, 0.0, 1))
        res = run_backtest(panel, sched, cfg)
        # after day 2 the book drifts to (0.6, 0.4); day 3 returns are flat
        # so the trade back to (0.5, 0.5) costs |0.1| + |0.1| one-way
        assert res.turnover[1] == pytest.approx(0.2)
        # constant-mix trades nothing at the second rebalance
        res_cm = run_backtest(panel, sched, loose_config(strategy="ew_eligible",
                                                         eligibility=EligibilityParams(1, 0.0, 1)))
        assert res_cm.turnover[1] == pytest.approx(0.0)


class TestTurnoverSeries:
    def test_unchanged_weights_zero_turnover(self):
        panel = make_panel(12, ["A", "B"], price=100.0)
        sched = schedule_at(panel, 6, 9)
        res = run_backtest(panel, sched, loose_config(strategy="ew_eligible"))
        _, series, annualized = turnover_series(res)
        assert series[1] == 0.0
        assert annualized == pytest.approx((1.0 + 0.0) * 252 / len(res.dates))

    def test_full_replacement_is_two(self):
        # A delists in spirit: loses eligibility as B becomes the only member
        a = [100.0] * 6 + [None] * 6
        b = [None] * 4 + [100.0] * 8
        panel = make_panel(12, ["A", "B"], price={"A": a, "B": b})
        sched = schedule_at(panel, 5, 10)
        cfg = loose_config(strategy="ew_eligible", eligibility=EligibilityParams(3, 0.0, 3))
        res = run_backtest(panel, sched, cfg)
        np.testing.assert_array_equal(res.weights[0].w, [1.0, 0.0])
        np.testing.assert_array_equal(res.weights[1].w, [0.0, 1.0])
        assert res.turnover[1] == 2.0

    def test_hand_delta(self):
        # engineered (0.6, 0.4) -> (0.5, 0.5) via cap-weight then equal-weight? keep direct:
        panel = make_panel(8, ["A", "B"], price=100.0, mktcap={"A": 60e6, "B": 40e6})
        sched = schedule_at(panel, 4, 6)
        res_cw = run_backtest(panel, sched, loose_config(strategy="cap_weighted"))
        np.testing.assert_allclose(res_cw.weights[0].w, [0.6, 0.4], atol=1e-12)
        # switch: compare cap-weight book against the equal-weight targets by hand
        assert abs(res_cw.weights[0].w - np.array([0.5, 0.5])).sum() == pytest.approx(0.2)


class TestBaselines:
    def small_run(self, lam):
        panel = generate(ScenarioSpec(seed=7, n_assets=8, n_days=220, dispersion=0.8, vol=0.01,
                                      liquidity_tiers=(1.0, 4.0)))
        sched = schedule_at(panel, 60, 120, 180)
        cfg = loose_config(
            strategy="dmft",
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
        cfg = loose_config(strategy="cap_weighted")
        wv = target_weights(panel, t, cfg)
        np.testing.assert_allclose(wv.w, [0.6, 0.3, 0.1], atol=1e-15)

    def test_identical_rebalance_dates_across_strategies(self):
        panel, sched, cfg = self.small_run(lam=0.3)
        results = run_baselines(panel, sched, cfg)
        reference = results["dmft"].rebalance_dates
        for res in results.values():
            assert res.rebalance_dates == reference
            assert res.dates == results["dmft"].dates


class TestFactorRemovals:
    def test_keys_and_single_factor_degeneracy(self):
        panel = generate(ScenarioSpec(seed=8, n_assets=6, n_days=160, dispersion=0.8, vol=0.01))
        sched = schedule_at(panel, 50, 100)
        cfg = loose_config(
            strategy="dmft",
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
