import numpy as np
import pytest

from factortilt.backtest import BacktestConfig, run_baselines
from factortilt.calibration import CalibrationParams, build_ic_series
from factortilt.eligibility import EligibilityParams, compute_eligibility
from factortilt.errors import ConfigError
from factortilt.factors import FactorParams, build_factor_matrix
from factortilt.market_data import AsOf, build_schedule
from factortilt.synthetic import ScenarioSpec, generate, scenario_from_mapping


def test_same_seed_is_bit_identical():
    spec = ScenarioSpec(seed=42, n_assets=12, n_days=150, dispersion=0.6, missing_rate=0.1)
    a = generate(spec)
    b = generate(spec)
    assert a.assets == b.assets and a.calendar.days == b.calendar.days
    for name in ("price", "volume", "mktcap"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.fundamentals == b.fundamentals


def test_different_seeds_differ():
    a = generate(ScenarioSpec(seed=1, n_assets=4, n_days=60))
    b = generate(ScenarioSpec(seed=2, n_assets=4, n_days=60))
    assert not np.array_equal(a.price, b.price)


def test_zero_missing_rate_is_complete():
    panel = generate(ScenarioSpec(seed=3, n_assets=6, n_days=80, missing_rate=0.0))
    assert panel.missing_counts() == {"price": 0, "volume": 0, "mktcap": 0}


def test_missing_rate_thins_cells():
    panel = generate(ScenarioSpec(seed=3, n_assets=10, n_days=200, missing_rate=0.2))
    frac = np.isnan(panel.price).mean()
    assert 0.15 < frac < 0.25


def test_panel_passes_validation_and_positivity():
    panel = generate(ScenarioSpec(seed=4, n_assets=8, n_days=120, vol=0.05, dispersion=1.0))
    assert np.all(panel.price[np.isfinite(panel.price)] > 0)
    assert np.all(panel.mktcap[np.isfinite(panel.mktcap)] > 0)


def test_liquidity_tiers_order_adv():
    panel = generate(ScenarioSpec(seed=5, n_assets=6, n_days=60, liquidity_tiers=(1.0, 10.0, 100.0)))
    t = panel.calendar.days[-1]
    advs = AsOf(panel, t, l_adv=20).adv.tolist()
    # assets cycle through tiers: 0,3 low; 1,4 mid; 2,5 high
    assert advs[1] > 5 * advs[0] and advs[2] > 5 * advs[1]


def test_ic_target_links_momentum_to_forward_returns():
    panel = generate(
        ScenarioSpec(seed=6, n_assets=30, n_days=900, vol=0.005, dispersion=1.0, ic_target=0.9)
    )
    cal = panel.calendar
    anchors = ((1, 1), (4, 1), (7, 1), (10, 1))
    schedule = build_schedule(cal, cal.days[300], cal.days[-1], anchors=anchors)
    universes = {
        t: compute_eligibility(panel, t, EligibilityParams(h_min=252, adv_min=0.0, l_adv=21))
        for t in schedule.dates
    }
    matrices = {
        t: build_factor_matrix(panel, u, t, FactorParams())
        for t, u in universes.items()
        if u.members
    }
    series = build_ic_series(panel, schedule, matrices, CalibrationParams(horizon=126, m_min=2))
    assert len(series["MOM"]) >= 5
    assert float(series["MOM"].values.mean()) > 0.5


def test_zero_dispersion_collapses_to_equal_weight():
    panel = generate(ScenarioSpec(seed=7, n_assets=10, n_days=240, vol=0.01, dispersion=0.0,
                                  liquidity_tiers=(1.0, 50.0)))
    cal = panel.calendar
    sched = build_schedule(cal, cal.days[120], cal.days[-1], anchors=((1, 1), (7, 1)))
    uni = compute_eligibility(panel, sched.dates[0], EligibilityParams(h_min=60, adv_min=0.0, l_adv=21))
    assert len(uni.members) == 10
    m = build_factor_matrix(panel, uni, sched.dates[0], FactorParams(l_mom=60, skip=5))
    np.testing.assert_array_equal(m.z, np.zeros_like(m.z))
    cfg = BacktestConfig(
        eligibility=EligibilityParams(h_min=60, adv_min=0.0, l_adv=21),
        factors=FactorParams(l_mom=60, skip=5),
    )
    results = run_baselines(panel, sched, cfg)
    np.testing.assert_array_equal(
        results["dmft"].daily_returns, results["ew_eligible"].daily_returns
    )


def test_spec_validation():
    with pytest.raises(ConfigError):
        ScenarioSpec(n_assets=0)
    with pytest.raises(ConfigError):
        ScenarioSpec(missing_rate=1.5)
    with pytest.raises(ConfigError):
        ScenarioSpec(liquidity_tiers=())
    with pytest.raises(ConfigError):
        ScenarioSpec(ic_target=2.0)


def test_scenario_from_mapping():
    spec = scenario_from_mapping(
        {"seed": "9", "n_assets": "5", "n_days": "30", "liquidity_tiers": "1,2.5,10", "vol": "0.02"}
    )
    assert spec.seed == 9 and spec.n_assets == 5
    assert spec.liquidity_tiers == (1.0, 2.5, 10.0)
    with pytest.raises(ConfigError, match="unknown scenario keys"):
        scenario_from_mapping({"seed": "1", "bogus": "2"})
