import tracemalloc

import numpy as np
import pytest

from factortilt.backtest import BacktestConfig, run_baselines
from factortilt.calibration import CalibrationParams, build_ic_series
from factortilt.eligibility import EligibilityParams, compute_eligibility
from factortilt.errors import ConfigError
from factortilt.factors import FactorParams, build_factor_matrix
from factortilt.market_data import AsOf, FundamentalRecord, build_schedule
from factortilt.synthetic import ScenarioSpec, generate


def test_same_seed_is_bit_identical():
    spec = ScenarioSpec(seed=42, n_assets=12, n_days=150, dispersion=0.6, missing_rate=0.1)
    a = generate(spec)
    b = generate(spec)
    assert a.assets == b.assets and a.calendar.days == b.calendar.days
    for name in ("price", "volume", "mktcap"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.fundamentals == b.fundamentals


def reports_oracle(spec: ScenarioSpec) -> dict[str, list[FundamentalRecord]]:
    """generate's reports built record by record, one per asset and
    quarter, from the same draws in the same order: the loop its array
    expressions must match bit for bit."""
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_assets, spec.n_days
    spread = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
    _, s_value, s_roe, s_margin, s_lever = (rng.permutation(spread) for _ in range(5))
    for _ in range(d // 63 + 1):  # the transient drift spreads
        rng.permutation(spread)
    rng.standard_normal(d)
    rng.standard_normal((d, n))
    tiers = np.array([spec.liquidity_tiers[i % len(spec.liquidity_tiers)] for i in range(n)])
    shares = 1.0e6 * (tiers if spec.dispersion > 0 else np.ones(n))
    days = generate(spec).calendar.days
    quarter_starts = range(0, d, 63)
    common = rng.standard_normal((len(quarter_starts), 4))
    reports: dict[str, list[FundamentalRecord]] = {}
    for (g_book, g_roe, g_margin, g_lever), di in zip(common, quarter_starts):
        bps = 18.0 * (1.0 + 0.25 * spec.dispersion * s_value + 0.02 * g_book)
        roe = 0.15 + 0.10 * spec.dispersion * s_roe + 0.01 * g_roe
        margin = np.clip(0.40 + 0.20 * spec.dispersion * s_margin + 0.01 * g_margin, 0.01, 0.99)
        lever = np.clip(0.35 + 0.20 * spec.dispersion * s_lever + 0.01 * g_lever, 0.0, 0.95)
        for i in range(n):
            reports.setdefault(f"A{i:03d}", []).append(FundamentalRecord(
                days[di], float(max(bps[i], 0.5) * shares[i]), float(roe[i]), float(margin[i]), float(lever[i])))
    return reports


@pytest.mark.parametrize("spec", [
    ScenarioSpec(seed=7, n_assets=30, n_days=400, dispersion=0.8, liquidity_tiers=(1.0, 50.0, 300.0)),
    ScenarioSpec(seed=1, n_assets=1, n_days=63, dispersion=0.0),
    ScenarioSpec(seed=2, n_assets=5, n_days=64, dispersion=3.0, missing_rate=0.5),
], ids=["scenario-m-like", "one-asset-one-quarter", "wide-dispersion"])
def test_reports_equal_the_record_by_record_oracle(spec):
    def bits(reports):
        return [(a, r.report_date, *(float.hex(v) for v in vars(r).values() if isinstance(v, float)))
                for a, records in reports.items() for r in records]

    assert bits(generate(spec).fundamentals) == bits(reports_oracle(spec))


def test_generate_peak_follows_the_panel():
    """generate holds the panel's three grids, at most one more grid (the
    drift) and one block of the gap mask. The expression form peaked at
    10.4 to 10.7 times one grid here: it held its temporaries and the whole
    (n_days, n_assets, 3) gap draw at once."""
    spec = ScenarioSpec(seed=1, n_assets=200, n_days=1500, missing_rate=0.02)
    tracemalloc.start()
    try:
        panel = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * panel.price.nbytes, f"peak {peak / panel.price.nbytes:.2f} grids"


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

