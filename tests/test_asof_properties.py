"""Property tests for the as-of snapshot and the weights read from it.

The snapshot-based screens, signals, factor matrix and forward returns are
compared bit for bit with a plain per-asset oracle kept here, on random
panels with missing prices, volumes and market caps, and fundamentals with
missing fields, stale reports and report dates off the calendar.
"""

from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np
from hypothesis import given, settings, strategies as st

from factortilt.backtest import STRATEGIES, BacktestConfig, snapshot, target_weights
from factortilt.calibration import forward_returns
from factortilt.eligibility import EligibilityParams, compute_eligibility
from factortilt.errors import InfeasibleCapsError
from factortilt.factors import FactorParams, build_factor_matrix, standardize, winsorize
from factortilt.market_data import FundamentalRecord, MarketPanel, censor_panel
from factortilt.synthetic import trading_days
from factortilt.weighting import CapParams, TiltParams

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def random_panel(seed: int, n_assets: int, n_days: int, gap: float) -> MarketPanel:
    rng = np.random.default_rng(seed)
    cal = trading_days(n_days)
    shape = (n_days, n_assets)

    def holes(arr):
        arr[rng.random(shape) < gap] = np.nan
        return arr

    price = holes(100.0 * np.cumprod(1.0 + rng.normal(0.0, 0.02, shape), axis=0))
    volume = holes(rng.choice([0.0, 10.0, 1e3, 1e5], size=shape) * rng.random(shape))
    mktcap = holes(price * rng.uniform(1e5, 1e7, n_assets))
    assets = [f"A{i}" for i in range(n_assets)]
    first = date.fromisoformat(cal.days[0])
    fundamentals = {}
    for a in assets:
        # calendar days from before the span to past its end, weekends included
        offsets = sorted(set(rng.integers(-40, int(n_days * 1.5), size=rng.integers(0, 6)).tolist()))
        records = []
        for off in offsets:
            fields = rng.normal(0.5, 1.0, 4)
            fields[rng.random(4) < 0.25] = np.nan
            records.append(FundamentalRecord((first + timedelta(days=off)).isoformat(), *fields.tolist()))
        if records:
            fundamentals[a] = records
    return MarketPanel(assets, cal, price, volume, mktcap, fundamentals)


panels = st.builds(
    random_panel,
    seed=st.integers(0, 2**32 - 1),
    n_assets=st.integers(1, 7),
    n_days=st.integers(5, 70),
    gap=st.sampled_from([0.0, 0.1, 0.4]),
)
params = st.fixed_dictionaries({
    "h_min": st.integers(0, 30),
    "l_adv": st.integers(1, 40),
    "l_mom": st.integers(1, 20),
    "skip": st.integers(1, 5),
    "l_fund": st.integers(1, 60),
    "winsor_p": st.sampled_from([0.0, 0.1, 0.3]),
    "components": st.booleans(),
})


def config_for(p, **kw) -> BacktestConfig:
    return BacktestConfig(
        eligibility=EligibilityParams(h_min=p["h_min"], adv_min=0.0, l_adv=p["l_adv"]),
        factors=FactorParams(l_mom=p["l_mom"], skip=p["skip"], l_fund=p["l_fund"],
                             winsor_p=p["winsor_p"], winsorize_quality_components=p["components"]),
        **kw,
    )


# --- per-asset oracle --------------------------------------------------------

def oracle_history(panel, ai, it):
    return int(np.isfinite(panel.price[:it, ai]).sum())


def oracle_adv(panel, ai, it, lookback):
    lo = max(0, it - lookback)
    p, v = panel.price[lo:it, ai], panel.volume[lo:it, ai]
    valid = np.isfinite(p) & np.isfinite(v)
    if int(valid.sum()) < math.ceil(0.5 * lookback):
        return math.nan
    return float(np.mean(p[valid] * v[valid]))


def oracle_momentum(panel, ai, it, l_mom, skip):
    i0, i1 = it - l_mom - skip, it - skip
    if i0 < 0 or i1 < 0:
        return math.nan
    p0, p1 = panel.price[i0, ai], panel.price[i1, ai]
    if not (np.isfinite(p0) and np.isfinite(p1)):
        return math.nan
    return float(p1 / p0 - 1.0)


def oracle_record(panel, asset, t, l_fund):
    for rec in reversed(panel.fundamentals.get(asset, [])):
        if rec.report_date >= t:
            continue
        age = (date.fromisoformat(t) - date.fromisoformat(rec.report_date)).days
        return None if age > l_fund else rec
    return None


def oracle_value(panel, asset, ai, it, t, l_fund):
    rec = oracle_record(panel, asset, t, l_fund)
    if it == 0 or rec is None or math.isnan(rec.book_equity) or rec.book_equity <= 0:
        return math.nan
    mc = panel.mktcap[it - 1, ai]
    return float(rec.book_equity / mc) if np.isfinite(mc) else math.nan


def oracle_quality(panel, members, t, l_fund, p):
    n = len(members)
    roe, gm, neg_dta = np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan)
    for i, asset in enumerate(members):
        rec = oracle_record(panel, asset, t, l_fund)
        if rec is not None:
            roe[i], gm[i], neg_dta[i] = rec.roe, rec.gross_margin, -rec.debt_to_assets
    have_all = np.isfinite(roe) & np.isfinite(gm) & np.isfinite(neg_dta)
    if p is not None:
        roe, gm, neg_dta = winsorize(roe, p), winsorize(gm, p), winsorize(neg_dta, p)
    composite = standardize(roe) + standardize(gm) + standardize(neg_dta)
    return [float(composite[i]) if have_all[i] else math.nan for i in range(n)]


def oracle_matrix(panel, members, t, fp):
    it = panel.calendar.position(t)
    raw = np.full((len(members), 3), np.nan)
    for i, a in enumerate(members):
        ai = panel.position(a)
        raw[i, 0] = oracle_momentum(panel, ai, it, fp.l_mom, fp.skip)
        raw[i, 1] = oracle_value(panel, a, ai, it, t, fp.l_fund)
    raw[:, 2] = oracle_quality(panel, members, t, fp.l_fund,
                               fp.winsor_p if fp.winsorize_quality_components else None)
    z = np.empty_like(raw)
    for j in range(3):
        z[:, j] = standardize(winsorize(raw[:, j], fp.winsor_p))
    return raw, z


def oracle_forward(panel, ai, it, horizon):
    if it + horizon >= panel.n_days:
        return math.nan
    p0, p1 = panel.price[it, ai], panel.price[it + horizon, ai]
    return float(p1 / p0 - 1.0) if np.isfinite(p0) and np.isfinite(p1) else math.nan


# --- properties --------------------------------------------------------------

@SETTINGS
@given(panel=panels, p=params, day=st.floats(0.0, 1.0), horizon=st.integers(1, 30))
def test_snapshot_matches_per_asset_oracle(panel, p, day, horizon):
    it = int(day * (panel.n_days - 1))
    t = panel.calendar.days[it]
    config = config_for(p)
    snap = snapshot(panel, t, config)
    rows = {k: [] for k in ("history", "adv", "momentum", "value", "roe", "gross_margin", "debt_to_assets",
                            "mktcap", "forward")}
    for ai, a in enumerate(panel.assets):
        rec = oracle_record(panel, a, t, p["l_fund"])
        rows["history"].append(oracle_history(panel, ai, it))
        rows["adv"].append(oracle_adv(panel, ai, it, p["l_adv"]))
        rows["momentum"].append(oracle_momentum(panel, ai, it, p["l_mom"], p["skip"]))
        rows["value"].append(oracle_value(panel, a, ai, it, t, p["l_fund"]))
        rows["roe"].append(rec.roe if rec else math.nan)
        rows["gross_margin"].append(rec.gross_margin if rec else math.nan)
        rows["debt_to_assets"].append(rec.debt_to_assets if rec else math.nan)
        rows["mktcap"].append(panel.mktcap[it - 1, ai] if it else math.nan)
        rows["forward"].append(oracle_forward(panel, ai, it, horizon))
    for name, want in rows.items():
        got = forward_returns(panel, t, horizon) if name == "forward" else getattr(snap, name)
        np.testing.assert_array_equal(got, np.array(want), err_msg=name)

    uni = compute_eligibility(panel, t, config.eligibility)
    want_members = tuple(a for a, h, v in zip(panel.assets, rows["history"], rows["adv"])
                         if h >= p["h_min"] and not math.isnan(v))
    assert uni.members == want_members
    for a, h, v in zip(panel.assets, rows["history"], rows["adv"]):
        sv = uni.screen_values[a]
        assert type(sv.history) is int and type(sv.adv) is float
        assert sv.history == h and (sv.adv == v or math.isnan(sv.adv) and math.isnan(v))
    if uni.members:
        m = build_factor_matrix(panel, uni, t, config.factors)
        raw, z = oracle_matrix(panel, uni.members, t, config.factors)
        assert m.assets == uni.members and all(type(a) is str for a in m.assets)
        np.testing.assert_array_equal(m.raw, raw)
        np.testing.assert_array_equal(m.z, z)


@SETTINGS
@given(panel=panels, p=params, day=st.floats(0.0, 1.0))
def test_targets_ignore_data_from_t_on(panel, p, day):
    t = panel.calendar.days[int(day * (panel.n_days - 1))]
    censored = censor_panel(panel, t)
    for s in STRATEGIES:
        config = config_for(p, strategy=s, caps=CapParams(c_max=1.0, kappa=1.0) if s == "dmft" else None)
        try:
            full = target_weights(panel, t, config)
        except InfeasibleCapsError:
            continue
        cut = target_weights(censored, t, config)
        np.testing.assert_array_equal(full.w, cut.w, err_msg=s)


@SETTINGS
@given(panel=panels, p=params, day=st.floats(0.0, 1.0),
       lam=st.floats(0.0, 3.0), m_min=st.floats(0.05, 1.0), m_max=st.floats(1.0, 4.0),
       c_max=st.floats(0.05, 1.0), kappa=st.floats(0.05, 2.0), gamma=st.floats(0.0, 1.0))
def test_dmft_multipliers_bounded_and_caps_hold(panel, p, day, lam, m_min, m_max, c_max, kappa, gamma):
    t = panel.calendar.days[int(day * (panel.n_days - 1))]
    caps = CapParams(c_max=c_max, kappa=kappa, gamma=gamma)
    config = config_for(p, tilt=TiltParams(lam=lam, m_min=m_min, m_max=m_max), caps=caps)
    try:
        wv = target_weights(panel, t, config)
    except InfeasibleCapsError:
        return
    if not wv.w.any():
        return
    assert np.all((wv.multipliers >= m_min) & (wv.multipliers <= m_max))
    capped = np.isfinite(wv.caps)
    assert np.all(wv.w[capped] <= wv.caps[capped] + caps.epsilon)
    assert not wv.w[~capped].any()
    assert abs(wv.w.sum() - 1.0) <= 1e-9
