"""Property tests for the as-of snapshot and the weights read from it.

The snapshot-based screens, signals, factor matrix and forward returns are
compared bit for bit with a plain per-asset oracle kept here, on random
panels with missing prices, volumes and market caps, and fundamentals with
missing fields, stale reports and report dates off the calendar. The ADV
and report rows and the factor matrices a panel stores are compared with
those of a fresh panel, asked for in any order and from several threads
at once.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from factortilt import factors
from factortilt.backtest import STRATEGIES, BacktestConfig, pool_matrices, pool_positions, snapshot
from factortilt.calibration import forward_returns
from factortilt.eligibility import EligibilityParams, EligibilitySet, compute_eligibility
from factortilt.errors import ConfigError, InfeasibleCapsError
from factortilt.factors import (
    FactorParams,
    build_factor_matrix,
    select_factor_matrices,
    stored_matrices,
)
from factortilt.market_data import (
    AsOf,
    FundamentalRecord,
    MarketPanel,
    _average_dollar_volumes,
    _latest_reports,
    censor_panel,
)
from factortilt.synthetic import trading_days
from factortilt.weighting import CapParams, TiltParams

from conftest import report_arrays, standardize_oracle, targets_at, winsorize_oracle

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
    return MarketPanel(assets, cal, price, volume, mktcap, **report_arrays(assets, fundamentals))


def fresh_copy(panel: MarketPanel) -> MarketPanel:
    """A new panel over the same arrays: it stores no as-of row yet."""
    return MarketPanel(list(panel.assets), panel.calendar, panel.price, panel.volume, panel.mktcap,
                       report_asset=panel.report_asset, report_date=panel.report_date,
                       report_values=panel.report_values)


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
        roe, gm, neg_dta = winsorize_oracle(roe, p), winsorize_oracle(gm, p), winsorize_oracle(neg_dta, p)
    composite = standardize_oracle(roe) + standardize_oracle(gm) + standardize_oracle(neg_dta)
    return [float(composite[i]) if have_all[i] else math.nan for i in range(n)]


def oracle_matrix(panel, members, t, fp):
    it = panel.calendar.position(t)
    raw = np.full((len(members), 3), np.nan)
    for i, a in enumerate(members):
        ai = panel.positions([a])[0]
        raw[i, 0] = oracle_momentum(panel, ai, it, fp.l_mom, fp.skip)
        raw[i, 1] = oracle_value(panel, a, ai, it, t, fp.l_fund)
    raw[:, 2] = oracle_quality(panel, members, t, fp.l_fund,
                               fp.winsor_p if fp.winsorize_quality_components else None)
    z = np.empty_like(raw)
    for j in range(3):
        z[:, j] = standardize_oracle(winsorize_oracle(raw[:, j], fp.winsor_p))
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
    it = int(day * (panel.n_days - 1))
    t = panel.calendar.days[it]
    config = config_for(p, caps=CapParams(c_max=1.0, kappa=1.0))
    for later in panel.calendar.days[it :: 1 + (panel.n_days - it) // 3]:
        # the full panel's targets read stored rows and matrices, at t and after it
        snap = snapshot(panel, later, config)
        for s in ("dmft", "fixed_universe"):
            pool_matrices([snap] if pool_positions(snap, s, config).size else [], s, config)
    censored = censor_panel(panel, t)
    # a new panel: none of the full panel's rows or matrices carry over
    assert censored.as_of_rows == {} and censored.factor_matrices == {}
    for s in STRATEGIES:
        try:
            full = targets_at(panel, t, config, s)
        except InfeasibleCapsError:
            continue
        cut = targets_at(censored, t, config, s)
        np.testing.assert_array_equal(full.w, cut.w, err_msg=s)


# (fraction of the calendar, l_adv, l_fund) requests, drawn from few values so that keys repeat
requests = st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                              st.sampled_from([None, 1, 3, 20]), st.sampled_from([None, 1, 30, 400])),
                    min_size=1, max_size=12)


def store_key(panel, t, l_adv=None, l_fund=None):
    """The key of the ADV row or of the report block a snapshot at t reads."""
    if l_adv is not None:
        return _average_dollar_volumes, panel.calendar.position(t), l_adv
    return _latest_reports, t, l_fund


@SETTINGS
@given(panel=panels, requests=requests)
@example(panel=random_panel(5, 3, 30, 0.1), requests=[(0.5, 3, 30), (0.5, 20, 400), (0.5, 3, 30), (1.0, None, 30)])
def test_stored_rows_equal_fresh_ones(panel, requests):
    assert panel.as_of_rows == {}  # a new panel stores nothing until its first snapshot
    first = {}
    for day, l_adv, l_fund in requests:
        t = panel.calendar.days[int(day * (panel.n_days - 1))]
        snap = AsOf(panel, t, l_adv=l_adv, l_fund=l_fund)
        fresh_panel = fresh_copy(panel)
        fresh = AsOf(fresh_panel, t, l_adv=l_adv, l_fund=l_fund)
        for name in ("adv", "value", "roe", "gross_margin", "debt_to_assets"):
            got, want = getattr(snap, name), getattr(fresh, name)
            assert (got is None) == (want is None) and (got is None or got.tobytes() == want.tobytes()), name
        keys = [store_key(panel, t, l_adv=l_adv)] if l_adv is not None else []
        keys += [store_key(panel, t, l_fund=l_fund)] if l_fund is not None else []
        assert fresh_panel.as_of_rows.keys() == set(keys)
        for key in keys:
            row = panel.as_of_rows[key]
            assert row.tobytes() == fresh_panel.as_of_rows[key].tobytes()  # the book row too
            assert first.setdefault(key, row) is row  # asked again, the same array
        if l_adv is not None:
            assert snap.adv is first[keys[0]]
        if l_fund is not None:
            assert snap.roe.base is first[keys[-1]]
    assert panel.as_of_rows.keys() == first.keys()
    stored = list(panel.as_of_rows.values())
    for i, row in enumerate(stored):
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[...] = 0.0
        assert not any(np.shares_memory(row, other) for other in stored[i + 1 :])  # no two windows share a row


def test_threads_asking_at_once_share_one_stored_row():
    panel = random_panel(9, 40, 300, 0.1)
    dates = panel.calendar.days[::25]
    got, start = [], threading.Barrier(8)

    def ask():
        start.wait(timeout=60)
        for t in dates:
            snap = AsOf(panel, t, l_adv=20, l_fund=30)
            got.append((store_key(panel, t, l_adv=20), snap.adv))
            got.append((store_key(panel, t, l_fund=30), snap.roe.base))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 8 * 2 * len(dates) and len(panel.as_of_rows) == 2 * len(dates)
    assert all(row is panel.as_of_rows[key] for key, row in got)


def matrix_key(t, positions, fp: FactorParams) -> tuple:
    """The key of the factor matrix at t over the members at `positions`
    under fp in the panel's store."""
    return (t, fp.l_mom, fp.skip, fp.l_fund, np.asarray(positions, dtype=np.intp).tobytes(), fp.winsor_p,
            fp.winsorize_quality_components)


def fresh_matrix(panel, t, positions, fp: FactorParams):
    """The matrix the kernel builds on a new panel, which stores nothing."""
    fresh = fresh_copy(panel)
    snap = AsOf(fresh, t, l_mom=fp.l_mom, skip=fp.skip, l_fund=fp.l_fund)
    return select_factor_matrices([snap], [np.asarray(positions, dtype=np.intp)], fp)[0]


# factor parameters drawn from few values, so that keys repeat
factor_params = st.builds(FactorParams, l_mom=st.sampled_from([1, 5]), skip=st.sampled_from([1, 3]),
                          l_fund=st.sampled_from([30, 400]), winsor_p=st.sampled_from([0.0, 0.1]),
                          winsorize_quality_components=st.booleans())
# batches of (fraction of the calendar, member bits, reversed, params) requests, each batch one call
matrix_requests = st.lists(st.lists(st.tuples(st.sampled_from([0.5, 1.0]) | st.floats(0.0, 1.0),
                                              st.integers(1, 2**7 - 1), st.booleans(), factor_params),
                                    min_size=1, max_size=4), min_size=1, max_size=5)


@SETTINGS
@given(panel=panels, batches=matrix_requests)
@example(panel=random_panel(5, 3, 30, 0.1), batches=[
    [(0.5, 3, False, FactorParams(l_mom=5)), (0.5, 3, False, FactorParams(l_mom=5))],
    [(0.5, 3, False, FactorParams(l_mom=5, winsor_p=0.1)), (0.5, 3, False, FactorParams(l_mom=1))],
    [(0.5, 3, True, FactorParams(l_mom=5)), (0.5, 3, False, FactorParams(l_mom=5))]])
def test_stored_matrices_equal_fresh_ones(panel, batches):
    assert panel.factor_matrices == {}  # a new panel stores no matrix until its first request
    first = {}
    for batch in batches:
        requests = []
        for day, bits, backwards, fp in batch:
            t = panel.calendar.days[int(day * (panel.n_days - 1))]
            positions = np.flatnonzero([bits >> i & 1 for i in range(panel.n_assets)])
            if not positions.size:
                positions = np.arange(panel.n_assets)
            requests.append((t, positions[::-1] if backwards else positions, fp))
        by_params = {}  # one call per params, its dates side by side
        for t, positions, fp in requests:
            by_params.setdefault(fp, []).append((t, positions))
        for fp, asked in by_params.items():
            got = stored_matrices(panel, [t for t, _ in asked], [pos for _, pos in asked], fp)
            for (t, positions), m in zip(asked, got, strict=True):
                want = fresh_matrix(panel, t, positions, fp)
                assert m.t == t and m.positions.tobytes() == positions.astype(np.intp).tobytes()
                assert m.raw.tobytes() == want.raw.tobytes() and m.z.tobytes() == want.z.tobytes()
                assert first.setdefault(matrix_key(t, positions, fp), m) is m  # asked again, the same object
    assert panel.factor_matrices.keys() == first.keys()
    arrays = []
    for key, m in panel.factor_matrices.items():
        assert m is first[key]
        for a in (m.raw, m.z, m.positions):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0
        arrays.append((m.raw, m.z, m.positions))
    for i, own in enumerate(arrays):  # no two keys share an array
        assert not any(np.shares_memory(a, b) for other in arrays[i + 1 :] for a in own for b in other)


def test_a_matrix_stored_under_other_windows_or_winsor_is_never_returned():
    panel = random_panel(3, 7, 70, 0.0)
    t, members = panel.calendar.days[60], panel.assets
    universe = EligibilitySet(t=t, members=tuple(members), assets=tuple(members))
    base = FactorParams(l_mom=5, skip=1, l_fund=400, winsor_p=0.0)
    others = [replace(base, l_mom=20), replace(base, skip=3), replace(base, l_fund=30),
              replace(base, winsor_p=0.3), replace(base, winsor_p=0.3, winsorize_quality_components=True)]
    stored = build_factor_matrix(panel, universe, t, base)
    for fp in others:
        m = build_factor_matrix(panel, universe, t, fp)
        want = fresh_matrix(panel, t, panel.positions(members), fp)
        assert m is not stored and (m.raw.tobytes(), m.z.tobytes()) == (want.raw.tobytes(), want.z.tobytes())
        assert (m.raw.tobytes(), m.z.tobytes()) != (stored.raw.tobytes(), stored.z.tobytes()), fp
    assert len(panel.factor_matrices) == 1 + len(others)
    assert build_factor_matrix(panel, universe, t, base) is stored
    # a snapshot built under other windows than the params' is refused, though its date is stored
    for fp in (base, *others[:3]):
        for wrong in ((fp.l_mom + 1, fp.skip, fp.l_fund), (fp.l_mom, fp.skip + 1, fp.l_fund),
                      (fp.l_mom, fp.skip, fp.l_fund + 1)):
            snap = AsOf(panel, t, None, *wrong)
            with pytest.raises(ConfigError, match=f"the snapshot given for {t} is not AsOf"):
                stored_matrices(panel, [t], [panel.positions(members)], fp, [snap])


def test_a_hit_builds_no_snapshot(monkeypatch):
    panel = random_panel(4, 5, 40, 0.1)
    t = panel.calendar.days[30]
    universe = EligibilitySet(t=t, members=tuple(panel.assets[1:]), assets=tuple(panel.assets))
    stored = build_factor_matrix(panel, universe, t, FactorParams(l_mom=5))
    built = []
    monkeypatch.setattr(factors, "AsOf", lambda *args, **kw: built.append(args) or AsOf(*args, **kw))
    assert build_factor_matrix(panel, universe, t, FactorParams(l_mom=5)) is stored and not built
    build_factor_matrix(panel, universe, t, FactorParams(l_mom=6))
    assert len(built) == 1


def test_threads_asking_at_once_share_one_stored_matrix():
    panel = random_panel(9, 40, 300, 0.1)
    dates = panel.calendar.days[30::25]
    members = tuple(panel.assets[::3])
    fp = FactorParams(l_mom=20, skip=2, l_fund=60, winsor_p=0.1)
    got, start = [], threading.Barrier(8)

    def ask():
        start.wait(timeout=60)
        for t in dates:
            universe = EligibilitySet(t=t, members=members, assets=tuple(panel.assets))
            got.append((matrix_key(t, panel.positions(members), fp), build_factor_matrix(panel, universe, t, fp)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 8 * len(dates) and len(panel.factor_matrices) == len(dates)
    assert all(m is panel.factor_matrices[key] for key, m in got)


@SETTINGS
@given(panel=panels, p=params, day=st.floats(0.0, 1.0),
       lam=st.floats(0.0, 3.0), m_min=st.floats(0.05, 1.0), m_max=st.floats(1.0, 4.0),
       c_max=st.floats(0.05, 1.0), kappa=st.floats(0.05, 2.0), gamma=st.floats(0.0, 1.0))
def test_dmft_multipliers_bounded_and_caps_hold(panel, p, day, lam, m_min, m_max, c_max, kappa, gamma):
    t = panel.calendar.days[int(day * (panel.n_days - 1))]
    caps = CapParams(c_max=c_max, kappa=kappa, gamma=gamma)
    config = config_for(p, tilt=TiltParams(lam=lam, m_min=m_min, m_max=m_max), caps=caps)
    try:
        wv = targets_at(panel, t, config, "dmft")
    except InfeasibleCapsError:
        return
    if not wv.w.any():
        return
    assert np.all((wv.multipliers >= m_min) & (wv.multipliers <= m_max))
    capped = np.isfinite(wv.caps)
    assert np.all(wv.w[capped] <= wv.caps[capped] + 1e-12)
    assert not wv.w[~capped].any()
    assert abs(wv.w.sum() - 1.0) <= 1e-9
