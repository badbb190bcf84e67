"""Property tests for the array-native rebalance walk and what it reads.

Every config's targets from the walk are compared with the pipeline it
replaced, kept here as the oracle: screens into an EligibilitySet, then
weights built from mappings keyed by asset id and projected onto their caps
by the iterative cap-and-redistribute loop. They agree bit for bit, except
that weights on a date where a cap binds agree within 1e-12 (the closed-form
projection rounds differently from the loop). The walk's one day loop over
every book is compared bit for bit with the per-config evolution it
replaced, kept here too. Also compared with plain oracles: AsOf.history
with a direct count of prices before t, and winsorize with two quantile
calls. Last, the accounting identities of every strategy's backtest. All
on random panels with gaps.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from factortilt import backtest
from factortilt.backtest import (
    STRATEGIES,
    WEIGHT_MODES,
    BacktestResult,
    removal_config,
    run_baselines,
    run_factor_removals,
    snapshot,
)
from factortilt.eligibility import EligibilitySet, compute_eligibility
from factortilt.errors import ConfigError, InfeasibleCapsError
from factortilt.factors import build_factor_matrix, winsorize
from factortilt.market_data import AsOf, RebalanceSchedule
from factortilt.synthetic import ScenarioSpec, generate
from factortilt.weighting import (
    WEIGHT_SUM_TOL,
    CapParams,
    TiltParams,
    WeightVector,
    bounded_multiplier,
    composite_score,
)

from test_asof_properties import SETTINGS, config_for, panels, random_panel

# --- the Mapping-based pipeline the walk replaced ------------------------------


def oracle_positions(assets, names) -> np.ndarray:
    index = {a: i for i, a in enumerate(assets)}
    return np.fromiter(map(index.__getitem__, names), dtype=np.intp, count=len(names))


def oracle_equal_weight(universe: EligibilitySet) -> WeightVector:
    assets = universe.assets or universe.members
    w = np.zeros(len(assets))
    if universe.members:
        w[oracle_positions(assets, universe.members)] = 1.0 / len(universe.members)
    return WeightVector(t=universe.t, assets=tuple(assets), w=w)


def oracle_tilt(baseline: WeightVector, multipliers: dict) -> WeightVector:
    w = baseline.w
    support = w > 0
    if not support.any():
        return WeightVector(t=baseline.t, assets=baseline.assets, w=baseline.w.copy())
    m = np.ones(len(w))
    m[oracle_positions(baseline.assets, multipliers)] = list(multipliers.values())
    m_support = m[support]
    if np.all(m_support == m_support[0]):
        return WeightVector(t=baseline.t, assets=baseline.assets, w=baseline.w.copy())
    raw = w * m
    denom = float(raw.sum())
    if denom <= 0:
        raise ConfigError("tilted weights sum to a non-positive value")
    return WeightVector(t=baseline.t, assets=baseline.assets, w=raw / denom)


def oracle_caps(universe: EligibilitySet, adv: dict, params: CapParams) -> dict:
    advs = np.fromiter(map(adv.__getitem__, universe.members), dtype=float, count=len(universe.members))
    if not np.all(np.isfinite(advs)):
        raise ConfigError("missing ADV for a universe member")
    med = float(np.median(advs))
    ratio = advs / med if med > 0 else np.ones_like(advs)
    caps = np.minimum(params.c_max, params.kappa * ratio**params.gamma)
    caps = np.minimum(caps, 1.0)
    return dict(zip(universe.members, caps.tolist()))


def oracle_project(raw: WeightVector, caps: dict, params: CapParams) -> WeightVector:
    """Cap-and-redistribute: cap the breaching members, hand their excess
    proportionally to the members never capped, repeat."""
    idx = oracle_positions(raw.assets, caps)
    w = raw.w[idx]
    c = np.minimum(np.fromiter(caps.values(), dtype=float, count=len(caps)), 1.0)
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"projection input must sum to 1, got {total!r}")
    if float(c.sum()) < 1.0 - params.epsilon:
        raise InfeasibleCapsError(f"caps sum to {float(c.sum())!r} < 1")
    capped = np.zeros(len(w), dtype=bool)
    for _ in range(len(w) + 1):  # each pass but the last caps a member for good
        breach = ~capped & (w > c)
        if not breach.any():
            break
        excess = float((w[breach] - c[breach]).sum())
        w[breach] = c[breach]
        capped |= breach
        free = ~capped
        free_mass = float(w[free].sum())
        if free_mass <= 0:
            if excess <= params.epsilon:
                break
            raise InfeasibleCapsError("no free mass to absorb the excess weight")
        w[free] += excess * w[free] / free_mass
        if excess < params.epsilon:
            break
    else:
        raise AssertionError("cap-and-redistribute did not settle")
    out = np.zeros(len(raw.assets))
    out[idx] = w
    return WeightVector(t=raw.t, assets=raw.assets, w=out)


def oracle_build(universe, factor_matrix, tilt: TiltParams, caps: CapParams | None) -> tuple[WeightVector, bool]:
    """The weights, and whether a cap binds (a tilted weight exceeds it)."""
    baseline = oracle_equal_weight(universe)
    positions = oracle_positions(baseline.assets, factor_matrix.assets)
    mults = bounded_multiplier(composite_score(factor_matrix, tilt), tilt)
    weights = oracle_tilt(baseline, dict(zip(factor_matrix.assets, mults)))
    binds = False
    if caps is not None:
        adv = {a: universe.screen_values[a].adv for a in universe.members}
        cap_map = oracle_caps(universe, adv, caps)
        cap_row = np.array([cap_map[a] for a in factor_matrix.assets])
        binds = bool(np.any(weights.w[positions] > cap_row))
        weights = oracle_project(weights, cap_map, caps)
        weights.caps = np.full(len(baseline.assets), np.nan)
        weights.caps[positions] = cap_row
    weights.multipliers = np.ones(len(baseline.assets))
    weights.multipliers[positions] = mults
    return weights, binds


def oracle_pool(snap: AsOf, strategy: str) -> np.ndarray:
    if strategy == "fixed_universe":
        quality_ok = ~(np.isnan(snap.roe) | np.isnan(snap.gross_margin) | np.isnan(snap.debt_to_assets))
        return ~np.isnan(snap.momentum) | ~np.isnan(snap.value) | quality_ok
    if strategy == "ew_all":
        return snap.listed
    return np.isfinite(snap.mktcap)


def oracle_targets(panel, snap: AsOf, configs) -> tuple[dict[str, WeightVector], set[str]]:
    """Each config's targets at snap.t, and the configs on which a cap binds."""
    assets = tuple(panel.assets)
    universes, matrices, out, bound = {}, {}, {}, set()
    for name, config in configs.items():
        s = config.strategy
        pool = "screened" if s in ("dmft", "ew_eligible") else s
        if pool not in universes:
            if pool == "screened":
                universes[pool] = compute_eligibility(panel, snap.t, config.eligibility)
            else:
                members = tuple(compress(assets, oracle_pool(snap, s).tolist()))
                universes[pool] = EligibilitySet(t=snap.t, members=members, assets=assets)
        universe = universes[pool]
        if not universe.members:
            out[name] = WeightVector(t=snap.t, assets=assets, w=np.zeros(len(assets)))
        elif s in ("ew_eligible", "ew_all"):
            out[name] = oracle_equal_weight(universe)
        elif s == "cap_weighted":
            positions = panel.positions(universe.members)
            w = np.zeros(len(assets))
            w[positions] = snap.mktcap[positions]
            out[name] = WeightVector(t=snap.t, assets=assets, w=w / w.sum())
        else:
            if pool not in matrices:
                matrices[pool] = build_factor_matrix(panel, universe, snap.t, config.factors)
            caps = config.caps if s == "dmft" else None
            out[name], binds = oracle_build(universe, matrices[pool], config.tilt, caps)
            if binds:
                bound.add(name)
    return out, bound


def oracle_evolve(dates: list[str], returns: np.ndarray, targets: list[WeightVector], config) -> BacktestResult:
    """One config's daily evolution over `dates`, whose asset returns are
    the rows of `returns`, trading to each target on its date."""
    by_date = {wv.t: wv.w for wv in targets}
    daily = np.zeros(len(dates))
    reb_dates: list[str] = []
    turnover: list[float] = []
    costs: list[float] = []

    w = np.zeros(returns.shape[1])
    drift = config.weight_mode == "drift"
    for k, (d, r) in enumerate(zip(dates, returns)):
        gross = float(w @ r)
        if drift and w.sum() > 0:
            grown = w * (1.0 + r)
            total = float(grown.sum())
            w_eod = grown / total if total > 0 else w
        else:
            w_eod = w
        if d in by_date:
            tgt = by_date[d]
            to = float(np.abs(tgt - w_eod).sum())
            cost = config.cost_rate * to
            reb_dates.append(d)
            turnover.append(to)
            costs.append(cost)
            daily[k] = gross - cost
            w = tgt.copy()
        else:
            daily[k] = gross
            w = w_eod

    return BacktestResult(
        strategy=config.strategy,
        dates=dates,
        daily_returns=daily,
        equity_curve=np.cumprod(1.0 + daily),
        rebalance_dates=reb_dates,
        turnover=np.array(turnover),
        costs=np.array(costs),
        weights=targets,
    )


def oracle_asset_returns(panel) -> np.ndarray:
    returns = np.zeros_like(panel.price)
    with np.errstate(invalid="ignore", divide="ignore"):
        returns[1:] = panel.price[1:] / panel.price[:-1] - 1.0
    return np.nan_to_num(returns)


# --- properties ----------------------------------------------------------------

days = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)
# wider panels and shorter windows than the snapshot tests use, so that most
# dates have several members to tilt and cap (early dates still have none),
# and sums over 8 or more weights, whose rounding depends on their order
wide_panels = st.builds(random_panel, seed=st.integers(0, 2**32 - 1), n_assets=st.integers(2, 40),
                        n_days=st.integers(20, 80), gap=st.sampled_from([0.0, 0.1, 0.3]))
short_windows = st.fixed_dictionaries({
    "h_min": st.integers(0, 15),
    "l_adv": st.integers(1, 10),
    "l_mom": st.integers(1, 10),
    "skip": st.integers(1, 3),
    "l_fund": st.integers(30, 120),
    "winsor_p": st.sampled_from([0.0, 0.1, 0.3]),
    "components": st.booleans(),
})
FIXED_WINDOWS = {"h_min": 5, "l_adv": 5, "l_mom": 5, "skip": 1, "l_fund": 60, "winsor_p": 0.1, "components": False}
# (c_max, kappa, gamma) from loose to tight: the first is always feasible, the
# middle ones often bind, the last is often infeasible
cap_settings = st.sampled_from([None, (1.0, 1.0, 0.5), (0.4, 0.3, 1.0), (0.3, 0.15, 0.5), (0.05, 0.05, 0.5)])


def schedule_of(panel, fractions) -> RebalanceSchedule:
    picks = {panel.calendar.days[int(f * (panel.n_days - 1))] for f in fractions}
    return RebalanceSchedule(dates=tuple(sorted(picks)))


def same_bits(got, want, what):
    assert (got is None) == (want is None), what
    if want is not None:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), what


@settings(SETTINGS, max_examples=80)
@given(panel=wide_panels, p=short_windows, fractions=days, lam=st.sampled_from([0.0, 0.3, 2.5]), caps=cap_settings,
       weight_mode=st.sampled_from(WEIGHT_MODES), removals=st.booleans())
def test_walk_equals_mapping_oracle(panel, p, fractions, lam, caps, weight_mode, removals):
    cap_params = None if caps is None else CapParams(c_max=caps[0], kappa=caps[1], gamma=caps[2])
    config = config_for(p, tilt=TiltParams(lam=lam, m_min=0.5, m_max=1.5), caps=cap_params,
                        weight_mode=weight_mode)
    schedule = schedule_of(panel, fractions)
    if removals:
        run = run_factor_removals
        configs = {"full": config, **{f"drop_{f}": removal_config(config, f) for f in config.tilt.alpha}}
    else:
        run = run_baselines
        configs = {s: replace(config, strategy=s, caps=cap_params if s == "dmft" else None) for s in STRATEGIES}
    try:
        results = run(panel, schedule, config)
    except InfeasibleCapsError:
        with pytest.raises(InfeasibleCapsError):
            for t in schedule.dates:
                oracle_targets(panel, snapshot(panel, t, config), configs)
        return
    for k, t in enumerate(schedule.dates):
        targets, bound = oracle_targets(panel, snapshot(panel, t, config), configs)
        for name, want in targets.items():
            got = results[name].weights[k]
            assert (got.t, got.assets) == (want.t, want.assets)
            for attr in ("multipliers", "caps"):
                same_bits(getattr(got, attr), getattr(want, attr), f"{name} {t} {attr}")
            if name in bound:
                np.testing.assert_allclose(got.w, want.w, rtol=0, atol=1e-12, err_msg=f"{name} {t} w")
            else:
                same_bits(got.w, want.w, f"{name} {t} w")


@settings(SETTINGS, max_examples=60)
@given(panel=wide_panels, p=short_windows, fractions=days, weight_mode=st.sampled_from(WEIGHT_MODES),
       cost_rate=st.floats(0.0, 0.05), removals=st.booleans(), end_at=st.one_of(st.none(), st.floats(0.0, 1.0)))
@example(panel=random_panel(5, 6, 30, 0.1), p={**FIXED_WINDOWS, "h_min": 15}, fractions=[0.0, 0.5, 0.9],
         weight_mode="drift", cost_rate=0.01, removals=False, end_at=0.6)  # empty pools, end before a date
def test_day_loop_equals_per_config_evolution(panel, p, fractions, weight_mode, cost_rate, removals, end_at):
    config = config_for(p, cost_rate=cost_rate, weight_mode=weight_mode, caps=CapParams(c_max=1.0, kappa=1.0))
    schedule = schedule_of(panel, fractions)
    cal = panel.calendar
    i_start = cal.position(schedule.dates[0])
    i_end = len(cal) - 1 if end_at is None else i_start + int(end_at * (len(cal) - 1 - i_start))
    end = None if end_at is None else cal.days[i_end]
    if removals:
        results = run_factor_removals(panel, schedule, config, end)
        configs = {"full": config, **{f"drop_{f}": removal_config(config, f) for f in config.tilt.alpha}}
    else:
        results = run_baselines(panel, schedule, config, end)
        configs = {s: replace(config, strategy=s, caps=config.caps if s == "dmft" else None) for s in STRATEGIES}
    assert list(results) == list(configs)
    dates = list(cal.days[i_start : i_end + 1])
    span = oracle_asset_returns(panel)[i_start : i_end + 1]
    for name, cfg in configs.items():
        got = results[name]
        want = oracle_evolve(dates, span, got.weights, cfg)
        assert (got.strategy, got.dates, got.rebalance_dates) == (want.strategy, want.dates, want.rebalance_dates)
        for attr in ("daily_returns", "equity_curve", "turnover", "costs"):
            same_bits(getattr(got, attr), getattr(want, attr), f"{name} {attr}")


def test_walk_rejects_mixed_weight_modes():
    panel = random_panel(1, 5, 30, 0.0)
    config = config_for(FIXED_WINDOWS)
    configs = {"a": config, "b": replace(config, weight_mode="drift")}
    with pytest.raises(ConfigError, match="weight mode"):
        backtest._run(panel, schedule_of(panel, [0.5]), configs, None)


@SETTINGS
@given(panel=panels)
def test_history_counts_prices_before_t(panel):
    assert "history_counts" not in vars(panel)  # built on first use, not with the panel
    for it, t in enumerate(panel.calendar.days):
        want = np.isfinite(panel.price[:it]).sum(axis=0)
        same_bits(AsOf(panel, t).history, want, t)
    assert not panel.history_counts.flags.writeable
    assert panel.history_counts is panel.history_counts


def test_generated_panel_has_no_history_counts_until_a_snapshot():
    panel = generate(ScenarioSpec(seed=3, n_assets=4, n_days=40))
    assert "history_counts" not in vars(panel)
    AsOf(panel, panel.calendar.days[5])
    assert panel.history_counts.shape == (41, 4) and panel.history_counts.dtype == np.int32


def winsorize_oracle(values, p):
    arr = np.asarray(values, dtype=float).copy()
    finite = np.isfinite(arr)
    if p == 0 or not finite.any():
        return arr
    lo = np.quantile(arr[finite], p)
    hi = np.quantile(arr[finite], 1.0 - p)
    arr[finite] = np.clip(arr[finite], lo, hi)
    return arr


values = st.lists(st.one_of(st.floats(-1e9, 1e9), st.sampled_from([math.nan, math.inf, 0.0, 1.5, -2.0])),
                  max_size=50)


@SETTINGS
@given(values=values, p=st.one_of(st.sampled_from([0.0, 0.01, 0.25, 0.4999]), st.floats(0.0, 0.4999)))
@example(values=[1.0, 5.0, -3.0], p=0.0)
@example(values=[math.nan, math.nan], p=0.1)
@example(values=[], p=0.1)
@example(values=[math.nan, 7.0, math.nan], p=0.3)
@example(values=[2.0, 2.0, 2.0, 1.0, 2.0, 9.0, 9.0], p=0.2)
def test_winsorize_equals_two_quantile_calls(values, p):
    same_bits(winsorize(values, p), winsorize_oracle(values, p), (values, p))


@SETTINGS
@given(panel=wide_panels, p=short_windows, fractions=days, weight_mode=st.sampled_from(WEIGHT_MODES),
       cost_rate=st.floats(0.0, 0.05))
def test_accounting_identities(panel, p, fractions, weight_mode, cost_rate):
    # kappa = 1 and c_max = 1 make every cap set feasible: the members at or
    # above the median ADV get cap 1
    config = config_for(p, cost_rate=cost_rate, weight_mode=weight_mode, caps=CapParams(c_max=1.0, kappa=1.0))
    results = run_baselines(panel, schedule_of(panel, fractions), config)
    assert set(results) == set(STRATEGIES)
    for name, res in results.items():
        np.testing.assert_array_equal(res.equity_curve, np.cumprod(1.0 + res.daily_returns), err_msg=name)
        np.testing.assert_array_equal(res.costs, cost_rate * res.turnover, err_msg=name)
        # at most 2 (a full replacement), plus the tolerance of the two sums it spans
        assert np.all((res.turnover >= 0.0) & (res.turnover <= 2.0 + 2 * WEIGHT_SUM_TOL)), name
        for wv in res.weights:
            assert not wv.w.any() or abs(float(wv.w.sum()) - 1.0) <= WEIGHT_SUM_TOL, (name, wv.t)
