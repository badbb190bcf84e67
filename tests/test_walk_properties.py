"""Property tests for the array-native rebalance walk and what it reads.

Every (strategy, config) book's targets from the walk are compared with
the pipeline it replaced, kept here as the oracle: screens into an
EligibilitySet, then weights built from mappings keyed by asset id and
projected onto their caps by the iterative cap-and-redistribute loop. They agree bit for bit, except
that weights on a date where a cap binds agree within 1e-12 (the closed-form
projection rounds differently from the loop). `evolve`, which works in
fixed blocks of calendar rows, is compared with the per-book day loop it
replaced, kept here too over asset returns taken cell by cell from each
asset's last valid price, both through the walks and on arbitrary target
rows: dates, weights, the rows a book holds cash and constant_mix
turnover and costs agree bit for bit; daily returns, equity, and drift
turnover and costs agree within 1e-12, since a segment's row sums and
cumulative growth round differently from one dot product and one
renormalisation per day (the artifact break that segment-wise evolution
made on purpose). `evolve`'s own
rounding is pinned bit for bit instead: a run truncated at any end is a
prefix of the full run, a book evolves alike alone or beside others in
any position, and a run is alike in row blocks of any size. `evolve` on
the targets a walk built returns that walk's results. Also compared with
a plain oracle: AsOf.history with a direct count of prices before t. The
walks give the same bits on a fresh panel as on one whose stores of as-of
rows and factor matrices other screens, factor matrices and walks filled
first. Last, the accounting
identities of every strategy's backtest. All on random panels with gaps.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from factortilt import backtest
from factortilt.backtest import (
    STRATEGIES,
    WEIGHT_MODES,
    BacktestConfig,
    BacktestResult,
    _run,
    evolve,
    pool_positions,
    removal_tilt,
    run_baselines,
    run_factor_removals,
    snapshot,
)
from factortilt.eligibility import EligibilitySet, compute_eligibility
from factortilt.errors import ConfigError, InfeasibleCapsError
from factortilt.factors import build_factor_matrix
from factortilt.market_data import AsOf, RebalanceSchedule
from factortilt.synthetic import ScenarioSpec, generate
from factortilt.weighting import (
    WEIGHT_SUM_TOL,
    CapParams,
    Targets,
    TiltParams,
    WeightVector,
    bounded_multiplier,
    composite_score,
)

from test_asof_properties import SETTINGS, config_for, fresh_copy, matrix_key, panels, random_panel, store_key

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


def oracle_project(raw: WeightVector, caps: dict) -> WeightVector:
    """Cap-and-redistribute: cap the breaching members, hand their excess
    proportionally to the members never capped, repeat."""
    idx = oracle_positions(raw.assets, caps)
    w = raw.w[idx]
    c = np.minimum(np.fromiter(caps.values(), dtype=float, count=len(caps)), 1.0)
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"projection input must sum to 1, got {total!r}")
    if float(c.sum()) < 1.0 - WEIGHT_SUM_TOL:
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
            if excess <= 1e-12:
                break
            raise InfeasibleCapsError("no free mass to absorb the excess weight")
        w[free] += excess * w[free] / free_mass
        if excess < 1e-12:
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
        weights = oracle_project(weights, cap_map)
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


def oracle_targets(panel, snap: AsOf, books) -> tuple[dict[str, WeightVector], set[str]]:
    """Each (strategy, config) book's targets at snap.t, and the books on
    which a cap binds."""
    assets = tuple(panel.assets)
    universes, matrices, out, bound = {}, {}, {}, set()
    for name, (s, config) in books.items():
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
            if s in ("dmft", "fixed_universe"):  # a tilted book's block rows: multipliers 1, caps NaN
                out[name].multipliers = np.ones(len(assets))
                if s == "dmft" and config.caps is not None:
                    out[name].caps = np.full(len(assets), np.nan)
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


def oracle_evolve(dates: list[str], returns: np.ndarray, targets: Targets, strategy: str,
                  config) -> BacktestResult:
    """One (strategy, config) book's daily evolution over `dates`, whose
    asset returns are the rows of `returns`, trading to each target on its
    date."""
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

    assert list(targets.dates) == reb_dates  # the targets are the trades made, so they date the result
    return BacktestResult(
        strategy=strategy,
        dates=dates,
        daily_returns=daily,
        equity_curve=np.cumprod(1.0 + daily),
        turnover=np.array(turnover),
        costs=np.array(costs),
        weights=targets,
    )


def oracle_asset_returns(panel) -> np.ndarray:
    """Each asset's daily return from its last valid price, zero on a day
    without a price or without an earlier one, one cell at a time."""
    returns = np.zeros_like(panel.price)
    for col in range(panel.n_assets):
        last = np.nan
        for k, p in enumerate(panel.price[:, col]):
            if not np.isnan(p):
                if not np.isnan(last):
                    returns[k, col] = p / last - 1.0
                last = p
    return returns


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


def oracle_books(config, removals: bool) -> dict:
    """The (strategy, config) books of run_factor_removals or run_baselines."""
    if removals:
        return {"full": ("dmft", config),
                **{f"drop_{f}": ("dmft", replace(config, tilt=removal_tilt(config.tilt, f))) for f in config.tilt.alpha}}
    return {s: (s, config) for s in STRATEGIES}


def schedule_of(panel, fractions) -> RebalanceSchedule:
    picks = {panel.calendar.days[int(f * (panel.n_days - 1))] for f in fractions}
    return RebalanceSchedule(dates=tuple(sorted(picks)))


def same_bits(got, want, what):
    assert (got is None) == (want is None), what
    if want is not None:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), what


def end_of(panel, first: str, end_at) -> str | None:
    """None, or the day at fraction end_at of the way from `first` to the panel's last day."""
    if end_at is None:
        return None
    i_start = panel.calendar.position(first)
    return panel.calendar.days[i_start + int(end_at * (panel.n_days - 1 - i_start))]


def same_targets(got: Targets, want: Targets, what):
    assert (got.dates, got.assets) == (want.dates, want.assets), what
    for attr in ("w", "multipliers", "caps"):
        same_bits(getattr(got, attr), getattr(want, attr), f"{what} {attr}")


def assert_same_result(got: BacktestResult, want: BacktestResult, what):
    assert (got.strategy, got.dates, got.rebalance_dates) == (want.strategy, want.dates, want.rebalance_dates), what
    same_targets(got.weights, want.weights, what)
    for attr in ("daily_returns", "equity_curve", "turnover", "costs"):
        same_bits(getattr(got, attr), getattr(want, attr), f"{what} {attr}")


# how far evolve's segment arithmetic may round from the per-day oracle
ORACLE_TOL = 1e-12


def cash_rows(dates: list[str], targets: Targets) -> np.ndarray:
    """The days a book earns on no holdings: before its first trade and
    after a trade to an all-zero target, through the next trade."""
    by_date = {wv.t: wv.w for wv in targets}
    cash, holding = np.ones(len(dates), dtype=bool), False
    for k, d in enumerate(dates):
        cash[k] = not holding
        if d in by_date:
            holding = bool(by_date[d].any())
    return cash


def assert_close_to_oracle(got: BacktestResult, want: BacktestResult, drift: bool, what):
    """got agrees with the per-day oracle: exactly in its dates, weights,
    cash rows and constant_mix turnover and costs, within ORACLE_TOL
    elsewhere."""
    assert (got.strategy, got.dates, got.rebalance_dates) == (want.strategy, want.dates, want.rebalance_dates), what
    same_targets(got.weights, want.weights, what)
    close = ["daily_returns", "equity_curve"] + (["turnover", "costs"] if drift else [])
    for attr in ("daily_returns", "equity_curve", "turnover", "costs"):
        g, w = getattr(got, attr), getattr(want, attr)
        if attr in close:
            np.testing.assert_allclose(g, w, rtol=ORACLE_TOL, atol=ORACLE_TOL, err_msg=f"{what} {attr}")
        else:
            same_bits(g, w, f"{what} {attr}")
    cash = cash_rows(want.dates, want.weights)
    same_bits(got.daily_returns[cash], want.daily_returns[cash], f"{what} cash rows")


@st.composite
def target_books(draw, panel):
    """1-3 named books on 1-12 shared dates of the panel, in about half the
    draws the first on calendar day 0 (whose asset returns are 0), each row
    over the panel's assets all zero or arbitrary non-negative values scaled
    to sum to 1. With many dates several holding periods share a block of
    rows, a period crosses a block boundary, and a cash target sits between
    held ones."""
    picks = draw(st.lists(st.integers(0, panel.n_days - 1), min_size=1, max_size=12, unique=True))
    if draw(st.booleans()):
        picks = [0, *(i for i in picks if i)][:12]
    dates = [panel.calendar.days[i] for i in sorted(picks)]
    cell = st.one_of(st.just(0.0), st.floats(0.0, 1e6))
    books = {}
    for b in range(draw(st.integers(1, 3))):
        rows = []
        for t in dates:
            w = np.zeros(panel.n_assets)
            if draw(st.booleans()):
                w = np.array(draw(st.lists(cell, min_size=panel.n_assets, max_size=panel.n_assets)))
                w = w / w.sum() if w.sum() > 0 else w
            rows.append(w)
        books[f"book{b}"] = (draw(st.sampled_from(STRATEGIES)), Targets(dates, panel.assets, rows))
    return books


@settings(SETTINGS, max_examples=80)
@given(panel=wide_panels, p=short_windows, fractions=days, lam=st.sampled_from([0.0, 0.3, 2.5]), caps=cap_settings,
       weight_mode=st.sampled_from(WEIGHT_MODES), removals=st.booleans())
def test_walk_equals_mapping_oracle(panel, p, fractions, lam, caps, weight_mode, removals):
    cap_params = None if caps is None else CapParams(c_max=caps[0], kappa=caps[1], gamma=caps[2])
    config = config_for(p, tilt=TiltParams(lam=lam, m_min=0.5, m_max=1.5), caps=cap_params,
                        weight_mode=weight_mode)
    schedule = schedule_of(panel, fractions)
    run = run_factor_removals if removals else run_baselines
    books = oracle_books(config, removals)
    try:
        results = run(panel, schedule, config)
    except InfeasibleCapsError:
        with pytest.raises(InfeasibleCapsError):
            for t in schedule.dates:
                oracle_targets(panel, snapshot(panel, t, config), books)
        return
    rows = {name: list(res.weights) for name, res in results.items()}
    for k, t in enumerate(schedule.dates):
        targets, bound = oracle_targets(panel, snapshot(panel, t, config), books)
        for name, want in targets.items():
            got = rows[name][k]
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
    results = (run_factor_removals if removals else run_baselines)(panel, schedule, config, end)
    books = oracle_books(config, removals)
    assert list(results) == list(books)
    dates = list(cal.days[i_start : i_end + 1])
    span = oracle_asset_returns(panel)[i_start : i_end + 1]
    for name, (s, cfg) in books.items():
        got = results[name]
        assert_close_to_oracle(got, oracle_evolve(dates, span, got.weights, s, cfg), weight_mode == "drift", name)


@settings(SETTINGS, max_examples=80)
@given(data=st.data(), panel=wide_panels, weight_mode=st.sampled_from(WEIGHT_MODES), cost_rate=st.floats(0.0, 1.0),
       end_at=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_evolve_equals_per_book_evolution_on_arbitrary_targets(data, panel, weight_mode, cost_rate, end_at):
    books = data.draw(target_books(panel))
    first = next(iter(books.values()))[1].dates[0]
    config = BacktestConfig(cost_rate=cost_rate, weight_mode=weight_mode)
    end = end_of(panel, first, end_at)
    results = evolve(panel, books, config, end)
    assert list(results) == list(books)
    cal = panel.calendar
    i_start, i_end = cal.position(first), cal.position(end or cal.days[-1])
    dates = list(cal.days[i_start : i_end + 1])
    span = oracle_asset_returns(panel)[i_start : i_end + 1]
    for name, (s, targets) in books.items():
        kept = targets.head(sum(t <= dates[-1] for t in targets.dates))
        assert_close_to_oracle(results[name], oracle_evolve(dates, span, kept, s, config), weight_mode == "drift", name)


def with_cash_book(books: dict) -> dict:
    """books plus one whose every target is all zero, dated as theirs."""
    targets = next(iter(books.values()))[1]
    return {**books, "cash": ("ew_all", Targets(targets.dates, targets.assets, np.zeros_like(targets.w)))}


@settings(SETTINGS, max_examples=40)
@given(data=st.data(), panel=wide_panels, weight_mode=st.sampled_from(WEIGHT_MODES), cost_rate=st.floats(0.0, 1.0),
       cash_book=st.booleans())
def test_evolve_truncated_at_any_end_is_a_prefix_of_the_full_run(data, panel, weight_mode, cost_rate, cash_book):
    books = data.draw(target_books(panel))
    books = with_cash_book(books) if cash_book else books
    config = BacktestConfig(cost_rate=cost_rate, weight_mode=weight_mode)
    full = evolve(panel, books, config)
    first = next(iter(books.values()))[1].dates[0]
    for end in panel.calendar.days[panel.calendar.position(first):]:
        for name, cut in evolve(panel, books, config, end).items():
            whole, m, n = full[name], len(cut.dates), len(cut.rebalance_dates)
            assert (cut.dates, cut.rebalance_dates) == (whole.dates[:m], whole.rebalance_dates[:n]), (name, end)
            assert cut.dates[-1] == end
            same_targets(cut.weights, whole.weights.head(n), (name, end))
            for attr, k in (("daily_returns", m), ("equity_curve", m), ("turnover", n), ("costs", n)):
                same_bits(getattr(cut, attr), getattr(whole, attr)[:k], f"{name} {attr} to {end}")


@pytest.mark.parametrize("n_dates", [1, 15, 16, 17, 33])  # about the walk's blocks of 16 dates
@settings(SETTINGS, max_examples=12)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), n_assets=st.integers(2, 12), gap=st.sampled_from([0.0, 0.1]),
       p=short_windows, weight_mode=st.sampled_from(WEIGHT_MODES), removals=st.booleans())
def test_walk_truncated_at_any_end_is_a_prefix_of_the_full_run(n_dates, data, seed, n_assets, gap, p, weight_mode,
                                                               removals):
    # a truncated walk cuts its last block short, so a date's targets are
    # built beside other dates than in the full walk, yet get the same bits
    panel = random_panel(seed, n_assets, n_dates + data.draw(st.integers(0, 30)), gap)
    days = panel.calendar.days
    schedule = RebalanceSchedule(dates=tuple(sorted(data.draw(st.lists(st.sampled_from(days), min_size=n_dates,
                                                                       max_size=n_dates, unique=True)))))
    config = config_for(p, cost_rate=0.001, weight_mode=weight_mode, caps=CapParams(c_max=1.0, kappa=1.0))
    run = run_factor_removals if removals else run_baselines
    full = run(panel, schedule, config)
    first = days.index(schedule.dates[0])
    ends = {schedule.dates[k] for k in (0, 14, 15, 16, n_dates - 2) if 0 <= k < n_dates}
    ends |= set(data.draw(st.lists(st.sampled_from(days[first:]), max_size=2)))
    for end in sorted(ends):
        for name, cut in run(panel, schedule, config, end).items():
            whole, m, n = full[name], len(cut.dates), len(cut.rebalance_dates)
            assert (cut.dates, cut.rebalance_dates) == (whole.dates[:m], whole.rebalance_dates[:n]), (name, end)
            assert cut.dates[-1] == end
            for got, want in zip(cut.weights, whole.weights.head(n), strict=True):
                for attr in ("w", "multipliers", "caps"):
                    same_bits(getattr(got, attr), getattr(want, attr), f"{name} {got.t} {attr} to {end}")
            for attr, k in (("daily_returns", m), ("equity_curve", m), ("turnover", n), ("costs", n)):
                same_bits(getattr(cut, attr), getattr(whole, attr)[:k], f"{name} {attr} to {end}")


def walk_or_error(panel, schedule, config, books):
    try:
        return _run(panel, schedule, config, books, None)
    except InfeasibleCapsError as exc:
        return str(exc)


@settings(SETTINGS, max_examples=40)
@given(data=st.data(), p=short_windows, weight_mode=st.sampled_from(WEIGHT_MODES),
       panel=st.builds(random_panel, seed=st.integers(0, 2**32 - 1), n_assets=st.integers(8, 40),
                       n_days=st.integers(40, 80), gap=st.sampled_from([0.1, 0.3])),
       caps=st.sampled_from([None, (1.0, 1.0, 0.5), (0.4, 0.3, 1.0), (0.3, 0.15, 0.5), (0.05, 0.05, 0.5)]))
def test_a_removal_book_walks_alike_alone_and_in_any_block(data, panel, p, caps, weight_mode):
    # the removal books share one pool, so the walk weighs them in one call
    # per block, over gappy panels whose pools differ in size from date to
    # date; a book's targets and results are those of a walk of that book
    # alone, and from any later first date (other blocks, other dates beside
    # it) its targets keep their bits
    cap_params = None if caps is None else CapParams(c_max=caps[0], kappa=caps[1], gamma=caps[2])
    config = config_for(p, cost_rate=0.001, weight_mode=weight_mode, caps=cap_params)
    days = panel.calendar.days
    n_dates = data.draw(st.sampled_from([17, 33, 40, 2, 9]))  # up to three blocks
    schedule = RebalanceSchedule(dates=tuple(sorted(data.draw(st.permutations(days))[:n_dates])))
    later = RebalanceSchedule(dates=schedule.dates[data.draw(st.integers(1, len(schedule.dates) - 1)):])
    books = {"full": ("dmft", config.tilt),
             **{f"drop_{f}": ("dmft", removal_tilt(config.tilt, f)) for f in config.tilt.alpha}}
    together = walk_or_error(panel, schedule, config, books)
    assert isinstance(together, str) or list(together) == list(run_factor_removals(panel, schedule, config))
    for name, book in books.items():
        alone = walk_or_error(panel, schedule, config, {name: book})
        if isinstance(together, str):
            assert alone == together, name  # the first infeasible date's error, whichever books walk
            continue
        alone, whole = alone[name], together[name]
        assert (alone.dates, alone.rebalance_dates) == (whole.dates, whole.rebalance_dates), name
        for attr in ("daily_returns", "equity_curve", "turnover", "costs"):
            same_bits(getattr(alone, attr), getattr(whole, attr), f"{name} {attr}")
        shifted = walk_or_error(panel, later, config, {name: book})[name]
        for got, want, t in zip(alone.weights, whole.weights, whole.rebalance_dates, strict=True):
            assert (got.t, got.assets) == (want.t, want.assets)
            for attr in ("w", "multipliers", "caps"):
                same_bits(getattr(got, attr), getattr(want, attr), f"{name} {t} {attr}")
        for got, want in zip(shifted.weights, list(whole.weights)[len(whole.weights) - len(later.dates):], strict=True):
            for attr in ("w", "multipliers", "caps"):
                same_bits(getattr(got, attr), getattr(want, attr), f"{name} {got.t} {attr} from {later.dates[0]}")


@settings(SETTINGS, max_examples=40)
@given(data=st.data(), panel=wide_panels, weight_mode=st.sampled_from(WEIGHT_MODES), cost_rate=st.floats(0.0, 1.0),
       end_at=st.one_of(st.none(), st.floats(0.0, 1.0)), cash_book=st.booleans())
def test_a_book_evolves_alike_alone_and_beside_others_in_any_position(data, panel, weight_mode, cost_rate, end_at,
                                                                       cash_book):
    books = data.draw(target_books(panel))
    books = with_cash_book(books) if cash_book else books
    name0 = next(iter(books))
    books["twin"] = books[name0]  # equal targets give equal bits
    order = data.draw(st.permutations(list(books)))
    config = BacktestConfig(cost_rate=cost_rate, weight_mode=weight_mode)
    end = end_of(panel, books[name0][1].dates[0], end_at)
    together = evolve(panel, books, config, end)
    shuffled = evolve(panel, {name: books[name] for name in order}, config, end)
    assert list(shuffled) == order
    for name in books:
        alone = evolve(panel, {name: books[name]}, config, end)[name]
        assert_same_result(together[name], alone, f"{name} beside others")
        assert_same_result(shuffled[name], alone, f"{name} in position {order.index(name)}")
    assert_same_result(together["twin"], together[name0], "twin")


@settings(SETTINGS, max_examples=40)
@given(data=st.data(), panel=wide_panels, weight_mode=st.sampled_from(WEIGHT_MODES), cost_rate=st.floats(0.0, 1.0),
       end_at=st.one_of(st.none(), st.floats(0.0, 1.0)), cash_book=st.booleans(), rows=st.integers(1, 9),
       extra=st.floats(0.0, 0.99))
def test_a_run_is_alike_in_row_blocks_of_any_size(data, panel, weight_mode, cost_rate, end_at, cash_book, rows,
                                                  extra):
    # these panels fit in one block of the default size; blocks of a few
    # rows cut holding periods, so growth, values and drifted weights carry
    # across block boundaries, and a block may end on a trade or just after one
    books = data.draw(target_books(panel))
    books = with_cash_book(books) if cash_book else books
    config = BacktestConfig(cost_rate=cost_rate, weight_mode=weight_mode)
    end = end_of(panel, next(iter(books.values()))[1].dates[0], end_at)
    whole = evolve(panel, books, config, end)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backtest, "ROW_BLOCK_CELLS", int((rows + extra) * panel.n_assets))
        blocked = evolve(panel, books, config, end)
    for name in books:
        assert_same_result(blocked[name], whole[name], f"{name} in blocks of {rows} rows")


@settings(SETTINGS, max_examples=40)
@given(panel=wide_panels, p=short_windows, fractions=days, weight_mode=st.sampled_from(WEIGHT_MODES),
       cost_rate=st.floats(0.0, 0.05), removals=st.booleans(), end_at=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_evolve_on_a_walks_targets_returns_its_results(panel, p, fractions, weight_mode, cost_rate, removals, end_at):
    config = config_for(p, cost_rate=cost_rate, weight_mode=weight_mode, caps=CapParams(c_max=1.0, kappa=1.0))
    schedule = schedule_of(panel, fractions)
    end = end_of(panel, schedule.dates[0], end_at)
    results = (run_factor_removals if removals else run_baselines)(panel, schedule, config, end)
    again = evolve(panel, {name: (res.strategy, res.weights) for name, res in results.items()}, config, end)
    assert list(again) == list(results)
    for name, res in results.items():
        assert_same_result(again[name], res, name)


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


def store_keys(panel, dates, l_adv, l_fund) -> set:
    """The keys of the ADV rows and report blocks that snapshots at `dates` read."""
    return {store_key(panel, t, l_adv=l_adv) for t in dates} | {store_key(panel, t, l_fund=l_fund) for t in dates}


def matrix_keys(panel, dates, config) -> set:
    """The keys of the factor matrices a walk at `dates` reads: one per
    date and distinct member set of its tilted pools."""
    keys = set()
    for t in dates:
        snap = snapshot(panel, t, config)
        for s in ("dmft", "fixed_universe"):
            positions = pool_positions(snap, s, config)
            if positions.size:
                keys.add(matrix_key(t, positions, config.factors))
    return keys


@settings(SETTINGS, max_examples=20)
@given(panel=wide_panels, p=short_windows, fractions=days, weight_mode=st.sampled_from(WEIGHT_MODES),
       other_adv=st.integers(1, 10), other_fund=st.integers(30, 120), other_p=st.sampled_from([0.0, 0.05, 0.3]),
       other_h=st.integers(0, 15))
def test_walks_do_not_depend_on_what_filled_the_store(panel, p, fractions, weight_mode, other_adv, other_fund,
                                                      other_p, other_h):
    config = config_for(p, cost_rate=0.001, weight_mode=weight_mode, caps=CapParams(c_max=1.0, kappa=1.0))
    schedule = schedule_of(panel, fractions)
    n, l_adv, l_fund = len(schedule.dates), config.eligibility.l_adv, config.factors.l_fund
    filled = fresh_copy(panel)
    for t in schedule.dates:
        compute_eligibility(filled, t, replace(config.eligibility, l_adv=other_adv))
        # the screened members' matrices under another winsor_p, stored beside the walk's
        universe = compute_eligibility(filled, t, config.eligibility)
        if universe.members:
            build_factor_matrix(filled, universe, t, replace(config.factors, winsor_p=other_p))
    run_baselines(filled, schedule, replace(config, factors=replace(config.factors, l_fund=other_fund)))
    # other screens on the same windows: the members they share with the walk's pools read one stored matrix
    run_baselines(filled, schedule, replace(config, eligibility=replace(config.eligibility, h_min=other_h)))
    for walk in (run_baselines, run_factor_removals):
        want, got = walk(panel, schedule, config), walk(filled, schedule, config)
        assert list(got) == list(want)
        for name, res in want.items():
            assert (got[name].dates, got[name].rebalance_dates) == (res.dates, res.rebalance_dates), name
            for attr in ("daily_returns", "equity_curve", "turnover", "costs"):
                same_bits(getattr(got[name], attr), getattr(res, attr), f"{name} {attr}")
            for g, w in zip(got[name].weights, res.weights, strict=True):
                assert (g.t, g.assets) == (w.t, w.assets)
                for attr in ("w", "multipliers", "caps"):
                    same_bits(getattr(g, attr), getattr(w, attr), f"{name} {w.t} {attr}")
    # one ADV row and one report block per date and window, however many walks read them
    assert panel.as_of_rows.keys() == store_keys(panel, schedule.dates, l_adv, l_fund)
    assert len(panel.as_of_rows) == 2 * n
    assert filled.as_of_rows.keys() == (store_keys(panel, schedule.dates, l_adv, l_fund)
                                        | store_keys(panel, schedule.dates, other_adv, other_fund))
    # one factor matrix per date and distinct member set of the tilted pools
    assert panel.factor_matrices.keys() == matrix_keys(panel, schedule.dates, config)
    assert filled.factor_matrices.keys() >= matrix_keys(panel, schedule.dates, config)


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
