"""Portfolio evolution through time: piecewise-constant target weights,
daily returns, one-way turnover, linear transaction costs, and the
counterfactual baseline strategies run on identical data and schedule.

Conventions: turnover is one-way sum |dw| in [0, 2]; the cost
cost_rate * turnover is deducted from the rebalance day's return. A missing
asset return contributes zero and the position is carried. An empty universe
holds cash at exactly zero return until the next rebalance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .eligibility import EligibilityParams, eligible
from .errors import ConfigError, DataError, check_finite
from .factors import FactorMatrix, FactorParams, select_factor_matrix
from .market_data import AsOf, MarketPanel, RebalanceSchedule
from .weighting import CapParams, TiltParams, WeightVector, cap_values, tilted_weights

log = logging.getLogger(__name__)

STRATEGIES = ("dmft", "fixed_universe", "ew_eligible", "ew_all", "cap_weighted")
_POOLS = {"dmft": "screened", "ew_eligible": "screened"}  # every other strategy holds a pool of its own
WEIGHT_MODES = ("constant_mix", "drift")


@dataclass(frozen=True)
class BacktestConfig:
    cost_rate: float = 0.0
    weight_mode: str = "constant_mix"
    eligibility: EligibilityParams = field(default_factory=EligibilityParams)
    factors: FactorParams = field(default_factory=FactorParams)
    tilt: TiltParams = field(default_factory=TiltParams)
    caps: CapParams | None = None

    def __post_init__(self):
        check_finite(cost_rate=self.cost_rate)
        if self.cost_rate < 0:
            raise ConfigError(f"cost_rate must be >= 0, got {self.cost_rate}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"unknown weight_mode {self.weight_mode!r}")


@dataclass
class BacktestResult:
    strategy: str
    dates: list[str]
    daily_returns: np.ndarray
    equity_curve: np.ndarray
    rebalance_dates: list[str]
    turnover: np.ndarray
    costs: np.ndarray
    weights: list[WeightVector]


def pool_positions(snap: AsOf, strategy: str, config: BacktestConfig) -> np.ndarray:
    """Positions of the members of the strategy's pool at the snapshot's date:
    the screens for dmft and ew_eligible, any computable raw signal for
    fixed_universe (quality needs all three components), any price before t
    for ew_all, a market cap at t-1 for cap_weighted. Built once per pool and
    eligibility parameters, kept on the snapshot, and logged when empty."""
    pool = _POOLS.get(strategy, strategy)
    key = (pool, config.eligibility)
    if key not in snap.pools:
        if pool == "screened":
            row = eligible(snap.history, snap.adv, config.eligibility)
        elif pool == "fixed_universe":
            quality_ok = ~(np.isnan(snap.roe) | np.isnan(snap.gross_margin) | np.isnan(snap.debt_to_assets))
            row = ~np.isnan(snap.momentum) | ~np.isnan(snap.value) | quality_ok
        else:
            row = snap.listed if pool == "ew_all" else np.isfinite(snap.mktcap)
        snap.pools[key] = np.flatnonzero(row)
        if not snap.pools[key].size:
            log.warning("empty universe at %s in the %s pool; holding cash until next rebalance", snap.t, pool)
    return snap.pools[key]


def pool_matrix(snap: AsOf, strategy: str, config: BacktestConfig) -> FactorMatrix:
    """The factor matrix of the strategy's non-empty pool at the snapshot's
    date: built once per pool, eligibility and factor parameters and kept on
    the snapshot."""
    key = (_POOLS.get(strategy, strategy), config.eligibility, config.factors)
    if key not in snap.matrices:
        snap.matrices[key] = select_factor_matrix(snap, pool_positions(snap, strategy, config), config.factors)
    return snap.matrices[key]


def pool_caps(snap: AsOf, strategy: str, config: BacktestConfig) -> np.ndarray:
    """The liquidity caps of the members of the strategy's non-empty pool
    at the snapshot's date, from their ADV and config.caps: built once per
    pool, eligibility and cap parameters and kept on the snapshot."""
    key = (_POOLS.get(strategy, strategy), config.eligibility, config.caps)
    if key not in snap.caps:
        snap.caps[key] = cap_values(snap.adv[pool_positions(snap, strategy, config)], config.caps)
    return snap.caps[key]


def _date_targets(snap: AsOf, config: BacktestConfig, books) -> dict[str, WeightVector]:
    """Every book's target weights at the snapshot's date, each book a
    (strategy, tilt) pair, from the pool positions, factor matrices and caps
    the snapshot keeps, so books that share a pool read one of each."""
    assets = tuple(snap.panel.assets)
    out = {}
    for name, (s, tilt) in books.items():
        positions = pool_positions(snap, s, config)
        w = np.zeros(len(assets))
        if not positions.size:
            out[name] = WeightVector(t=snap.t, assets=assets, w=w)
        elif s in ("ew_eligible", "ew_all"):
            w[positions] = 1.0 / len(positions)
            out[name] = WeightVector(t=snap.t, assets=assets, w=w)
        elif s == "cap_weighted":
            w[positions] = snap.mktcap[positions]
            out[name] = WeightVector(t=snap.t, assets=assets, w=w / w.sum())
        else:
            caps = pool_caps(snap, s, config) if s == "dmft" and config.caps is not None else None
            out[name] = tilted_weights(snap.t, assets, positions, pool_matrix(snap, s, config), tilt, caps)
    return out


def _windows(config: BacktestConfig) -> tuple:
    f = config.factors
    return config.eligibility.l_adv, f.l_mom, f.skip, f.l_fund


def snapshot(panel: MarketPanel, t: str, config: BacktestConfig) -> AsOf:
    """The as-of snapshot at t with every row the config's strategies read."""
    return AsOf(panel, t, *_windows(config))


def _given_snapshot(snapshots: dict[str, AsOf], panel: MarketPanel, t: str, config: BacktestConfig) -> AsOf:
    """snapshots[t], checked to be what snapshot(panel, t, config) builds."""
    snap = snapshots.get(t)
    if snap is None:
        raise ConfigError(f"no snapshot given for rebalance date {t}")
    if snap.panel is not panel or snap.t != t or snap.windows != _windows(config):
        raise ConfigError(f"the snapshot given for {t} is not snapshot(panel, {t}, config) of this panel and config")
    return snap


def _run(
    panel: MarketPanel, schedule: RebalanceSchedule, config: BacktestConfig, books, end: str | None, snapshots=None
) -> dict[str, BacktestResult]:
    """Walk the rebalance dates once under one config, building one snapshot
    per date (or taking it from `snapshots`, keyed by date) that every
    named (strategy, tilt) book's targets read, then evolve every book from
    the first rebalance date through `end` (panel end by default) in one
    day loop.

    Daily return on day d uses the weights held coming into d; on a rebalance
    date the book is then traded to the new targets and the turnover cost is
    deducted from that day's return. Between rebalances, constant_mix holds
    the targets fixed while drift lets weights evolve with relative returns
    (turnover is then measured against the drifted weights)."""
    cal = panel.calendar
    for t in schedule.dates:
        if t not in cal:
            raise DataError(f"rebalance date {t} outside the panel calendar")
    end = cal.last_on_or_before(end) if end is not None else cal.days[-1]
    if end is None:
        raise DataError("backtest end precedes the panel calendar")
    i_end = cal.position(end)
    i_start = cal.position(schedule.dates[0])
    if i_end < i_start:
        raise ConfigError("backtest end precedes the first rebalance date")

    reb_dates = [t for t in schedule.dates if t <= end]
    per_date = [
        _date_targets(snapshot(panel, t, config) if snapshots is None
                      else _given_snapshot(snapshots, panel, t, config), config, books)
        for t in reb_dates
    ]
    # a missing asset return is zero
    asset_returns = np.zeros_like(panel.price)
    with np.errstate(invalid="ignore", divide="ignore"):
        asset_returns[1:] = panel.price[1:] / panel.price[:-1] - 1.0
    np.nan_to_num(asset_returns, copy=False)
    span = asset_returns[i_start : i_end + 1]
    trades = {cal.position(t) - i_start: np.stack([targets[name].w for name in books])
              for t, targets in zip(reb_dates, per_date)}
    daily, turnover = _evolve_books(span, trades, config.weight_mode == "drift")
    costs = config.cost_rate * turnover
    daily[:, sorted(trades)] -= costs
    equity = np.cumprod(1.0 + daily, axis=1)
    dates = cal.days[i_start : i_end + 1]
    return {
        name: BacktestResult(strategy=s, dates=list(dates), daily_returns=daily[j],
                             equity_curve=equity[j], rebalance_dates=list(reb_dates), turnover=turnover[j],
                             costs=costs[j], weights=[targets[name] for targets in per_date])
        for j, (name, (s, _)) in enumerate(books.items())
    }


def _evolve_books(returns: np.ndarray, trades: dict, drift: bool) -> tuple[np.ndarray, np.ndarray]:
    """Gross daily returns (books x days) and one-way turnover (books x
    trades) of books that start in cash, earn the rows of `returns` on the
    weights held coming into each day, and on day k trade to the rows of
    trades[k]. Under drift the weights between trades grow with the
    returns and are renormalised; turnover is measured against them."""
    books = np.zeros_like(trades[0])  # every walk trades on its first day
    rows = list(books)
    gross = np.empty((len(books), len(returns)))
    turnover = []
    for k, r in enumerate(returns):
        # one dot product per book: a matrix-vector product rounds differently
        gross[:, k] = [float(w @ r) for w in rows]
        if drift:
            grown = books * (1.0 + r)
            total = grown.sum(axis=1)
            # divides only where the book holds something and grew to a
            # positive total, so no row divides by zero
            moves = (books.sum(axis=1) > 0) & (total > 0)
            np.divide(grown, total[:, None], out=books, where=moves[:, None])
        target = trades.get(k)
        if target is not None:
            turnover.append(np.abs(target - books).sum(axis=1))
            books[:] = target
    return gross, np.array(turnover).T.copy()


def run_baselines(
    panel: MarketPanel,
    schedule: RebalanceSchedule,
    config: BacktestConfig,
    end: str | None = None,
    *,
    snapshots: dict[str, AsOf] | None = None,
) -> dict[str, BacktestResult]:
    """Run the tilted strategy and all counterfactual baselines under
    identical data, schedule, and cost assumptions. Liquidity caps apply only
    to the screened tilted strategy (the screens guarantee ADV for every
    member; the unscreened pools do not). `snapshots`, when given, maps each
    rebalance date t to `snapshot(panel, t, config)`, which is then not
    rebuilt, nor are the pools and factor matrices it already keeps; a
    missing date or a snapshot of another panel, date or set of windows
    raises ConfigError."""
    return _run(panel, schedule, config, {s: (s, config.tilt) for s in STRATEGIES}, end, snapshots)


def removal_tilt(tilt: TiltParams, factor: str) -> TiltParams:
    """The tilt with one factor removed from the mixture: remaining weights
    are renormalized proportionally, shared uniformly if they carried no
    weight, and removal of the last factor degenerates to the untilted
    baseline."""
    alpha = dict(tilt.alpha)
    if factor not in alpha:
        raise ConfigError(f"factor {factor!r} not in mixture")
    rest = [f for f in alpha if f != factor]
    if not rest:
        return replace(tilt, lam=0.0)
    rest_total = sum(alpha[f] for f in rest)
    if rest_total > 0:
        new_alpha = {f: (alpha[f] / rest_total if f in rest else 0.0) for f in alpha}
    else:
        new_alpha = {f: (1.0 / len(rest) if f in rest else 0.0) for f in alpha}
    return replace(tilt, alpha=new_alpha)


def run_factor_removals(
    panel: MarketPanel,
    schedule: RebalanceSchedule,
    config: BacktestConfig,
    end: str | None = None,
    *,
    snapshots: dict[str, AsOf] | None = None,
) -> dict[str, BacktestResult]:
    """The dmft book under the full tilt plus one per factor with that
    factor removed, for marginal contribution diagnostics, in one walk.
    `snapshots` is as in run_baselines."""
    books = {"full": ("dmft", config.tilt)}
    for f in config.tilt.alpha:
        books[f"drop_{f}"] = ("dmft", removal_tilt(config.tilt, f))
    return _run(panel, schedule, config, books, end, snapshots)
