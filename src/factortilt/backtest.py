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
from .errors import ConfigError, DataError
from .factors import FactorParams, select_factor_matrix
from .market_data import AsOf, MarketPanel, RebalanceSchedule
from .weighting import CapParams, TiltParams, WeightVector, tilted_weights

log = logging.getLogger(__name__)

STRATEGIES = ("dmft", "fixed_universe", "ew_eligible", "ew_all", "cap_weighted")
WEIGHT_MODES = ("constant_mix", "drift")


@dataclass(frozen=True)
class BacktestConfig:
    strategy: str = "dmft"
    cost_rate: float = 0.0
    weight_mode: str = "constant_mix"
    eligibility: EligibilityParams = field(default_factory=EligibilityParams)
    factors: FactorParams = field(default_factory=FactorParams)
    tilt: TiltParams = field(default_factory=TiltParams)
    caps: CapParams | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
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


def _pool(snap: AsOf, config: BacktestConfig) -> np.ndarray:
    """Membership row of a strategy's pool: the screens for dmft and
    ew_eligible, any computable raw signal for fixed_universe (quality needs
    all three components), any price before t for ew_all, a market cap at
    t-1 for cap_weighted."""
    s = config.strategy
    if s in ("dmft", "ew_eligible"):
        return eligible(snap.history, snap.adv, config.eligibility)
    if s == "fixed_universe":
        quality_ok = ~(np.isnan(snap.roe) | np.isnan(snap.gross_margin) | np.isnan(snap.debt_to_assets))
        return ~np.isnan(snap.momentum) | ~np.isnan(snap.value) | quality_ok
    if s == "ew_all":
        return snap.listed
    return np.isfinite(snap.mktcap)


def _date_targets(panel: MarketPanel, snap: AsOf, configs) -> dict[str, WeightVector]:
    """Every config's target weights at the snapshot's date. The configs
    share eligibility and factor parameters, so each pool's member positions
    and factor matrix are built once and read by every config that uses it.
    An empty pool is logged once."""
    assets = tuple(panel.assets)
    pools, matrices, out = {}, {}, {}
    for name, config in configs.items():
        s = config.strategy
        pool = "screened" if s in ("dmft", "ew_eligible") else s
        if pool not in pools:
            pools[pool] = np.flatnonzero(_pool(snap, config))
            if not pools[pool].size:
                log.warning("empty universe at %s in the %s pool; holding cash until next rebalance", snap.t, pool)
        positions = pools[pool]
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
            if pool not in matrices:
                matrices[pool] = select_factor_matrix(snap, positions, config.factors)
            caps = config.caps if s == "dmft" else None
            adv = None if caps is None else snap.adv[positions]
            out[name] = tilted_weights(snap.t, assets, positions, matrices[pool], adv, config.tilt, caps)
    return out


def target_weights(panel: MarketPanel, t: str, config: BacktestConfig) -> WeightVector:
    """Target weight vector for one strategy at one rebalance date."""
    return _date_targets(panel, snapshot(panel, t, config), {config.strategy: config})[config.strategy]


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
    panel: MarketPanel, schedule: RebalanceSchedule, configs, end: str | None, snapshots=None
) -> dict[str, BacktestResult]:
    """Walk the rebalance dates once, building one snapshot per date (or
    taking it from `snapshots`, keyed by date) that every config's targets
    read, then evolve each config's book. The configs share eligibility and
    factor parameters."""
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

    first = next(iter(configs.values()))
    per_date = [
        _date_targets(panel, snapshot(panel, t, first) if snapshots is None
                      else _given_snapshot(snapshots, panel, t, first), configs)
        for t in schedule.dates
        if t <= end
    ]
    # a missing asset return is zero
    asset_returns = np.zeros_like(panel.price)
    with np.errstate(invalid="ignore", divide="ignore"):
        asset_returns[1:] = panel.price[1:] / panel.price[:-1] - 1.0
    np.nan_to_num(asset_returns, copy=False)
    dates = cal.days[i_start : i_end + 1]
    span = asset_returns[i_start : i_end + 1]
    return {
        name: _evolve(list(dates), span, [targets[name] for targets in per_date], config)
        for name, config in configs.items()
    }


def _evolve(dates: list[str], returns: np.ndarray, targets: list[WeightVector], config) -> BacktestResult:
    """The daily evolution of run_backtest over `dates`, whose asset returns
    are the rows of `returns`, trading to each target on its date."""
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

    equity = np.cumprod(1.0 + daily)
    return BacktestResult(
        strategy=config.strategy,
        dates=dates,
        daily_returns=daily,
        equity_curve=equity,
        rebalance_dates=reb_dates,
        turnover=np.array(turnover),
        costs=np.array(costs),
        weights=targets,
    )


def run_backtest(
    panel: MarketPanel,
    schedule: RebalanceSchedule,
    config: BacktestConfig,
    end: str | None = None,
) -> BacktestResult:
    """Evolve the configured strategy from the first rebalance date through
    `end` (panel end by default).

    Daily return on day d uses the weights held coming into d; on a rebalance
    date the book is then traded to the new targets and the turnover cost is
    deducted from that day's return. Between rebalances, constant_mix holds
    the targets fixed while drift lets weights evolve with relative returns
    (turnover is then measured against the drifted weights).
    """
    return _run(panel, schedule, {config.strategy: config}, end)[config.strategy]


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
    rebuilt; a missing date or a snapshot of another panel, date or set of
    windows raises ConfigError."""
    configs = {
        s: replace(config, strategy=s, caps=config.caps if s == "dmft" else None)
        for s in STRATEGIES
    }
    return _run(panel, schedule, configs, end, snapshots)


def turnover_series(result: BacktestResult) -> tuple[list[str], np.ndarray, float]:
    """Per-rebalance one-way turnover plus the annualized aggregate
    sum(turnover) * 252 / days covered."""
    n_days = len(result.dates)
    if n_days == 0:
        raise ConfigError("empty backtest result")
    annualized = float(result.turnover.sum()) * 252.0 / n_days
    return list(result.rebalance_dates), result.turnover.copy(), annualized


def removal_config(config: BacktestConfig, factor: str) -> BacktestConfig:
    """Config with one factor removed from the mixture: remaining weights are
    renormalized proportionally, shared uniformly if they carried no weight,
    and removal of the last factor degenerates to the untilted baseline."""
    alpha = dict(config.tilt.alpha)
    if factor not in alpha:
        raise ConfigError(f"factor {factor!r} not in mixture")
    rest = [f for f in alpha if f != factor]
    if not rest:
        return replace(config, tilt=replace(config.tilt, lam=0.0))
    rest_total = sum(alpha[f] for f in rest)
    if rest_total > 0:
        new_alpha = {f: (alpha[f] / rest_total if f in rest else 0.0) for f in alpha}
    else:
        new_alpha = {f: (1.0 / len(rest) if f in rest else 0.0) for f in alpha}
    return replace(config, tilt=replace(config.tilt, alpha=new_alpha))


def run_factor_removals(
    panel: MarketPanel,
    schedule: RebalanceSchedule,
    config: BacktestConfig,
    end: str | None = None,
    *,
    snapshots: dict[str, AsOf] | None = None,
) -> dict[str, BacktestResult]:
    """Full run plus one rerun per factor with that factor removed, for
    marginal contribution diagnostics. `snapshots` is as in run_baselines."""
    configs = {"full": config}
    for f in config.tilt.alpha:
        configs[f"drop_{f}"] = removal_config(config, f)
    return _run(panel, schedule, configs, end, snapshots)
