"""Robustness-oriented performance statistics: Newey-West t-statistics,
deflated Sharpe ratio, turnover-adjusted alpha, drawdown/concentration
diagnostics, and factor-redundancy measures.

Annualization uses 252 trading days; standard deviations and higher moments
are population (divide by N) throughout.

`summarize` computes a book's concentration statistics from its stacked
weights (one row per rebalance date): row sums of w * w and the top k of
a row-wise sort. numpy reduces each row of a C-contiguous block exactly
as it reduces that row alone, so each row has the bits of `effective_n`
and `top_k_concentration`, which are the one-row case.

`factor_correlations` correlates every pair of factors on every date in
one `calibration.stacked_correlations` call, which gives np.corrcoef's
bits for each date and pair (see `calibration`) and NaN where a column
is constant, and adds each pair's other correlations in date order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

import numpy as np

from .backtest import BacktestResult
from .calibration import stacked_correlations
from .errors import StatsError
from .factors import FACTORS, FactorMatrix
from .weighting import WeightVector

TRADING_DAYS = 252
MIN_OBS = 8


def _series(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise StatsError("expected a one-dimensional series")
    return arr


def annualized_return(returns) -> float:
    """Geometric compounding scaled to a 252-day year."""
    r = _series(returns)
    if len(r) == 0:
        raise StatsError("empty return series")
    growth = float(np.prod(1.0 + r))
    if growth <= 0:
        raise StatsError("equity non-positive; annualized return undefined")
    return growth ** (TRADING_DAYS / len(r)) - 1.0


def annualized_vol(returns) -> float:
    r = _series(returns)
    if len(r) == 0:
        raise StatsError("empty return series")
    return float(np.std(r)) * math.sqrt(TRADING_DAYS)


def sharpe_ratio(returns) -> float:
    """Annualized mean/vol ratio at zero reference rate."""
    r = _series(returns)
    sd = float(np.std(r))
    if sd == 0:
        raise StatsError("zero return variance; Sharpe undefined")
    return float(np.mean(r)) / sd * math.sqrt(TRADING_DAYS)


def newey_west_tstat(returns, lag: int | None = None) -> tuple[float, int]:
    """t-statistic of the mean with Bartlett-kernel long-run variance
    gamma_0 + 2 * sum_k (1 - k/(L+1)) gamma_k.

    The automatic lag is floor(4 * (T/100)^(2/9)). With L = 0 this is the
    classical t-statistic mean/(sigma/sqrt(T)) under the population-sigma
    convention.
    """
    x = _series(returns)
    t_obs = len(x)
    if t_obs < MIN_OBS:
        raise StatsError(f"need at least {MIN_OBS} observations, got {t_obs}")
    xc = x - np.mean(x)
    gamma0 = float(np.mean(xc * xc))
    if gamma0 <= 0:
        raise StatsError("zero variance; t-statistic undefined")
    lag_used = _nw_lag(t_obs, lag)
    lrv = gamma0
    for k in range(1, lag_used + 1):
        gamma_k = float(np.sum(xc[k:] * xc[:-k])) / t_obs
        lrv += 2.0 * (1.0 - k / (lag_used + 1.0)) * gamma_k
    if lrv <= 0:
        raise StatsError("non-positive long-run variance")
    t_stat = float(np.mean(x)) / math.sqrt(lrv / t_obs)
    return t_stat, lag_used


def _nw_lag(t_obs: int, lag: int | None) -> int:
    """The lag newey_west_tstat uses for t_obs observations: `lag`, or
    floor(4 * (T/100)^(2/9)) when None, at most T - 1."""
    lag_used = int(math.floor(4.0 * (t_obs / 100.0) ** (2.0 / 9.0))) if lag is None else int(lag)
    if lag_used < 0:
        raise StatsError(f"lag must be >= 0, got {lag_used}")
    return min(lag_used, t_obs - 1)


def expected_max_sharpe(n_trials: int, t_obs: int) -> float:
    """Expected maximum per-period Sharpe over n_trials independent null
    strategies of length t_obs (Gaussian order-statistic approximation with
    the Euler-Mascheroni correction). Imports scipy.special on first use,
    so a process that never asks for it never loads scipy."""
    if n_trials < 1:
        raise StatsError(f"n_trials must be >= 1, got {n_trials}")
    if n_trials == 1:
        return 0.0
    from scipy.special import ndtri  # the standard normal quantile

    scale = 1.0 / math.sqrt(t_obs)
    hi = ndtri(1.0 - 1.0 / n_trials)
    lo = ndtri(1.0 - 1.0 / (n_trials * math.e))
    return float(scale * ((1.0 - np.euler_gamma) * hi + np.euler_gamma * lo))


def deflated_sharpe(returns, n_trials: int, benchmark_sr: float | None = None) -> float:
    """Probability that the observed Sharpe clears the multiple-testing
    threshold: Phi((SR - SR*) sqrt(T-1) / sqrt(1 - g3 SR + (g4-1)/4 SR^2)).

    SR is the per-period mean/sigma, g3/g4 the sample skewness and kurtosis
    (biased moment ratios). With n_trials = 1 the threshold SR* is
    benchmark_sr (default 0) and this reduces to the probabilistic Sharpe
    ratio; otherwise SR* is the expected maximum over n_trials null trials.
    """
    x = _series(returns)
    t_obs = len(x)
    if t_obs < MIN_OBS:
        raise StatsError(f"need at least {MIN_OBS} observations, got {t_obs}")
    if n_trials < 1:
        raise StatsError(f"n_trials must be >= 1, got {n_trials}")
    xc = x - np.mean(x)
    m2 = float(np.mean(xc**2))
    if m2 <= 0:
        raise StatsError("zero variance; Sharpe undefined")
    sr = float(np.mean(x)) / math.sqrt(m2)
    g3 = float(np.mean(xc**3)) / m2**1.5
    g4 = float(np.mean(xc**4)) / m2**2
    sr_star = (benchmark_sr or 0.0) if n_trials == 1 else expected_max_sharpe(n_trials, t_obs)
    denom_sq = 1.0 - g3 * sr + (g4 - 1.0) / 4.0 * sr**2
    if denom_sq <= 0:
        raise StatsError("moment condition violated")
    from scipy.special import ndtr  # the standard normal CDF

    z = (sr - sr_star) * math.sqrt(t_obs - 1.0) / math.sqrt(denom_sq)
    return float(ndtr(z))


def turnover_adjusted_alpha(result: BacktestResult, benchmark: BacktestResult) -> float:
    """Annualized excess return over the benchmark per unit of annualized
    one-way turnover, computed on the overlapping date range, where both
    results must hold the same trading days. Zero-turnover strategies map
    to a signed infinity (or 0 when the excess is also 0)."""
    r_dates, b_dates = result.dates, benchmark.dates
    if not (len(r_dates) and len(b_dates)) or max(r_dates[0], b_dates[0]) > min(r_dates[-1], b_dates[-1]):
        raise StatsError("backtest results cover disjoint date ranges")
    first, last = max(r_dates[0], b_dates[0]), min(r_dates[-1], b_dates[-1])
    at_r = slice(bisect_left(r_dates, first), bisect_right(r_dates, last))
    at_b = slice(bisect_left(b_dates, first), bisect_right(b_dates, last))
    if list(r_dates[at_r]) != list(b_dates[at_b]):
        raise StatsError("backtest results hold different trading days over their common date range")
    excess = annualized_return(result.daily_returns[at_r]) - annualized_return(benchmark.daily_returns[at_b])
    reb = result.weights.dates
    traded = slice(bisect_left(reb, first), bisect_right(reb, last))
    ann_turnover = float(result.turnover[traded].sum()) * TRADING_DAYS / (at_r.stop - at_r.start)
    if ann_turnover == 0:
        return 0.0 if excess == 0 else math.copysign(math.inf, excess)
    return excess / ann_turnover


def max_drawdown(equity) -> float:
    """Most negative peak-to-trough ratio minus one; 0 for monotone curves."""
    eq = _series(equity)
    if len(eq) == 0 or np.any(eq <= 0):
        raise StatsError("equity curve must be non-empty and positive")
    running_max = np.maximum.accumulate(eq)
    return float(np.min(eq / running_max - 1.0))


def _weight_row(w) -> np.ndarray:
    """The weights as a (1, n_assets) block of rows."""
    return (w.w if isinstance(w, WeightVector) else np.asarray(w, dtype=float))[None]


def effective_n(w) -> float:
    """Inverse Herfindahl index 1 / sum(w^2)."""
    return float(_effective_ns(_weight_row(w))[0])


def top_k_concentration(w, k: int = 5) -> float:
    """Sum of the k largest weights (all weights when fewer than k)."""
    return float(_top_k_sums(_weight_row(w), k)[0])


def _check_rows(rows: np.ndarray) -> None:
    if np.any(rows < 0):
        raise StatsError("weights must be non-negative")


def _effective_ns(rows: np.ndarray) -> np.ndarray:
    """effective_n of each row of a block of weight rows."""
    _check_rows(rows)
    denom = (rows * rows).sum(axis=1)
    if np.any(denom == 0):
        raise StatsError("effective N undefined for an all-zero weight vector")
    return 1.0 / denom


def _top_k_sums(rows: np.ndarray, k: int) -> np.ndarray:
    """top_k_concentration of each row of a block of weight rows, each row's
    largest first, as the one-row sum adds them."""
    _check_rows(rows)
    if k < 1:
        raise StatsError(f"k must be >= 1, got {k}")
    return np.sort(rows, axis=1)[:, ::-1][:, :k].sum(axis=1)


def factor_correlations(matrices: Iterable[FactorMatrix]) -> tuple[tuple[str, ...], np.ndarray]:
    """Average over rebalance dates of the cross-sectional Pearson
    correlations between factor z columns, given one factor matrix per date
    with a non-empty universe. A pair enters a date's average when neither
    of its columns is constant there (all its values equal), that is, when
    stacked_correlations computes it; pairs with a constant column on every
    date come back NaN. Each pair's correlations are added one date after
    another from 0.0, as np.cumsum adds them (np.sum's order follows the
    array's layout: pairwise along a contiguous axis)."""
    matrices = list(matrices)
    if not matrices:
        raise StatsError("no rebalance date has a non-empty universe, so there are no factor correlations")
    if len(matrices) < 2:
        raise StatsError("factor correlations need at least 2 rebalance dates with a non-empty universe, got 1")
    nf = len(FACTORS)
    i, j = np.triu_indices(nf, 1)
    r = stacked_correlations([m.z for m in matrices], np.column_stack((i, j)))
    computed = ~np.isnan(r)
    sums = np.cumsum(np.vstack((np.zeros(len(i)), np.where(computed, r, 0.0))), axis=0)[-1]
    counts = np.count_nonzero(computed, axis=0)
    corr = np.eye(nf)
    corr[i, j] = corr[j, i] = np.divide(sums, counts, out=np.full(len(i), np.nan), where=counts > 0)
    return FACTORS, corr


def factor_redundancy(
    matrices: Iterable[FactorMatrix],
    results: Mapping[str, BacktestResult],
) -> tuple[tuple[str, ...], np.ndarray, dict[str, float]]:
    """Cross-factor correlation matrix plus each factor's marginal Sharpe
    contribution Sharpe(full) - Sharpe(that factor removed), taken from the
    supplied full/removal backtest results (keys 'full' and 'drop_<factor>')."""
    factors, corr = factor_correlations(matrices)
    if "full" not in results:
        raise StatsError("results must contain a 'full' backtest")
    full_sharpe = sharpe_ratio(results["full"].daily_returns)
    marginal = {}
    for f in factors:
        key = f"drop_{f}"
        if key not in results:
            raise StatsError(f"results missing removal run {key!r}")
        marginal[f] = full_sharpe - sharpe_ratio(results[key].daily_returns)
    return factors, corr, marginal


@dataclass
class StatsReport:
    """One book's statistics, each NaN where it is undefined; `undefined`
    maps the name of each such statistic to the reason. Each statistic's
    field name is its row name in the stats file."""

    strategy: str
    ann_return: float
    ann_vol: float
    sharpe: float
    nw_tstat: float
    nw_lag: int
    deflated_sharpe: float
    n_trials: int
    turnover_adjusted_alpha_oneway: float
    ann_turnover_oneway: float
    max_drawdown: float
    effective_n_mean: float
    top5_concentration_mean: float
    undefined: dict[str, str] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, float]]:
        """(name, value) of each statistic, in field order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self) if f.name not in ("strategy", "undefined")]


def _held_mean(row_stat, rows: np.ndarray) -> float:
    """Mean of a row statistic over the weight rows that hold something."""
    held = rows[rows.sum(axis=1) > 0]
    if not len(held):
        raise StatsError("no rebalance date holds any weight")
    return float(np.mean(row_stat(held)))


def summarize(
    result: BacktestResult,
    benchmark: BacktestResult | None = None,
    n_trials: int = 1,
    nw_lag: int | None = None,
) -> StatsReport:
    """Assemble the scalar diagnostics for one backtest. Concentration
    measures are averaged over the rebalance dates with a non-empty
    universe. A statistic that raises StatsError for this book (such as a
    Sharpe ratio of returns with zero variance, or a t-statistic of fewer
    than MIN_OBS days) is NaN, with the reason in the report's `undefined`;
    the turnover-adjusted alpha is NaN without a benchmark."""
    r = result.daily_returns
    stats: dict[str, float] = {}
    undefined: dict[str, str] = {}

    def value(metric: str, compute, *args):
        try:
            stats[metric] = compute(*args)
        except StatsError as exc:
            stats[metric], undefined[metric] = math.nan, str(exc)

    value("ann_return", annualized_return, r)
    value("ann_vol", annualized_vol, r)
    value("sharpe", sharpe_ratio, r)
    value("nw_tstat", lambda: newey_west_tstat(r, nw_lag)[0])
    value("nw_lag", _nw_lag, len(r), nw_lag)
    value("deflated_sharpe", deflated_sharpe, r, n_trials)
    stats["n_trials"] = n_trials
    stats["turnover_adjusted_alpha_oneway"] = math.nan
    if benchmark is not None:
        value("turnover_adjusted_alpha_oneway", turnover_adjusted_alpha, result, benchmark)
    stats["ann_turnover_oneway"] = float(result.turnover.sum()) * TRADING_DAYS / len(result.dates)
    value("max_drawdown", max_drawdown, result.equity_curve)
    rows = result.weights.w  # n_reb x n_assets
    value("effective_n_mean", _held_mean, _effective_ns, rows)
    value("top5_concentration_mean", _held_mean, lambda held: _top_k_sums(held, 5), rows)
    return StatsReport(result.strategy, **stats, undefined=undefined)
