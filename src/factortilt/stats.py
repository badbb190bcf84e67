"""Robustness-oriented performance statistics: Newey-West t-statistics,
deflated Sharpe ratio, turnover-adjusted alpha, drawdown/concentration
diagnostics, and factor-redundancy measures.

Annualization uses 252 trading days; standard deviations and higher moments
are population (divide by N) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy.stats import norm

from .backtest import BacktestResult, turnover_series
from .errors import StatsError
from .factors import FactorMatrix
from .weighting import WeightVector

TRADING_DAYS = 252
EULER_GAMMA = 0.5772156649015329
MIN_OBS = 8


def _series(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise StatsError("expected a one-dimensional series")
    return arr


def _pop_std(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean((x - np.mean(x)) ** 2)))


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
    return _pop_std(r) * math.sqrt(TRADING_DAYS)


def sharpe_ratio(returns) -> float:
    """Annualized mean/vol ratio at zero reference rate."""
    r = _series(returns)
    sd = _pop_std(r)
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
    lag_used = int(math.floor(4.0 * (t_obs / 100.0) ** (2.0 / 9.0))) if lag is None else int(lag)
    if lag_used < 0:
        raise StatsError(f"lag must be >= 0, got {lag_used}")
    lag_used = min(lag_used, t_obs - 1)
    lrv = gamma0
    for k in range(1, lag_used + 1):
        gamma_k = float(np.sum(xc[k:] * xc[:-k])) / t_obs
        lrv += 2.0 * (1.0 - k / (lag_used + 1.0)) * gamma_k
    if lrv <= 0:
        raise StatsError("non-positive long-run variance")
    t_stat = float(np.mean(x)) / math.sqrt(lrv / t_obs)
    return t_stat, lag_used


def expected_max_sharpe(n_trials: int, t_obs: int) -> float:
    """Expected maximum per-period Sharpe over n_trials independent null
    strategies of length t_obs (Gaussian order-statistic approximation with
    the Euler-Mascheroni correction)."""
    if n_trials < 1:
        raise StatsError(f"n_trials must be >= 1, got {n_trials}")
    if n_trials == 1:
        return 0.0
    scale = 1.0 / math.sqrt(t_obs)
    hi = norm.ppf(1.0 - 1.0 / n_trials)
    lo = norm.ppf(1.0 - 1.0 / (n_trials * math.e))
    return float(scale * ((1.0 - EULER_GAMMA) * hi + EULER_GAMMA * lo))


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
    z = (sr - sr_star) * math.sqrt(t_obs - 1.0) / math.sqrt(denom_sq)
    return float(norm.cdf(z))


def _overlap(a: BacktestResult, b: BacktestResult) -> list[str]:
    common = sorted(set(a.dates) & set(b.dates))
    if not common:
        raise StatsError("backtest results cover disjoint date ranges")
    return common


def turnover_adjusted_alpha(result: BacktestResult, benchmark: BacktestResult) -> float:
    """Annualized excess return over the benchmark per unit of annualized
    one-way turnover, computed on the overlapping date range. Zero-turnover
    strategies map to a signed infinity (or 0 when the excess is also 0)."""
    common = _overlap(result, benchmark)
    pos_r = {d: i for i, d in enumerate(result.dates)}
    pos_b = {d: i for i, d in enumerate(benchmark.dates)}
    r_s = result.daily_returns[[pos_r[d] for d in common]]
    r_b = benchmark.daily_returns[[pos_b[d] for d in common]]
    excess = annualized_return(r_s) - annualized_return(r_b)
    in_window = [i for i, d in enumerate(result.rebalance_dates) if common[0] <= d <= common[-1]]
    ann_turnover = float(result.turnover[in_window].sum()) * TRADING_DAYS / len(common)
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


def _weight_array(w) -> np.ndarray:
    arr = w.w if isinstance(w, WeightVector) else np.asarray(w, dtype=float)
    if np.any(arr < 0):
        raise StatsError("weights must be non-negative")
    return arr


def effective_n(w) -> float:
    """Inverse Herfindahl index 1 / sum(w^2)."""
    arr = _weight_array(w)
    denom = float(np.sum(arr * arr))
    if denom == 0:
        raise StatsError("effective N undefined for an all-zero weight vector")
    return 1.0 / denom


def top_k_concentration(w, k: int = 5) -> float:
    """Sum of the k largest weights (all weights when fewer than k)."""
    arr = _weight_array(w)
    if k < 1:
        raise StatsError(f"k must be >= 1, got {k}")
    top = np.sort(arr)[::-1][:k]
    return float(top.sum())


def factor_correlations(matrices: Iterable[FactorMatrix]) -> tuple[tuple[str, ...], np.ndarray]:
    """Average over rebalance dates of the cross-sectional Pearson
    correlations between factor z columns. Pairs degenerate (constant) on
    every date come back NaN."""
    matrices = list(matrices)
    if len(matrices) < 2:
        raise StatsError("need at least 2 rebalance dates for factor correlations")
    factors = matrices[0].factors
    nf = len(factors)
    sums = np.zeros((nf, nf))
    counts = np.zeros((nf, nf), dtype=int)
    for m in matrices:
        z = m.z
        stds = z.std(axis=0)
        for i in range(nf):
            for j in range(i + 1, nf):
                if stds[i] > 0 and stds[j] > 0:
                    c = float(np.corrcoef(z[:, i], z[:, j])[0, 1])
                    sums[i, j] += c
                    counts[i, j] += 1
    corr = np.eye(nf)
    for i in range(nf):
        for j in range(i + 1, nf):
            corr[i, j] = corr[j, i] = sums[i, j] / counts[i, j] if counts[i, j] else math.nan
    return factors, corr


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
    strategy: str
    ann_return: float
    ann_vol: float
    sharpe: float
    nw_tstat: float
    nw_lag: int
    deflated_sharpe: float
    n_trials: int
    turnover_adjusted_alpha: float
    ann_turnover: float
    max_drawdown: float
    effective_n: float
    top5_concentration: float

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("ann_return", self.ann_return),
            ("ann_vol", self.ann_vol),
            ("sharpe", self.sharpe),
            ("nw_tstat", self.nw_tstat),
            ("nw_lag", self.nw_lag),
            ("deflated_sharpe", self.deflated_sharpe),
            ("n_trials", self.n_trials),
            ("turnover_adjusted_alpha_oneway", self.turnover_adjusted_alpha),
            ("ann_turnover_oneway", self.ann_turnover),
            ("max_drawdown", self.max_drawdown),
            ("effective_n_mean", self.effective_n),
            ("top5_concentration_mean", self.top5_concentration),
        ]


def summarize(
    result: BacktestResult,
    benchmark: BacktestResult | None = None,
    n_trials: int = 1,
    nw_lag: int | None = None,
) -> StatsReport:
    """Assemble the scalar diagnostics for one backtest. Concentration
    measures are averaged over the rebalance dates with a non-empty universe."""
    r = result.daily_returns
    t_stat, lag_used = newey_west_tstat(r, nw_lag)
    live = [w for w in result.weights if w.w.sum() > 0]
    eff = float(np.mean([effective_n(w) for w in live])) if live else math.nan
    top5 = float(np.mean([top_k_concentration(w, 5) for w in live])) if live else math.nan
    taa = turnover_adjusted_alpha(result, benchmark) if benchmark is not None else math.nan
    _, _, ann_to = turnover_series(result)
    return StatsReport(
        strategy=result.strategy,
        ann_return=annualized_return(r),
        ann_vol=annualized_vol(r),
        sharpe=sharpe_ratio(r),
        nw_tstat=t_stat,
        nw_lag=lag_used,
        deflated_sharpe=deflated_sharpe(r, n_trials),
        n_trials=n_trials,
        turnover_adjusted_alpha=taa,
        ann_turnover=ann_to,
        max_drawdown=max_drawdown(result.equity_curve),
        effective_n=eff,
        top5_concentration=top5,
    )
