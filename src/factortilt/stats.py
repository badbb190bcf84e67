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

The deflated Sharpe ratio's standard normal CDF and quantile, `_ndtr` and
`_ndtri`, are a port of `ndtr` and `ndtri` (with the `erf` and `erfc` that
`ndtr` calls) from the Cephes Math Library by Stephen L. Moshier
(Copyright 1984-2000, distributed under the BSD licence): the same
rational approximations, evaluated in the same order with the same libm
`exp`, `log` and `sqrt`, so each result has the bits of the C routines.
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


# Cephes's coefficient tables (see the module docstring). Each denominator
# table starts with Cephes's implied leading 1.0, so one Horner loop serves
# for both polevl and p1evl (1.0 * x + c is x + c).
_MAXLOG = 7.09782712893383996843e2  # log(2**1024): erfc(x) is 0 once x * x > MAXLOG
_SQRT1_2 = 7.07106781186547524401e-1
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# erf(x) = x T(x^2) / U(x^2) for |x| < 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) from 8
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# ndtri: P0/Q0 for |p - 0.5| <= 0.5 - exp(-2); in the tails, with
# x = sqrt(-2 log p), P1/Q1 for 2 <= x < 8 and P2/Q2 for x >= 8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """The polynomial with these coefficients, highest power first, at x
    by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: float) -> float:
    """The standard normal CDF: 0.5 + 0.5 erf(x) at x = a / sqrt 2 while
    |x| < 1, else 0.5 erfc(|x|) from the nearer tail."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        return 0.5 + 0.5 * (x * _polevl(x * x, _T) / _polevl(x * x, _U))
    if -z * z < -_MAXLOG:
        y = 0.0
    else:
        num, den = (_P, _Q) if z < 8.0 else (_R, _S)
        y = 0.5 * (math.exp(-z * z) * _polevl(z, num) / _polevl(z, den))
    return 1.0 - y if x > 0 else y


def _ndtri(p: float) -> float:
    """The standard normal quantile: the x with _ndtr(x) = p, -inf at 0,
    inf at 1 and NaN outside [0, 1]."""
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if not 0.0 < p < 1.0:
        return math.nan
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    num, den = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x1 = z * _polevl(z, num) / _polevl(z, den)
    return x0 - x1 if upper else -(x0 - x1)


def expected_max_sharpe(n_trials: int, t_obs: int) -> float:
    """Expected maximum per-period Sharpe over n_trials independent null
    strategies of length t_obs (Gaussian order-statistic approximation with
    the Euler-Mascheroni correction)."""
    if n_trials < 1:
        raise StatsError(f"n_trials must be >= 1, got {n_trials}")
    if n_trials == 1:
        return 0.0
    scale = 1.0 / math.sqrt(t_obs)
    hi = _ndtri(1.0 - 1.0 / n_trials)
    lo = _ndtri(1.0 - 1.0 / (n_trials * math.e))
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
    z = (sr - sr_star) * math.sqrt(t_obs - 1.0) / math.sqrt(denom_sq)
    return _ndtr(z)


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
