"""IC/IR factor diagnostics: Spearman information coefficients against
forward returns, information-ratio aggregation, and mapping to convex factor
mixture weights.

This path is diagnostic only; headline backtests never consume forward
returns unless the calibrated mixture is explicitly applied. Note the forward
window starts at the rebalance date itself and therefore overlaps the holding
period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.stats import rankdata

from .errors import ConfigError
from .factors import FactorMatrix
from .market_data import MarketPanel, RebalanceSchedule


@dataclass(frozen=True)
class CalibrationParams:
    horizon: int = 126  # forward window, trading days
    m_min: int = 4      # minimum IC observations for a usable IR
    min_universe: int = 5

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.m_min < 1:
            raise ConfigError(f"m_min must be >= 1, got {self.m_min}")
        if self.min_universe < 3:
            raise ConfigError(f"min_universe must be >= 3, got {self.min_universe}")


@dataclass(frozen=True)
class ICSeries:
    factor: str
    dates: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(self.dates) != len(self.values):
            raise ConfigError("IC dates and values length mismatch")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise ConfigError("IC dates not strictly increasing")
        if np.any(np.abs(self.values) > 1 + 1e-12):
            raise ConfigError("IC values outside [-1, 1]")

    def __len__(self) -> int:
        return len(self.values)


def forward_returns(panel: MarketPanel, t: str, horizon: int) -> np.ndarray:
    """Per asset, P[t+H] / P[t] - 1 in trading-day offsets; NaN past the
    calendar end or when either price is missing."""
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    it = panel.calendar.position(t)
    if it + horizon >= panel.n_days:
        return np.full(panel.n_assets, np.nan)
    p0, p1 = panel.price[it], panel.price[it + horizon]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(np.isfinite(p0) & np.isfinite(p1), p1 / p0 - 1.0, np.nan)


def forward_return(panel: MarketPanel, asset: str, t: str, horizon: int) -> float:
    """One asset's entry of forward_returns."""
    return float(forward_returns(panel, t, horizon)[panel.position(asset)])


def spearman(x, y, min_pairs: int = 3) -> float:
    """Rank correlation with average ranks for ties. Pairs with a missing
    side are dropped; NaN when fewer than min_pairs remain or either rank
    vector has zero variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ConfigError("spearman inputs must have equal length")
    ok = np.isfinite(x) & np.isfinite(y)
    if int(ok.sum()) < max(min_pairs, 3):
        return math.nan
    rx = rankdata(x[ok], method="average")
    ry = rankdata(y[ok], method="average")
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        return math.nan
    if np.array_equal(rx, ry):
        return 1.0
    if np.array_equal(rx, len(rx) + 1.0 - ry):
        return -1.0
    r = float(np.corrcoef(rx, ry)[0, 1])
    return float(np.clip(r, -1.0, 1.0))


def build_ic_series(
    panel: MarketPanel,
    schedule: RebalanceSchedule,
    factor_matrices: Mapping[str, FactorMatrix],
    params: CalibrationParams,
) -> dict[str, ICSeries]:
    """Per-factor IC time series over the rebalance dates with enough valid
    (z, forward return) pairs; invalid dates are skipped."""
    factors = None
    per_factor: dict[str, tuple[list[str], list[float]]] = {}
    for t in schedule.dates:
        matrix = factor_matrices.get(t)
        if matrix is None:
            continue
        if factors is None:
            factors = matrix.factors
            per_factor = {f: ([], []) for f in factors}
        fwd = forward_returns(panel, t, params.horizon)[panel.positions(matrix.assets)]
        for f in matrix.factors:
            ic = spearman(matrix.column(f), fwd, min_pairs=params.min_universe)
            if not math.isnan(ic):
                per_factor[f][0].append(t)
                per_factor[f][1].append(ic)
    if factors is None:
        return {}
    return {
        f: ICSeries(factor=f, dates=tuple(dates), values=np.array(values))
        for f, (dates, values) in per_factor.items()
    }


def information_ratio(values, m_min: int) -> float:
    """Mean over population standard deviation of an IC series; zero when
    the series has fewer than m_min observations or is flat."""
    vals = np.asarray(values, dtype=float)
    if len(vals) < m_min:
        return 0.0
    mu = float(np.mean(vals))
    sd = float(np.sqrt(np.mean((vals - mu) ** 2)))
    return 0.0 if sd == 0 else mu / sd


def ir_to_alpha(series: Mapping[str, ICSeries], m_min: int) -> dict[str, float]:
    """IR = mean/std of each IC series (population std, zero when the series
    is short or flat), clipped at zero and normalized into a convex mixture;
    uniform fallback when no factor has positive IR."""
    factors = list(series)
    if not factors:
        raise ConfigError("no IC series supplied")
    scores = [max(information_ratio(series[f].values, m_min), 0.0) for f in factors]
    total = sum(scores)
    if total == 0:
        return {f: 1.0 / len(factors) for f in factors}
    return {f: s / total for f, s in zip(factors, scores)}
