"""IC/IR factor diagnostics: Spearman information coefficients against
forward returns, information-ratio aggregation, and mapping to convex factor
mixture weights.

This path is diagnostic only; headline backtests never consume forward
returns unless the calibrated mixture is explicitly applied. The applied
mixture (`[calibration] apply = true`) is one alpha from the ICs of the
full sample, so it is in-sample: the weights at a rebalance read returns
from after it, until a walk-forward alpha replaces it. Note the forward
window starts at the rebalance date itself and therefore overlaps the holding
period.

Every correlation goes through one kernel, `pearson` on the rows of
`centered_rows`, which gives np.corrcoef(x, y)[0, 1] bit for bit. Each row
is centered by its row sum / n over a C-contiguous block: numpy reduces
each row of such a block exactly as it reduces that row alone, while an
F-ordered block is summed column by column and rounds differently. Each
pair then takes its own 2 x n product np.dot(X, X.T), as np.cov does (a
product over more rows is a wider BLAS call and rounds differently),
scaled by 1 / (n - 1), divided by the square roots of its two diagonal
entries in turn, and clipped to [-1, 1]. The IC series ranks a date's z
columns and forward returns in one stacked call, whose average ranks are
exact half-integers and so have the bits of one column at a time, and
centers them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .factors import FACTORS, FactorMatrix
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
    """One factor's IC per rebalance date; build_ic_series keys it by factor."""

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
    return panel.price[it + horizon] / panel.price[it] - 1.0  # prices are > 0 or NaN


def average_ranks(x) -> np.ndarray:
    """1-based ranks of a 1-D array, tied values sharing the mean of their
    ranks: the values of scipy's `rankdata(x, method="average")`."""
    return average_ranks_rows(np.asarray(x)[None, :])[0]


def average_ranks_rows(x: np.ndarray) -> np.ndarray:
    """average_ranks of each row of a 2-D array, from one row-wise sort: a
    run of c tied values from sorted position s ranks s + (c + 1) / 2. The
    ranks are exact half-integers, so any correct tie rule gives them the
    same bits."""
    k, n = x.shape
    at = np.argsort(x, axis=1, kind="stable")
    at += np.arange(k)[:, None] * n  # positions in the flat stack
    ordered = x.ravel()[at]
    first = np.ones((k, n), dtype=bool)  # where a run of ties starts; each row starts one
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    counts = np.append(starts[1:], k * n) - starts
    out = np.empty(k * n)
    out[at.ravel()] = np.repeat(starts % n + 0.5 * (counts + 1), counts)
    return out.reshape(k, n)


def centered_rows(x) -> np.ndarray:
    """Each row of the 2-D x less its mean, as np.cov centers it: row sums
    / n of a C-contiguous block, which numpy reduces row by row exactly as
    it reduces each row alone. An F-ordered block would be summed column by
    column and round differently, so x is made C-contiguous first."""
    x = np.ascontiguousarray(x, dtype=float)
    return x - (np.add.reduce(x, axis=1) / x.shape[1])[:, None]


def pearson(centered: np.ndarray, i: int, j: int) -> float:
    """np.corrcoef(x[i], x[j])[0, 1] bit for bit, for rows i and j of
    centered = centered_rows(x) (n >= 2 columns): the 2 x n product
    np.dot(X, X.T) of the two rows that np.cov makes, scaled by
    1 / (n - 1), the off-diagonal divided by the square root of the first
    diagonal and then of the second, and clipped to [-1, 1]. One product
    per pair: a wider BLAS call over more rows rounds differently."""
    pair = centered[[i, j]]
    (xx, xy), (_, yy) = (np.dot(pair, pair.T) * (1 / (centered.shape[1] - 1))).tolist()
    r = np.float64(xy) / math.sqrt(xx) / math.sqrt(yy)  # numpy's division: x / 0 is inf or NaN
    return min(max(float(r), -1.0), 1.0)


def _rank_correlations(rows: np.ndarray, pairs: list[tuple[int, int]]) -> list[float]:
    """Pearson correlation of the average ranks of rows i and j of a 2-D
    array, for each (i, j) in pairs: NaN when either ranking is constant,
    and exactly +-1 when ranking i equals ranking j or its reverse."""
    ranks = average_ranks_rows(rows)
    constant = (ranks == ranks[:, :1]).all(axis=1).tolist()
    i, j = np.array(pairs).T
    same = (ranks[i] == ranks[j]).all(axis=1).tolist()
    reverse = (ranks[i] == ranks.shape[1] + 1.0 - ranks[j]).all(axis=1).tolist()
    centered = centered_rows(ranks)
    return [math.nan if constant[a] or constant[b] else 1.0 if s else -1.0 if r else pearson(centered, a, b)
            for (a, b), s, r in zip(pairs, same, reverse)]


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
    return _rank_correlations(np.stack((x[ok], y[ok])), [(0, 1)])[0]


def build_ic_series(
    panel: MarketPanel,
    schedule: RebalanceSchedule,
    factor_matrices: Mapping[str, FactorMatrix],
    params: CalibrationParams,
) -> dict[str, ICSeries]:
    """Per-factor IC time series over the rebalance dates with enough valid
    (z, forward return) pairs; invalid dates are skipped. Each factor's IC
    is spearman(z column, forward returns): z is complete, so every factor
    pairs on the members with a forward return, and a date's z columns and
    forward returns are ranked in one call and centered once."""
    dated = [(t, factor_matrices[t]) for t in schedule.dates if t in factor_matrices]
    if not dated:
        return {}
    per_factor = {f: ([], []) for f in FACTORS}
    for t, matrix in dated:
        fwd = forward_returns(panel, t, params.horizon)[matrix.positions]
        ok = np.isfinite(fwd)
        if int(ok.sum()) < max(params.min_universe, 3):
            continue
        rows = np.vstack((matrix.z[ok].T, fwd[ok]))  # each factor's z, then the forward returns
        last = len(rows) - 1
        for f, ic in zip(FACTORS, _rank_correlations(rows, [(j, last) for j in range(last)])):
            if not math.isnan(ic):
                per_factor[f][0].append(t)
                per_factor[f][1].append(ic)
    return {f: ICSeries(dates=tuple(dates), values=np.array(values)) for f, (dates, values) in per_factor.items()}


def information_ratio(values, m_min: int) -> float:
    """Mean over population standard deviation of an IC series; zero when
    the series has fewer than m_min observations or is flat."""
    vals = np.asarray(values, dtype=float)
    if len(vals) < m_min:
        return 0.0
    sd = float(np.std(vals))
    return 0.0 if sd == 0 else float(np.mean(vals)) / sd


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
