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

Every correlation goes through one stacked kernel, `stacked_correlations`,
which gives np.corrcoef's bits for each date and pair. It groups the dates
by their member count n (as factors._finite_groups groups segments) and
cuts each group into C-contiguous (rows, n) chunks of at most _CHUNK_CELLS
cells. Per chunk it makes one average_ranks_rows call (rank correlations
only) and one centered_rows call, then one np.matmul over the (pairs, 2, n)
stack of each pair's two centered rows, scaled by 1 / (n - 1); each
off-diagonal is divided by the square root of the first diagonal entry and
then of the second, and clipped to [-1, 1]. Each step keeps the bits of
one date and one pair at a time. Average ranks are exact half-integers,
whatever order the row sort leaves tied values in, so the ranks sort with
numpy's default (SIMD) sort, not a stable one. numpy reduces each row of
a C-contiguous block exactly as it reduces that row alone, so each row is
centered by its own sum / n (an F-ordered block would be summed column
by column and round differently). And the stacked matmul makes, for each
item, the BLAS call (syrk) that np.dot(X, X.T) makes for one 2 x n pair
in np.cov, under one BLAS thread or several.
A pair with a constant column on a date (all its values equal, as
factors._standardized_rows tests a row) is not computed there and reads
NaN, the kernel's one "not computed" mark. So does a pair with a column
whose squares underflow to a zero diagonal entry, the one departure from
np.corrcoef, which divides by that zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, check_integer
from .factors import FACTORS, FactorMatrix
from .market_data import MarketPanel, RebalanceSchedule


@dataclass(frozen=True)
class CalibrationParams:
    """The IC/IR diagnostics' settings, and `apply`: whether a backtest
    tilts by the calibrated mixture in place of the configured one."""

    horizon: int = 126  # forward window, trading days
    m_min: int = 4      # minimum IC observations for a usable IR
    min_universe: int = 5
    apply: bool = False

    def __post_init__(self):
        check_integer(horizon=self.horizon, m_min=self.m_min, min_universe=self.min_universe)
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.m_min < 1:
            raise ConfigError(f"m_min must be >= 1, got {self.m_min}")
        if self.min_universe < 3:
            raise ConfigError(f"min_universe must be >= 3, got {self.min_universe}")


@dataclass(frozen=True, eq=False)  # == on numpy arrays has no single truth value
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


def average_ranks_rows(x: np.ndarray) -> np.ndarray:
    """1-based ranks of each row of a 2-D array, tied values sharing the
    mean of their ranks (the "average" tie method), from one row-wise sort:
    a run of c tied values from sorted position s ranks s + (c + 1) / 2.
    The ranks are exact half-integers, so any correct tie rule gives them
    the same bits.

    The sort need not be stable, so it is numpy's default, which runs
    SIMD code where the CPU has it: every member of a run of equal values
    (0.0 and -0.0 compare equal and share one) gets the same rank, so the
    order a sort leaves inside a run moves no rank, on any dispatch path.
    A NaN equals nothing, so each NaN is a run of its own; every sort puts
    a row's NaNs last, and they are put in the order of their positions
    there, so they rank as a stable sort ranks them. Every caller passes
    finite rows."""
    k, n = x.shape
    at = np.argsort(x, axis=1)
    nan = np.isnan(x)
    if nan.any():  # each row's NaN tail, in row-major order as np.nonzero gives it
        at[np.arange(n) >= n - np.count_nonzero(nan, axis=1)[:, None]] = np.nonzero(nan)[1]
    at += np.arange(k)[:, None] * n  # positions in the flat stack
    ordered = x.ravel()[at]
    first = np.ones((k, n), dtype=bool)  # where a run of ties starts; each row starts one
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    del ordered  # a stack of rows holds several arrays of its size at once
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=k * n)
    rank = 0.5 * (counts + 1.0)
    rank += starts % n  # each run's rank
    out = np.empty(k * n)
    out[at.ravel()] = np.repeat(rank, counts)
    return out.reshape(k, n)


def centered_rows(x) -> np.ndarray:
    """A C-contiguous copy of x with each row (along the last axis) less its
    mean, as np.cov centers it: row sums / n of a C-contiguous block, which
    numpy reduces row by row exactly as it reduces each row alone. An
    F-ordered block would be summed column by column and round
    differently, so x is copied into C order first."""
    x = np.array(x, dtype=float, order="C")
    x -= (np.add.reduce(x, axis=-1) / x.shape[-1])[..., None]
    return x


# cells of one chunk: a ranked chunk holds about seven arrays of its size at
# once, which shows in a 60-asset panel's peak RSS; smaller chunks run slower
_CHUNK_CELLS = 8192


def pair_correlations(pairs: np.ndarray, where=True) -> np.ndarray:
    """np.corrcoef(x, y)[0, 1] bit for bit for each (x, y) item of a
    C-contiguous (items, 2, n) stack of centered rows (n >= 2), as the
    module docstring sets out; NaN for each item where `where` is False or
    a diagonal entry is 0, which is never divided. np.corrcoef divides by
    a zero diagonal too, with a warning: a row whose squares underflow
    reads +-1 or NaN there."""
    products = np.matmul(pairs, pairs.transpose(0, 2, 1))
    products *= 1 / (pairs.shape[2] - 1)
    where = where & (products[:, 0, 0] != 0) & (products[:, 1, 1] != 0)
    r = np.full(len(pairs), np.nan)
    np.divide(products[:, 0, 1], np.sqrt(products[:, 0, 0]), out=r, where=where)
    np.divide(r, np.sqrt(products[:, 1, 1]), out=r, where=where)
    return np.clip(r, -1.0, 1.0, out=r)


def stacked_correlations(
    blocks: Sequence[np.ndarray], pairs, ranked: bool = False, min_members: int = 2,
    last: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """The correlations over each date's members of columns i and j, for
    each (i, j) in pairs: one (dates, pairs) array, NaN where a pair is not
    computed. blocks[d] holds date d's members, one finite row each;
    last[d], when given, is one more column (an IC's forward returns), and
    a member whose entry there is not finite is left out. A date with fewer
    than min_members (>= 2) members computes nothing, nor does a pair with
    a constant column on the date (all its values equal, the rule of
    factors._standardized_rows) or, unranked, a column whose squares
    underflow to a zero diagonal entry, which np.corrcoef divides by.
    Ranked (Spearman's), a pair is the Pearson correlation of average
    ranks (>= 1, so no diagonal underflows), exactly +-1 when one ranking
    equals the other or its reverse."""
    keep = None if last is None else [np.isfinite(v) for v in last]
    by_size = {}  # the dates with each member count n, in order
    for d, block in enumerate(blocks):
        n = len(block) if keep is None else int(np.count_nonzero(keep[d]))
        if n >= min_members:
            by_size.setdefault(n, []).append(d)
    pairs = np.asarray(pairs).reshape(-1, 2)
    r = np.full((len(blocks), len(pairs)), np.nan)
    for n, dates in by_size.items():
        k = blocks[dates[0]].shape[1] + (keep is not None)
        step = max(1, _CHUNK_CELLS // (k * n))
        for s in range(0, len(dates), step):
            chunk = dates[s : s + step]
            stack = np.stack([blocks[d] if keep is None else np.column_stack((blocks[d], last[d]))[keep[d]]
                              for d in chunk])
            r[chunk] = _chunk_correlations(stack, pairs, ranked)
    return r


def _chunk_correlations(stack: np.ndarray, pairs: np.ndarray, ranked: bool) -> np.ndarray:
    """stacked_correlations of one (dates, n, k) stack of member rows."""
    c, n, k = stack.shape
    rows = stack.transpose(0, 2, 1)  # each date's k columns as rows
    x, y = pairs.T
    constant = (stack == stack[:, :1]).all(axis=1)  # equal values have equal ranks
    computed = ~(constant[:, x] | constant[:, y])
    if ranked:
        rows = average_ranks_rows(rows.reshape(c * k, n)).reshape(c, k, n)
        same = (rows[:, x] == rows[:, y]).all(axis=2)
        reverse = (rows[:, x] == n + 1.0 - rows[:, y]).all(axis=2)
    centered = centered_rows(rows)
    r = pair_correlations(centered[:, pairs].reshape(-1, 2, n), computed.reshape(-1)).reshape(c, len(pairs))
    if ranked:
        r = np.select([~computed, same, reverse], [np.nan, 1.0, -1.0], r)
    return r


def build_ic_series(
    panel: MarketPanel,
    schedule: RebalanceSchedule,
    factor_matrices: Mapping[str, FactorMatrix],
    params: CalibrationParams,
) -> dict[str, ICSeries]:
    """Per-factor IC time series over the rebalance dates with enough valid
    (z, forward return) pairs; invalid dates are skipped. Each factor's IC
    is the rank correlation, average ranks for ties, of its z column and the
    forward returns at each date: z is complete, so every factor pairs on
    the members with a forward return. Every date is
    ranked and correlated in one stacked_correlations call, and a date's IC
    reads nothing of any other date, so the series over a schedule cut at
    any date is a prefix of the whole one."""
    dated = [(t, factor_matrices[t]) for t in schedule.dates if t in factor_matrices]
    if not dated:
        return {}
    dates, matrices = zip(*dated)
    nf = len(FACTORS)
    fwd = [forward_returns(panel, t, params.horizon)[m.positions] for t, m in dated]
    ics = stacked_correlations([m.z for m in matrices], [(j, nf) for j in range(nf)], ranked=True,
                               min_members=max(params.min_universe, 3), last=fwd)
    valid = ~np.isnan(ics)
    return {f: ICSeries(dates=tuple(compress(dates, valid[:, j])), values=ics[valid[:, j], j])
            for j, f in enumerate(FACTORS)}


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
