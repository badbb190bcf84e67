"""Cross-sectional factor signals: momentum, value (book-to-market), and a
profitability/balance-sheet quality composite, plus winsorization and
z-score standardization.

Conventions: signal offsets are in trading days; standard deviations are
population (divide by N); missing raw signals map to neutral z = 0.

`select_factor_matrices` builds the matrices of many dates at once. Each
(column, date) pair is one segment of a flat array, and the segments with
the same number n of finite entries form one (r, n) C-contiguous block:
the winsor bounds come from one row-wise partition of it, the mean and sd
from its row sums. numpy reduces each row of such a block exactly as it
reduces that row alone (the rule `market_data._average_dollar_volumes`
relies on too), so every row gets the bits of the one-dimensional call,
and a date's matrix does not depend on the dates beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .eligibility import EligibilitySet
from .errors import ConfigError
from .market_data import AsOf, MarketPanel, check_skip

FACTORS = ("MOM", "VAL", "QUAL")


@dataclass(frozen=True)
class FactorParams:
    l_mom: int = 252
    skip: int = 21
    l_fund: int = 400  # staleness limit, calendar days
    winsor_p: float = 0.01
    winsorize_quality_components: bool = False

    def __post_init__(self):
        if self.l_mom < 1:
            raise ConfigError(f"l_mom must be >= 1, got {self.l_mom}")
        check_skip(self.skip)
        if self.l_fund < 1:
            raise ConfigError(f"l_fund must be >= 1, got {self.l_fund}")
        if not 0 <= self.winsor_p < 0.5:
            raise ConfigError(f"winsor_p must be in [0, 0.5), got {self.winsor_p}")


@dataclass(frozen=True, eq=False)  # == on numpy arrays has no single truth value
class FactorMatrix:
    """Per-rebalance raw and standardized signals over the eligible universe.

    Row i is the member at panel position positions[i], whose name is
    panel_assets[positions[i]]; the member names, `assets`, are built when
    first read. raw[:, j] holds the factor FACTORS[j], NaN for missing; z has
    the same shape and is complete (neutral zeros where raw is missing)."""

    t: str
    positions: np.ndarray
    panel_assets: Sequence[str] = field(repr=False)
    raw: np.ndarray
    z: np.ndarray

    @cached_property
    def assets(self) -> tuple[str, ...]:
        return tuple(map(self.panel_assets.__getitem__, self.positions.tolist()))


def _zscores(values: np.ndarray, lengths: list[int], p: float) -> np.ndarray:
    """Each segment of `values` (the consecutive runs of `lengths`)
    winsorized at p (unless p is 0) and z-scored over its finite entries,
    0 at the others."""
    # a winsorized row is standardized as it stands: a bound that overflows
    # clamps nothing (a lower -inf, an upper +inf) or sets its whole row to
    # one value, and a row of one value standardizes to zeros, finite (a
    # constant row) or not (as a row with no finite entry does)
    kernel = (lambda x: _standardized_rows(_winsorized_rows(x, p))) if p else _standardized_rows
    return _by_group(values, lengths, kernel, np.zeros(len(values)))


def _by_group(values: np.ndarray, lengths: list[int], kernel, out: np.ndarray) -> np.ndarray:
    """`out` with the finite entries of each segment of `values` (the
    consecutive runs of `lengths`) replaced by the row kernel's result on
    them, one (r, n) block per _finite_groups group."""
    for r, n, at in _finite_groups(values, lengths):
        out[at] = kernel(values[at].reshape(r, n)).reshape(-1)
    return out


def _finite_groups(values: np.ndarray, lengths: list[int]) -> list[tuple[int, int, slice | np.ndarray]]:
    """The finite entries of the segments of `values` (consecutive runs of
    `lengths`) grouped by their count per segment: (r, n, at) for each
    count n > 0, n ascending, where values[at] is the r segments with n
    finite entries, n entries per segment, the segments in order. A group
    of segments side by side is read from a slice, any other from its
    segments' positions joined."""
    # the slice and all-finite cases save about 2 ms (2-3%) of a scenario M library step
    finite = np.isfinite(values)
    where = None if finite.all() else np.flatnonzero(finite)
    ends = [0, *accumulate(lengths)]
    if where is not None:
        ends = np.searchsorted(where, ends).tolist()  # of each segment's finite entries among all
    segments = {}
    for i, (a, b) in enumerate(zip(ends, ends[1:])):
        if b > a:
            segments.setdefault(b - a, []).append(i)
    groups = []
    for n, segs in sorted(segments.items()):
        if segs[-1] - segs[0] + 1 == len(segs):
            at = slice(ends[segs[0]], ends[segs[-1] + 1])
            at = at if where is None else where[at]
        else:
            every = np.arange(len(values)) if where is None else where
            at = np.concatenate([every[ends[i] : ends[i + 1]] for i in segs])
        groups.append((len(segs), n, at))
    return groups


def _winsorized_rows(x: np.ndarray, p: float) -> np.ndarray:
    """Each row of x clamped to np.quantile(row, [p, 1 - p]), bit for bit,
    without its per-call cost: numpy's linear rule (virtual index (n-1)*q,
    the top value interpolated with itself from n-1 on, the two-sided
    interpolation) read from the partition numpy makes, whose placement of
    tied 0.0 and -0.0 a full sort would not reproduce."""
    n = x.shape[1]
    picks = []
    for q in (p, 1.0 - p):
        v = (n - 1) * q
        i = math.floor(v)
        picks.append((-1, -1, v + 1.0) if v >= n - 1 else (i, i + 1, v - i))
    parted = x.copy()
    parted.partition(sorted({0, -1, *(k for below, above, _ in picks for k in (below, above))}), axis=1)
    bounds = []
    for below, above, g in picks:
        a, b = parted[:, below], parted[:, above]
        d = b - a
        bounds.append((b - d * (1.0 - g) if g >= 0.5 else a + d * g)[:, None])
    lo, hi = bounds
    return np.minimum(hi, np.maximum(lo, x))  # keeps x where it ties a bound, as np.clip does


def _standardized_rows(x: np.ndarray) -> np.ndarray:
    """Each row's z-scores with population moments, zeros for an exactly
    constant row (not just sigma ~ 0) or a zero spread. The moments are row
    sums / n, np.mean's own pairwise sum and division."""
    n = x.shape[1]
    dev = x - (np.add.reduce(x, axis=1) / n)[:, None]
    sigma = np.sqrt(np.add.reduce(dev**2, axis=1) / n)[:, None]
    varied = (sigma > 0) & ~np.logical_and.reduce(x == x[:, :1], axis=1, keepdims=True)
    return np.divide(dev, sigma, out=np.zeros(x.shape), where=varied)


def select_factor_matrices(
    snapshots: Sequence[AsOf], positions: Sequence[np.ndarray], params: FactorParams
) -> list[FactorMatrix]:
    """build_factor_matrix at each snapshot's date, over the universe whose
    members are the panel assets at the matching `positions`, in that
    order: every date's columns are segments of two kernel calls, one for
    the quality components and one for the raw columns."""
    for snap, pos in zip(snapshots, positions, strict=True):
        if not len(pos):
            raise ConfigError(f"cannot build factor matrix for empty universe at {snap.t}")
    if not snapshots:
        return []
    lengths = [len(pos) for pos in positions] * 3  # one segment per (column, date)
    # momentum, value and the quality components, one column per member, the dates side by side
    rows = np.concatenate([np.array((s.momentum, s.value, s.roe, s.gross_margin, s.debt_to_assets))[:, pos]
                           for s, pos in zip(snapshots, positions)], axis=1)
    components = rows[2:]
    np.negative(components[2], out=components[2])
    components_p = params.winsor_p if params.winsorize_quality_components else 0.0
    z_parts = _zscores(components.reshape(-1), lengths, components_p).reshape(3, -1)
    have_all = np.isfinite(components[0]) & np.isfinite(components[1]) & np.isfinite(components[2])
    rows[2] = np.where(have_all, z_parts[0] + z_parts[1] + z_parts[2], np.nan)
    raw = rows[:3]
    z = _zscores(raw.reshape(-1), lengths, params.winsor_p).reshape(3, -1)
    # one tuple of each panel's asset names, shared by its matrices and the weight vectors built from them
    names = {id(s.panel): tuple(s.panel.assets) for s in snapshots}
    out, at = [], 0
    for snap, pos in zip(snapshots, positions):
        cols = slice(at, at + len(pos))
        at += len(pos)
        out.append(FactorMatrix(t=snap.t, positions=pos, panel_assets=names[id(snap.panel)],
                                raw=raw[:, cols].T.copy(), z=z[:, cols].T.copy()))
    return out


def stored_matrices(
    panel: MarketPanel,
    dates: Sequence[str],
    positions: Sequence[np.ndarray],
    params: FactorParams,
    snapshots: Sequence[AsOf] | None = None,
) -> list[FactorMatrix]:
    """select_factor_matrices' matrix at each date over the members at the
    matching positions, from the panel's store (MarketPanel.factor_matrices),
    keyed by the date, the windows (l_mom, skip, l_fund), the member
    positions as intp bytes and the winsor settings. The keys not stored
    yet are built in one select_factor_matrices call, from the matching
    `snapshots` when given (each of this panel and date under params'
    windows, else ConfigError) or from new ones, and stored read-only (raw,
    z and positions); every later request gets that same object. Two
    threads asking at once may both build a matrix, but both get the one
    stored."""
    windows = (params.l_mom, params.skip, params.l_fund)
    if snapshots is not None:
        for t, snap in zip(dates, snapshots, strict=True):
            if snap.panel is not panel or snap.t != t or snap.windows[1:] != windows:
                raise ConfigError(f"the snapshot given for {t} is not AsOf(panel, {t}) of this panel under the "
                                  f"factor windows (l_mom, skip, l_fund) = {windows}")
    members = [np.asarray(pos, dtype=np.intp).tobytes() for pos in positions]
    keys = [(t, *windows, m, params.winsor_p, params.winsorize_quality_components)
            for t, m in zip(dates, members, strict=True)]
    store = panel.factor_matrices
    todo = {key: i for i, key in enumerate(keys) if key not in store}  # each missing key once
    if todo:
        snaps = [AsOf(panel, dates[i], l_mom=params.l_mom, skip=params.skip, l_fund=params.l_fund)
                 if snapshots is None else snapshots[i] for i in todo.values()]
        # read-only views of bytes that no other stored matrix holds
        pos = [np.frombuffer(members[i], dtype=np.intp) for i in todo.values()]
        for key, matrix in zip(todo, select_factor_matrices(snaps, pos, params)):
            matrix.raw.flags.writeable = matrix.z.flags.writeable = False
            store.setdefault(key, matrix)
    return [store[key] for key in keys]


def build_factor_matrix(
    panel: MarketPanel, universe: EligibilitySet, t: str, params: FactorParams
) -> FactorMatrix:
    """Raw signals per factor over the universe, each factor column then
    winsorized and z-scored on its own: the panel's stored
    matrix (see stored_matrices), built with its snapshot on the first
    request."""
    return stored_matrices(panel, [t], [panel.positions(universe.members)], params)[0]
