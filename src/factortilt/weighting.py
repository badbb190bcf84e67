"""Portfolio weights: equal-weight baseline, bounded multiplicative factor
tilts with renormalization, and liquidity-capped projection onto the simplex
in closed form (one sort).

`tilted_block` weighs the (matrix, tilt) rows of one pool's books over a
walk block at once. The score stays one gemv `z @ alpha` per row, as in
composite_score (over 1,200 random cases a stacked gemm changed bits in
900, a stacked gemv in 4); the clip is elementwise, normalization takes
the row sums of a C-contiguous block (numpy sums each row as it sums it
alone), and the projection is a row kernel over the member rows of the
pools of one size. project_onto_caps and tilted_weights are the one-row
case. So is cap_values of member_caps, whose liquidity caps take one row
median per pool size (np.median(axis=1): the 1-d median's partition and
mean, row by row).

A book's `Targets` hold its rows as read-only blocks, checked at once by
the rule a `WeightVector` checks its one row by."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleCapsError, check_finite
from .factors import FACTORS, FactorMatrix

WEIGHT_SUM_TOL = 1e-9


def _default_alpha() -> dict[str, float]:
    return {f: 1.0 / len(FACTORS) for f in FACTORS}


@dataclass(frozen=True)
class TiltParams:
    """Convex factor mixture over exactly FACTORS, tilt strength, and multiplier bounds."""

    alpha: Mapping[str, float] = field(default_factory=_default_alpha)
    lam: float = 0.25
    m_min: float = 0.5
    m_max: float = 1.5

    def __post_init__(self):
        if set(self.alpha) != set(FACTORS):
            raise ConfigError(f"mixture factors {sorted(self.alpha)} do not match the factors {sorted(FACTORS)}")
        check_finite(**{f"alpha[{f}]": a for f, a in self.alpha.items()}, lam=self.lam, m_min=self.m_min,
                     m_max=self.m_max)
        if any(a < 0 for a in self.alpha.values()):
            raise ConfigError("mixture weights must be non-negative")
        total = sum(self.alpha.values())
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"mixture weights must sum to 1, got {total!r}")
        if self.lam < 0:
            raise ConfigError(f"tilt strength must be >= 0, got {self.lam}")
        if not (0 < self.m_min <= 1 <= self.m_max):
            raise ConfigError(f"need 0 < m_min <= 1 <= m_max, got [{self.m_min}, {self.m_max}]")


@dataclass(frozen=True)
class CapParams:
    """Liquidity-weighted cap parameters."""

    c_max: float = 0.10
    kappa: float = 0.05
    gamma: float = 0.5

    def __post_init__(self):
        check_finite(kappa=self.kappa)
        if not 0 < self.c_max <= 1:
            raise ConfigError(f"c_max must be in (0, 1], got {self.c_max}")
        if self.kappa <= 0:
            raise ConfigError(f"kappa must be > 0, got {self.kappa}")
        if not 0 <= self.gamma <= 1:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")


@dataclass(eq=False)  # == on numpy rows has no single truth value
class WeightVector:
    """Long-only, finite weights over the full asset list, zero outside the
    universe. Sums to 1 unless the universe was empty (then all zero).

    A tilted vector also carries the bounded multiplier applied to each
    asset (1 off the tilted universe) and, when capped, each asset's
    liquidity cap (NaN off the universe); both are None otherwise."""

    t: str
    assets: tuple[str, ...]
    w: np.ndarray
    multipliers: np.ndarray | None = None
    caps: np.ndarray | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        _check_rows(self.w[None], self.assets)


@dataclass(frozen=True, eq=False)  # == on numpy blocks has no single truth value
class Targets:
    """A book's targets at its rebalance dates: read-only, C-contiguous
    (dates x assets) blocks of a WeightVector's weights and, for a tilted
    book, multipliers and (when capped) caps, one checked row per date (a
    date with an empty pool holds weights 0, multipliers 1 and caps NaN;
    any other layout is copied, so evolve gathers rows in place). Iterating
    yields each row's WeightVector."""

    dates: tuple[str, ...]
    assets: tuple[str, ...]
    w: np.ndarray
    multipliers: np.ndarray | None = None
    caps: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "assets", tuple(self.assets))
        for name in ("w", "multipliers", "caps"):
            block = getattr(self, name)
            if block is not None:
                block = np.ascontiguousarray(block, dtype=float).view()  # read-only, whoever else holds the array
                block.flags.writeable = False
                object.__setattr__(self, name, block)
        _check_rows(self.w, self.assets)
        if len(self.w) != len(self.dates):
            raise ConfigError(f"{len(self.w)} weight rows for {len(self.dates)} rebalance dates")

    def __len__(self) -> int:
        return len(self.dates)

    def __iter__(self):
        for i, t in enumerate(self.dates):
            yield WeightVector(t, self.assets, *(None if b is None else b[i]
                                                 for b in (self.w, self.multipliers, self.caps)))

    def head(self, n: int) -> Targets:
        """The targets of the first n dates (these targets when that is all):
        slices of these blocks, whose rows were checked when they were built
        and so are not checked again."""
        if n == len(self):
            return self
        cut = copy.copy(self)  # a new instance without __post_init__
        for name in ("dates", "w", "multipliers", "caps"):
            block = getattr(self, name)
            object.__setattr__(cut, name, None if block is None else block[:n])
        return cut


def _check_rows(w: np.ndarray, assets) -> None:
    """Raise the ConfigError of the first row of the block w that is not a
    WeightVector's weights over `assets`: finite, non-negative, summing to 1
    within WEIGHT_SUM_TOL or to 0."""
    if w.ndim != 2 or w.shape[1] != len(assets):
        raise ConfigError("weight vector length does not match asset list")
    with np.errstate(invalid="ignore"):  # inf - inf, in a row that is not finite
        totals = np.add.reduce(w, axis=1)
    off = (totals != 0.0) & (abs(totals - 1.0) > WEIGHT_SUM_TOL)
    bad = np.flatnonzero(np.logical_or.reduce(~np.isfinite(w) | (w < 0), axis=1) | off)
    if bad.size:
        row, total = w[bad[0]], float(totals[bad[0]])
        if not np.isfinite(row).all():
            raise ConfigError("weights must be finite")
        if (row < 0).any():
            raise ConfigError("weights must be non-negative")
        raise ConfigError(f"weights must sum to 1 (or all zero), got {total!r}")


def composite_score(z: FactorMatrix, params: TiltParams) -> np.ndarray:
    """Convex combination of factor z-scores, one per row of z."""
    alpha = np.array([params.alpha[f] for f in FACTORS])
    return z.z @ alpha


def bounded_multiplier(z, params: TiltParams):
    """clip(1 + lambda * z, m_min, m_max): a float (np.float64) for a scalar
    z, an array for an array of scores."""
    return np.clip(1.0 + params.lam * np.asarray(z, dtype=float), params.m_min, params.m_max)


def _normalized_rows(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """w * m / sum(w * m) for each row of the (r, n) blocks of baseline
    weights w and multipliers m, in place of w. A row whose multipliers on
    the support of w are all equal keeps w: the normalization cancels
    algebraically, and keeping w keeps the zero-tilt degeneracy exact in
    floating point."""
    support = w > 0
    first = np.take_along_axis(m, support.argmax(axis=1)[:, None], axis=1)
    flat = np.logical_and.reduce((m == first) | ~support, axis=1)  # also a row without support
    raw = w * m
    denom = np.add.reduce(raw, axis=1)
    if np.logical_or.reduce(~flat & (denom <= 0)):
        raise ConfigError("tilted weights sum to a non-positive value")
    return np.divide(raw, denom[:, None], out=w, where=~flat[:, None])


def cap_values(adv: np.ndarray, params: CapParams) -> np.ndarray:
    """Per-member cap min(c_max, kappa * (ADV_i / median ADV)^gamma, 1) for
    the members' ADV array.

    The median over an even count is the mean of the two central order
    statistics. A zero median (all-zero ADV) falls back to a ratio of 1.
    The one-row case of member_caps.
    """
    return member_caps([adv], params)[0]


def member_caps(advs: Sequence[np.ndarray], params: CapParams) -> list[np.ndarray]:
    """cap_values of each of the pools' member ADV arrays, one row kernel
    over the arrays of each size (a row's median is the 1-d median's
    partition and mean, so every row has the bits of its pool alone)."""
    sizes = np.array([len(adv) for adv in advs])
    caps = [None] * len(advs)
    for k in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == k).tolist()
        adv = np.array([advs[i] for i in at], dtype=float)
        if not np.all(np.isfinite(adv)):
            raise ConfigError("missing ADV for a universe member")
        med = np.median(adv, axis=1, keepdims=True)
        ratio = np.divide(adv, med, out=np.ones_like(adv), where=med > 0)
        rows = np.minimum(np.minimum(params.c_max, params.kappa * ratio**params.gamma), 1.0)
        for i, row in zip(at, rows):
            caps[i] = row
    return caps


def project_onto_caps(w: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """The members' weights w projected onto their caps c (caps above 1
    count as 1): min(c_i, s * w_i), with s the one scale at which the
    result sums to 1, so members that never bind keep their proportions.

    The members that bind are those with the smallest c_i / w_i, a prefix
    of that order. The first member k with s_k * w_k <= c_k, where
    s_k = (1 - sum(c[:k])) / sum(w[k:]), ends the prefix: capped members
    get exactly c_i and the rest s_k * w_i. When nothing breaches, w is
    returned unchanged (as a copy).

    Raises InfeasibleCapsError when the caps of the members that hold
    weight sum to less than 1 - WEIGHT_SUM_TOL, the tolerance of a
    WeightVector's sum."""
    out, errors = _projected_rows(np.array(w, dtype=float, ndmin=2), np.atleast_2d(caps))
    if errors:
        raise errors[0]
    return out[0]


def _projected_rows(w: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
    """project_onto_caps of each row of the (r, k) blocks w and caps, in
    place of w, and the error of each failing row (left as it was)."""
    c = np.minimum(caps, 1.0)
    total, held, room = np.add.reduce(w, axis=1), w > 0, np.add.reduce(c, axis=1)
    for i in np.flatnonzero(~np.logical_and.reduce(held, axis=1)):
        room[i] = c[i, held[i]].sum()  # the caps of the members that hold weight, summed on their own
    failed = np.logical_or.reduce(c < 0, axis=1) | (abs(total - 1.0) > WEIGHT_SUM_TOL) | (room < 1 - WEIGHT_SUM_TOL)
    errors = {i: ConfigError("caps must be non-negative") if (c[i] < 0).any() else ConfigError(
        f"projection input must sum to 1, got {float(total[i])!r}") if abs(total[i] - 1.0) > WEIGHT_SUM_TOL
        else InfeasibleCapsError(
            f"caps of the members that hold weight sum to {float(room[i])!r} < 1; no feasible capped allocation")
        for i in np.flatnonzero(failed).tolist()}
    todo = np.flatnonzero(np.logical_or.reduce(w > c, axis=1) & ~failed)
    if not todo.size:
        return w, errors
    wt, c, held = w[todo], c[todo], held[todo]
    order = np.divide(c, wt, out=np.zeros(wt.shape), where=held).argsort(axis=1, kind="stable")
    if not held.all():  # the members that hold no weight go last
        order = np.take_along_axis(order, (~np.take_along_axis(held, order, 1)).argsort(axis=1, kind="stable"), 1)
    wo, co = np.take_along_axis(wt, order, 1), np.take_along_axis(c, order, 1)
    n_held = np.add.reduce(held, axis=1)[:, None]
    live = np.arange(wt.shape[1]) < n_held
    capped_mass = np.zeros(wt.shape)
    np.cumsum(co[:, :-1], axis=1, out=capped_mass[:, 1:])  # sum(c[:k])
    rest = np.cumsum(np.where(live, wo, 0.0)[:, ::-1], axis=1)[:, ::-1]  # sum(w[k:])
    s = np.divide(1.0 - capped_mass, rest, out=np.zeros(wt.shape), where=live)
    fits = (s * wo <= co) & live
    # none fits when the caps sum to 1 within WEIGHT_SUM_TOL: every member binds
    k = np.where(np.logical_or.reduce(fits, axis=1)[:, None], fits.argmax(axis=1)[:, None], n_held)
    scaled = np.take_along_axis(s, np.minimum(k, wt.shape[1] - 1), 1) * wo
    np.put_along_axis(wt, order, np.where(np.arange(wt.shape[1]) < k, co, np.where(live, scaled, wo)), 1)
    w[todo] = wt
    return w, errors


def tilted_weights(factor_matrix: FactorMatrix, tilt: TiltParams, caps: np.ndarray | None = None) -> WeightVector:
    """Weights at the matrix's date over its panel's assets: the equal-weight
    baseline on the members at its positions, times the bounded multipliers
    of their composite score, normalized, then (when given) projected onto
    the members' caps `caps`, in row order (see cap_values). Carries the
    multipliers and, when capped, the caps."""
    w, mult, cap_rows = tilted_block([factor_matrix], [tilt], None if caps is None else [caps])
    return WeightVector(t=factor_matrix.t, assets=tuple(factor_matrix.panel_assets), w=w[0], multipliers=mult[0],
                        caps=None if cap_rows is None else cap_rows[0])


def tilted_block(matrices: Sequence[FactorMatrix], tilts: Sequence[TiltParams],
                 caps: Sequence[np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The weights and multipliers of tilted_weights(matrix, tilt, matrix's
    caps) for each of the matrices, over one panel's assets, and within each
    for each of the tilts, as the rows of two blocks in that order, and (when
    `caps` gives each matrix's member caps) the caps, one row per matrix.
    Raises the error of the first of those (matrix, tilt) rows that has one."""
    n_tilts, n = len(tilts), len(matrices[0].panel_assets)
    sizes = np.array([len(m.positions) for m in matrices])
    owner, members = np.repeat(np.arange(len(matrices)), sizes), np.concatenate([m.positions for m in matrices])
    member_rows = owner[:, None] * n_tilts + np.arange(n_tilts)  # each member's row under each tilt
    w = np.zeros((len(matrices) * n_tilts, n))  # the equal-weight baselines, normalized in place
    w[member_rows, members[:, None]] = np.repeat(1.0 / sizes, sizes)[:, None]
    mult = np.ones_like(w)
    for j, tilt in enumerate(tilts):
        scores = np.concatenate([composite_score(m, tilt) for m in matrices])
        mult[member_rows[:, j], members] = bounded_multiplier(scores, tilt)
    _normalized_rows(w, mult)
    errors, cap_rows = {}, None
    if caps is not None:
        cap_rows = np.full((len(matrices), n), np.nan)
        cap_rows[owner, members] = np.concatenate(caps)
        for k in np.unique(sizes).tolist():  # the member rows of the pools of k members
            at = np.flatnonzero(sizes == k)
            rows = (at[:, None] * n_tilts + np.arange(n_tilts)).reshape(-1, 1)
            cols = np.repeat([matrices[i].positions for i in at], n_tilts, axis=0)
            w[rows, cols], failed = _projected_rows(w[rows, cols], np.repeat([caps[i] for i in at], n_tilts, axis=0))
            errors.update((int(rows[i, 0]), e) for i, e in failed.items())
    if errors:
        raise errors[min(errors)]
    return w, mult, cap_rows
