"""Portfolio weights: equal-weight baseline, bounded multiplicative factor
tilts with renormalization, and liquidity-capped projection onto the simplex
in closed form (one sort).

Each stage is an array kernel over member positions (normalize_tilt,
cap_values, project_onto_caps), and tilted_weights composes them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError, InfeasibleCapsError, check_finite
from .factors import FACTORS, FactorMatrix

WEIGHT_SUM_TOL = 1e-9


def _default_alpha() -> dict[str, float]:
    return {f: 1.0 / len(FACTORS) for f in FACTORS}


@dataclass(frozen=True)
class TiltParams:
    """Convex factor mixture, tilt strength, and multiplier bounds."""

    alpha: Mapping[str, float] = field(default_factory=_default_alpha)
    lam: float = 0.25
    m_min: float = 0.5
    m_max: float = 1.5

    def __post_init__(self):
        check_finite(**{f"alpha[{f}]": a for f, a in self.alpha.items()}, lam=self.lam)
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
    epsilon: float = 1e-12

    def __post_init__(self):
        check_finite(kappa=self.kappa, epsilon=self.epsilon)
        if not 0 < self.c_max <= 1:
            raise ConfigError(f"c_max must be in (0, 1], got {self.c_max}")
        if self.kappa <= 0:
            raise ConfigError(f"kappa must be > 0, got {self.kappa}")
        if not 0 <= self.gamma <= 1:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")


@dataclass
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
        if self.w.shape != (len(self.assets),):
            raise ConfigError("weight vector length does not match asset list")
        if not np.isfinite(self.w).all():
            raise ConfigError("weights must be finite")
        if np.any(self.w < 0):
            raise ConfigError("weights must be non-negative")
        total = float(self.w.sum())
        if total != 0.0 and abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"weights must sum to 1 (or all zero), got {total!r}")


def composite_score(z: FactorMatrix, params: TiltParams) -> np.ndarray:
    """Convex combination of factor z-scores, ordered like z.assets."""
    if set(params.alpha) != set(z.factors):
        raise ConfigError(
            f"mixture factors {sorted(params.alpha)} do not match matrix factors {sorted(z.factors)}"
        )
    alpha = np.array([params.alpha[f] for f in z.factors])
    return z.z @ alpha


def bounded_multiplier(z, params: TiltParams):
    """clip(1 + lambda * z, m_min, m_max): a float for a scalar z, an array
    for an array of scores."""
    m = np.clip(1.0 + params.lam * np.asarray(z, dtype=float), params.m_min, params.m_max)
    return float(m) if m.ndim == 0 else m


def normalize_tilt(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """w * m / sum(w * m) for baseline weights w and multipliers m.

    When every multiplier on the support of w is identical the normalization
    cancels algebraically, so a copy of w is returned (this keeps the
    zero-tilt degeneracy exact in floating point)."""
    support = w > 0
    if not support.any():
        return w.copy()
    m_support = m[support]
    if np.all(m_support == m_support[0]):
        return w.copy()
    raw = w * m
    denom = float(raw.sum())
    if denom <= 0:
        raise ConfigError("tilted weights sum to a non-positive value")
    return raw / denom


def cap_values(adv: np.ndarray, params: CapParams) -> np.ndarray:
    """Per-member cap min(c_max, kappa * (ADV_i / median ADV)^gamma, 1) for
    the members' ADV array.

    The median over an even count is the mean of the two central order
    statistics. A zero median (all-zero ADV) falls back to a ratio of 1.
    """
    if not np.all(np.isfinite(adv)):
        raise ConfigError("missing ADV for a universe member")
    med = float(np.median(adv))
    ratio = adv / med if med > 0 else np.ones_like(adv)
    caps = np.minimum(params.c_max, params.kappa * ratio**params.gamma)
    return np.minimum(caps, 1.0)


def project_onto_caps(w: np.ndarray, caps: np.ndarray, params: CapParams) -> np.ndarray:
    """The members' weights w projected onto their caps c (caps above 1
    count as 1): min(c_i, s * w_i), with s the one scale at which the
    result sums to 1, so members that never bind keep their proportions.

    The members that bind are those with the smallest c_i / w_i, a prefix
    of that order. The first member k with s_k * w_k <= c_k, where
    s_k = (1 - sum(c[:k])) / sum(w[k:]), ends the prefix: capped members
    get exactly c_i and the rest s_k * w_i. When nothing breaches, w is
    returned unchanged (as a copy).

    Raises InfeasibleCapsError when the caps of the members that hold
    weight sum to less than 1 - epsilon."""
    w = np.array(w, dtype=float)
    c = np.minimum(caps, 1.0)
    if np.any(c < 0):
        raise ConfigError("caps must be non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"projection input must sum to 1, got {total!r}")
    held = np.flatnonzero(w > 0)
    room = float(c[held].sum())
    if room < 1.0 - params.epsilon:
        raise InfeasibleCapsError(
            f"caps of the members that hold weight sum to {room!r} < 1; no feasible capped allocation"
        )
    if not (w > c).any():
        return w
    order = held[(c[held] / w[held]).argsort(kind="stable")]
    wo, co = w[order], c[order]
    capped_mass = np.zeros(len(order))
    co[:-1].cumsum(out=capped_mass[1:])  # sum(c[:k])
    s = (1.0 - capped_mass) / wo[::-1].cumsum()[::-1]
    fits = s * wo <= co
    # none fits when the caps sum to 1 within epsilon: every member binds
    k = int(fits.argmax()) if fits.any() else len(order)
    w[order[:k]] = co[:k]
    if k < len(order):
        w[order[k:]] = s[k] * wo[k:]
    return w


def tilted_weights(
    t: str,
    assets: tuple[str, ...],
    positions: np.ndarray,
    factor_matrix: FactorMatrix,
    adv: np.ndarray | None,
    tilt: TiltParams,
    caps: CapParams | None,
) -> WeightVector:
    """Weights at t over `assets` for the members at `positions`, whose
    factor rows `factor_matrix` holds in the same order: the equal-weight
    baseline times the bounded multipliers of the composite score,
    normalized, then (when caps is given) projected onto the caps of the
    members' ADV array `adv`. Carries the multipliers and, when capped, the
    caps."""
    if factor_matrix is None or factor_matrix.assets != tuple(map(assets.__getitem__, positions.tolist())):
        raise ConfigError("a non-empty universe needs a factor matrix over its members")
    n = len(assets)
    baseline = np.zeros(n)
    baseline[positions] = 1.0 / len(positions)
    multipliers = np.ones(n)
    multipliers[positions] = bounded_multiplier(composite_score(factor_matrix, tilt), tilt)
    w = normalize_tilt(baseline, multipliers)
    cap_row = None
    if caps is not None:
        c = cap_values(adv, caps)
        projected = project_onto_caps(w[positions], c, caps)
        w = np.zeros(n)
        w[positions] = projected
        cap_row = np.full(n, np.nan)
        cap_row[positions] = c
    return WeightVector(t=t, assets=assets, w=w, multipliers=multipliers, caps=cap_row)
