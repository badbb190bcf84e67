"""Portfolio weights: equal-weight baseline, bounded multiplicative factor
tilts with renormalization, and liquidity-capped projection onto the simplex
via iterative cap-and-redistribute."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .eligibility import EligibilitySet
from .errors import ConfigError, InfeasibleCapsError, ProjectionError
from .factors import FACTORS, FactorMatrix
from .market_data import MarketPanel

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
    """Liquidity-weighted cap parameters. max_iterations None means
    10 * universe size."""

    c_max: float = 0.10
    kappa: float = 0.05
    gamma: float = 0.5
    epsilon: float = 1e-12
    max_iterations: int | None = None

    def __post_init__(self):
        if not 0 < self.c_max <= 1:
            raise ConfigError(f"c_max must be in (0, 1], got {self.c_max}")
        if self.kappa <= 0:
            raise ConfigError(f"kappa must be > 0, got {self.kappa}")
        if not 0 <= self.gamma <= 1:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1 when given")


@dataclass
class WeightVector:
    """Long-only weights over the full asset list, zero outside the universe.
    Sums to 1 unless the universe was empty (then all zero).

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
        if np.any(self.w < 0):
            raise ConfigError("weights must be non-negative")
        total = float(self.w.sum())
        if total != 0.0 and abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"weights must sum to 1 (or all zero), got {total!r}")

    def as_dict(self, include_zero: bool = False) -> dict[str, float]:
        return {a: float(x) for a, x in zip(self.assets, self.w) if include_zero or x != 0.0}

    def copy(self) -> "WeightVector":
        return WeightVector(t=self.t, assets=self.assets, w=self.w.copy())


def _positions(assets, names) -> np.ndarray:
    index = {a: i for i, a in enumerate(assets)}
    return np.fromiter(map(index.__getitem__, names), dtype=np.intp, count=len(names))


def equal_weight_baseline(universe: EligibilitySet) -> WeightVector:
    """1/n for each member, zero otherwise; all-zero when the universe is empty."""
    assets = universe.assets or universe.members
    w = np.zeros(len(assets))
    if universe.members:
        w[_positions(assets, universe.members)] = 1.0 / len(universe.members)
    return WeightVector(t=universe.t, assets=tuple(assets), w=w)


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


def tilt_and_normalize(baseline: WeightVector, multipliers: Mapping[str, float]) -> WeightVector:
    """w_i = w_i^base * m_i / sum_j w_j^base * m_j over the baseline support.

    When every multiplier on the support is identical the normalization
    cancels algebraically, so the baseline is returned unchanged (this keeps
    the zero-tilt degeneracy exact in floating point).
    """
    w = baseline.w
    support = w > 0
    if not support.any():
        return baseline.copy()
    m = np.ones(len(w))
    m[_positions(baseline.assets, multipliers)] = list(multipliers.values())
    m_support = m[support]
    if np.all(m_support == m_support[0]):
        return baseline.copy()
    raw = w * m
    denom = float(raw.sum())
    if denom <= 0:
        raise ProjectionError("tilted weights sum to a non-positive value")
    return WeightVector(t=baseline.t, assets=baseline.assets, w=raw / denom)


def liquidity_caps(
    universe: EligibilitySet, adv: Mapping[str, float], params: CapParams
) -> dict[str, float]:
    """Per-member cap min(c_max, kappa * (ADV_i / median ADV)^gamma), capped at 1.

    The median over an even-sized universe is the mean of the two central
    order statistics. A zero median (all-zero ADV) falls back to a ratio of 1.
    """
    if not universe.members:
        raise ConfigError("cannot build caps for an empty universe")
    advs = np.fromiter(map(adv.__getitem__, universe.members), dtype=float, count=len(universe.members))
    if not np.all(np.isfinite(advs)):
        raise ConfigError("missing ADV for a universe member")
    med = float(np.median(advs))
    ratio = advs / med if med > 0 else np.ones_like(advs)
    caps = np.minimum(params.c_max, params.kappa * ratio**params.gamma)
    caps = np.minimum(caps, 1.0)
    return dict(zip(universe.members, caps.tolist()))


def cap_and_redistribute(
    raw: WeightVector, caps: Mapping[str, float], params: CapParams
) -> WeightVector:
    """Iterative projection: cap the breaching set, redistribute the excess
    proportionally over the free set, repeat until nothing new breaches or
    the excess falls below epsilon.

    Assets once capped stay capped for the rest of the call (the breaching
    set is cumulative), so each pass retires at least one asset and the loop
    terminates within universe-size passes. Relative proportions of
    never-capped assets are preserved.

    Raises InfeasibleCapsError up front when sum(min(c_i, 1)) < 1 - epsilon,
    and ProjectionError if the loop fails to settle (unreachable for feasible
    caps with positive weights)."""
    idx = _positions(raw.assets, caps)
    w = raw.w[idx]
    c = np.minimum(np.fromiter(caps.values(), dtype=float, count=len(caps)), 1.0)
    if np.any(c < 0):
        raise ConfigError("caps must be non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"projection input must sum to 1, got {total!r}")
    if float(c.sum()) < 1.0 - params.epsilon:
        raise InfeasibleCapsError(
            f"caps sum to {float(c.sum())!r} < 1; no feasible capped allocation"
        )
    max_iter = params.max_iterations if params.max_iterations is not None else max(10 * len(w), 10)
    capped = np.zeros(len(w), dtype=bool)
    for _ in range(max_iter):
        breach = ~capped & (w > c)
        if not breach.any():
            break
        excess = float((w[breach] - c[breach]).sum())
        w[breach] = c[breach]
        capped |= breach
        free = ~capped
        free_mass = float(w[free].sum())
        if free_mass <= 0:
            # feasibility guarantees the residual excess is below tolerance
            if excess <= params.epsilon:
                break
            raise ProjectionError("no free mass to absorb the excess weight")
        w[free] += excess * w[free] / free_mass
        if excess < params.epsilon:
            break
    else:
        raise ProjectionError(f"projection did not settle within {max_iter} iterations")
    out = np.zeros(len(raw.assets))
    out[idx] = w
    return WeightVector(t=raw.t, assets=raw.assets, w=out)


def build_weights(
    panel: MarketPanel,
    universe: EligibilitySet,
    factor_matrix: FactorMatrix | None,
    tilt: TiltParams,
    caps: CapParams | None,
    t: str,
) -> WeightVector:
    """Full weighting pipeline for one rebalance date: equal-weight baseline,
    composite score, bounded multipliers, normalization, then the optional
    liquidity-cap projection. Empty universes yield the all-zero vector."""
    baseline = equal_weight_baseline(universe)
    if not universe.members:
        return baseline
    if factor_matrix is None:
        raise ConfigError("factor matrix required for a non-empty universe")
    positions = _positions(baseline.assets, factor_matrix.assets)
    mults = bounded_multiplier(composite_score(factor_matrix, tilt), tilt)
    weights = tilt_and_normalize(baseline, dict(zip(factor_matrix.assets, mults)))
    if caps is not None:
        adv = {a: universe.screen_values[a].adv for a in universe.members}
        cap_map = liquidity_caps(universe, adv, caps)
        weights = cap_and_redistribute(weights, cap_map, caps)
        weights.caps = np.full(len(baseline.assets), np.nan)
        weights.caps[positions] = [cap_map[a] for a in factor_matrix.assets]
    weights.multipliers = np.ones(len(baseline.assets))
    weights.multipliers[positions] = mults
    return weights
