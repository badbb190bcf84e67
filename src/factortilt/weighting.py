"""Portfolio weights: equal-weight baseline, bounded multiplicative factor
tilts with renormalization, and liquidity-capped projection onto the simplex
via iterative cap-and-redistribute.

Each stage is an array kernel over member positions (normalize_tilt,
cap_values, project_onto_caps, composed by tilted_weights); the functions
keyed by asset id (tilt_and_normalize, liquidity_caps, cap_and_redistribute,
build_weights) adapt them to EligibilitySet and Mapping arguments."""

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
        raise ProjectionError("tilted weights sum to a non-positive value")
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
    """Iterative projection of the members' weights w onto their caps: cap
    the breaching set, redistribute the excess proportionally over the free
    set, repeat until nothing new breaches or the excess falls below epsilon.

    Members once capped stay capped for the rest of the call (the breaching
    set is cumulative), so each pass retires at least one member and the
    loop terminates within member-count passes. Relative proportions of
    never-capped members are preserved. Caps above 1 count as 1.

    Raises InfeasibleCapsError up front when sum(min(c_i, 1)) < 1 - epsilon,
    and ProjectionError if the loop fails to settle (unreachable for feasible
    caps with positive weights)."""
    w = np.array(w, dtype=float)
    c = np.minimum(caps, 1.0)
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


def tilt_and_normalize(baseline: WeightVector, multipliers: Mapping[str, float]) -> WeightVector:
    """w_i = w_i^base * m_i / sum_j w_j^base * m_j over the baseline support,
    with multipliers keyed by asset (1 for an asset not given); see
    normalize_tilt."""
    m = np.ones(len(baseline.w))
    m[_positions(baseline.assets, multipliers)] = list(multipliers.values())
    return WeightVector(t=baseline.t, assets=baseline.assets, w=normalize_tilt(baseline.w, m))


def liquidity_caps(
    universe: EligibilitySet, adv: Mapping[str, float], params: CapParams
) -> dict[str, float]:
    """cap_values for the universe's members, with ADV keyed by asset."""
    if not universe.members:
        raise ConfigError("cannot build caps for an empty universe")
    advs = np.fromiter(map(adv.__getitem__, universe.members), dtype=float, count=len(universe.members))
    return dict(zip(universe.members, cap_values(advs, params).tolist()))


def cap_and_redistribute(
    raw: WeightVector, caps: Mapping[str, float], params: CapParams
) -> WeightVector:
    """project_onto_caps for the assets given caps, keyed by asset; every
    other asset ends at zero."""
    idx = _positions(raw.assets, caps)
    out = np.zeros(len(raw.assets))
    out[idx] = project_onto_caps(raw.w[idx], np.fromiter(caps.values(), dtype=float, count=len(caps)), params)
    return WeightVector(t=raw.t, assets=raw.assets, w=out)


def build_weights(
    panel: MarketPanel,
    universe: EligibilitySet,
    factor_matrix: FactorMatrix | None,
    tilt: TiltParams,
    caps: CapParams | None,
    t: str,
) -> WeightVector:
    """tilted_weights for a universe, whose screen values give the ADV the
    caps read; the factor matrix's rows are the universe's members. Empty
    universes yield the all-zero vector. `panel` and `t` are not read: the
    universe holds its assets and date."""
    if not universe.members:
        return equal_weight_baseline(universe)
    if factor_matrix is None or factor_matrix.assets != universe.members:
        raise ConfigError("a non-empty universe needs a factor matrix over its members")
    assets = tuple(universe.assets or universe.members)
    adv = None if caps is None else np.array([universe.screen_values[a].adv for a in universe.members])
    return tilted_weights(universe.t, assets, _positions(assets, universe.members), factor_matrix, adv, tilt, caps)
