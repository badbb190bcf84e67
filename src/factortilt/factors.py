"""Cross-sectional factor signals: momentum, value (book-to-market), and a
profitability/balance-sheet quality composite, plus winsorization and
z-score standardization.

Conventions: signal offsets are in trading days; standard deviations are
population (divide by N); missing raw signals map to neutral z = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class FactorMatrix:
    """Per-rebalance raw and standardized signals over the eligible universe.

    raw is (n_members, n_factors) with NaN for missing; z has the same shape
    and is complete (neutral zeros where raw is missing)."""

    t: str
    assets: tuple[str, ...]
    raw: np.ndarray
    z: np.ndarray
    factors: tuple[str, ...] = FACTORS

    def column(self, factor: str, standardized: bool = True) -> np.ndarray:
        j = self.factors.index(factor)
        return (self.z if standardized else self.raw)[:, j]


def _quality_composite(snap: AsOf, positions: np.ndarray, winsor_p: float | None) -> np.ndarray:
    """z(ROE) + z(GrossMargin) + z(-DebtToAssets) over the snapshot columns
    at `positions`; NaN where any component is missing."""
    roe, margin, neg_dta = snap.roe[positions], snap.gross_margin[positions], -snap.debt_to_assets[positions]
    have_all = np.isfinite(roe) & np.isfinite(margin) & np.isfinite(neg_dta)
    if winsor_p is not None:
        roe, margin, neg_dta = (winsorize(x, winsor_p) for x in (roe, margin, neg_dta))
    composite = standardize(roe) + standardize(margin) + standardize(neg_dta)
    return np.where(have_all, composite, np.nan)


def winsorize(values, p: float) -> np.ndarray:
    """Clamp non-missing values to the [p, 1-p] empirical quantiles
    (linear-interpolation definition). Missing entries are untouched."""
    if not 0 <= p < 0.5:
        raise ConfigError(f"winsorization quantile must be in [0, 0.5), got {p}")
    arr = np.asarray(values, dtype=float).copy()
    finite = np.isfinite(arr)
    if p == 0 or not finite.any():
        return arr
    x = arr[finite]
    lo, hi = _linear_quantiles(x, p)
    arr[finite] = np.minimum(hi, np.maximum(lo, x))  # keeps x where it ties a bound, as np.clip does
    return arr


def _linear_quantiles(x: np.ndarray, p: float) -> tuple[float, float]:
    """np.quantile(x, [p, 1 - p]) bit for bit, without its per-call cost:
    numpy's linear rule (virtual index (n-1)*q, the top value interpolated
    with itself from n-1 on, the two-sided interpolation) read from the
    partition numpy makes, whose placement of tied 0.0 and -0.0 a full
    sort would not reproduce."""
    n = len(x)
    picks = []
    for q in (p, 1.0 - p):
        v = (n - 1) * q
        i = math.floor(v)
        picks.append((-1, -1, v + 1.0) if v >= n - 1 else (i, i + 1, v - i))
    parted = x.copy()
    parted.partition(sorted({0, -1, *(k for below, above, _ in picks for k in (below, above))}))
    bounds = []
    for below, above, g in picks:
        a, b = float(parted[below]), float(parted[above])
        d = b - a
        bounds.append(b - d * (1.0 - g) if g >= 0.5 else a + d * g)
    return bounds[0], bounds[1]


def standardize(values) -> np.ndarray:
    """Cross-sectional z-scores with population moments over non-missing
    entries; zeros everywhere when the spread is zero, and zero for missing
    entries (neutral exposure)."""
    arr = np.asarray(values, dtype=float)
    z = np.zeros(arr.shape, dtype=float)
    finite = np.isfinite(arr)
    if not finite.any():
        return z
    x = arr[finite]
    if (x == x[0]).all():  # exact constant cross-section, not just sigma ~ 0
        return z
    # sum / n is np.mean's own pairwise sum and division
    mu = float(x.sum() / len(x))
    dev = x - mu
    sigma = math.sqrt(float((dev**2).sum() / len(x)))
    if sigma > 0:
        z[finite] = dev / sigma
    return z


def select_factor_matrix(snapshot: AsOf, positions: np.ndarray, params: FactorParams) -> FactorMatrix:
    """build_factor_matrix from a snapshot's rows over the universe whose
    members are the panel assets at `positions`, in that order."""
    if not len(positions):
        raise ConfigError(f"cannot build factor matrix for empty universe at {snapshot.t}")
    raw = np.full((len(positions), len(FACTORS)), np.nan)
    raw[:, 0] = snapshot.momentum[positions]
    raw[:, 1] = snapshot.value[positions]
    components_p = params.winsor_p if params.winsorize_quality_components else None
    raw[:, 2] = _quality_composite(snapshot, positions, components_p)
    z = np.empty_like(raw)
    for j in range(len(FACTORS)):
        z[:, j] = standardize(winsorize(raw[:, j], params.winsor_p))
    members = tuple(map(snapshot.panel.assets.__getitem__, positions.tolist()))
    return FactorMatrix(t=snapshot.t, assets=members, raw=raw, z=z)


def build_factor_matrix(
    panel: MarketPanel, universe: EligibilitySet, t: str, params: FactorParams
) -> FactorMatrix:
    """Raw signals per factor over the universe, then winsorize and
    standardize each factor column independently."""
    snap = AsOf(panel, t, l_mom=params.l_mom, skip=params.skip, l_fund=params.l_fund)
    return select_factor_matrix(snap, panel.positions(universe.members), params)
