"""Cross-sectional factor signals: momentum, value (book-to-market), and a
profitability/balance-sheet quality composite, plus winsorization and
z-score standardization.

Conventions: signal offsets are in trading days; standard deviations are
population (divide by N); missing raw signals map to neutral z = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eligibility import EligibilitySet
from .errors import ConfigError
from .market_data import AsOf, MarketPanel

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
        if self.skip < 1:
            raise ConfigError(f"skip must be >= 1, got {self.skip}: skip = 0 reads the price at t itself")
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


def momentum_signal(panel: MarketPanel, asset: str, t: str, l_mom: int, skip: int) -> float:
    """Trailing return P[t-skip] / P[t-l_mom-skip] - 1 in trading-day offsets."""
    return float(AsOf(panel, t, l_mom=l_mom, skip=skip).momentum[panel.position(asset)])


def value_signal(panel: MarketPanel, asset: str, t: str, l_fund: int) -> float:
    """Book-to-market: latest qualifying book equity over mktcap at t-1.

    Missing when there is no fresh report, book equity is absent or
    non-positive (a negative ratio is not rankable), or mktcap is missing.
    """
    return float(AsOf(panel, t, l_fund=l_fund).value[panel.position(asset)])


def _quality_composite(snap: AsOf, positions: np.ndarray, winsor_p: float | None) -> np.ndarray:
    """z(ROE) + z(GrossMargin) + z(-DebtToAssets) over the snapshot columns
    at `positions`; NaN where any component is missing."""
    roe, margin, neg_dta = snap.roe[positions], snap.gross_margin[positions], -snap.debt_to_assets[positions]
    have_all = np.isfinite(roe) & np.isfinite(margin) & np.isfinite(neg_dta)
    if winsor_p is not None:
        roe, margin, neg_dta = (winsorize(x, winsor_p) for x in (roe, margin, neg_dta))
    composite = standardize(roe) + standardize(margin) + standardize(neg_dta)
    return np.where(have_all, composite, np.nan)


def quality_signal(
    panel: MarketPanel,
    universe: EligibilitySet,
    t: str,
    l_fund: int,
    winsorize_components_p: float | None = None,
) -> dict[str, float]:
    """Composite z(ROE) + z(GrossMargin) + z(-DebtToAssets) within the universe.

    Each component z-score is computed over the members where that component
    is available; the composite requires all three and is NaN otherwise.
    """
    positions = panel.positions(universe.members)
    composite = _quality_composite(AsOf(panel, t, l_fund=l_fund), positions, winsorize_components_p)
    return dict(zip(universe.members, composite.tolist()))


def winsorize(values, p: float) -> np.ndarray:
    """Clamp non-missing values to the [p, 1-p] empirical quantiles
    (linear-interpolation definition). Missing entries are untouched."""
    if not 0 <= p < 0.5:
        raise ConfigError(f"winsorization quantile must be in [0, 0.5), got {p}")
    arr = np.asarray(values, dtype=float).copy()
    finite = np.isfinite(arr)
    if p == 0 or not finite.any():
        return arr
    lo = np.quantile(arr[finite], p)
    hi = np.quantile(arr[finite], 1.0 - p)
    arr[finite] = np.clip(arr[finite], lo, hi)
    return arr


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
    if np.all(x == x[0]):  # exact constant cross-section, not just sigma ~ 0
        return z
    mu = float(np.mean(x))
    sigma = float(np.sqrt(np.mean((x - mu) ** 2)))
    if sigma > 0:
        z[finite] = (x - mu) / sigma
    return z


def select_factor_matrix(
    snapshot: AsOf, universe: EligibilitySet, positions: np.ndarray, params: FactorParams
) -> FactorMatrix:
    """build_factor_matrix from a snapshot's rows; `positions` are the
    members' columns in the snapshot."""
    if not universe.members:
        raise ConfigError(f"cannot build factor matrix for empty universe at {snapshot.t}")
    raw = np.full((len(positions), len(FACTORS)), np.nan)
    raw[:, 0] = snapshot.momentum[positions]
    raw[:, 1] = snapshot.value[positions]
    components_p = params.winsor_p if params.winsorize_quality_components else None
    raw[:, 2] = _quality_composite(snapshot, positions, components_p)
    z = np.empty_like(raw)
    for j in range(len(FACTORS)):
        z[:, j] = standardize(winsorize(raw[:, j], params.winsor_p))
    return FactorMatrix(t=snapshot.t, assets=universe.members, raw=raw, z=z)


def build_factor_matrix(
    panel: MarketPanel, universe: EligibilitySet, t: str, params: FactorParams
) -> FactorMatrix:
    """Raw signals per factor over the universe, then winsorize and
    standardize each factor column independently."""
    snap = AsOf(panel, t, l_mom=params.l_mom, skip=params.skip, l_fund=params.l_fund)
    return select_factor_matrix(snap, universe, panel.positions(universe.members), params)
