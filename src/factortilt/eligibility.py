"""Eligible-universe construction from lagged history and liquidity screens."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, check_finite
from .market_data import AsOf, MarketPanel


@dataclass(frozen=True)
class EligibilityParams:
    """Inclusion screens: minimum history (trading days), minimum average
    dollar volume, and the ADV lookback window."""

    h_min: int = 252
    adv_min: float = 1_000_000.0
    l_adv: int = 63

    def __post_init__(self):
        check_finite(adv_min=self.adv_min)
        if self.h_min < 0:
            raise ConfigError(f"h_min must be >= 0, got {self.h_min}")
        if self.adv_min < 0:
            raise ConfigError(f"adv_min must be >= 0, got {self.adv_min}")
        if self.l_adv < 1:
            raise ConfigError(f"l_adv must be >= 1, got {self.l_adv}")


class ScreenValues(NamedTuple):
    history: int
    adv: float


@dataclass(frozen=True)
class EligibilitySet:
    """Assets passing the screens at rebalance date t, with the screen values
    that produced the decision for every asset in the panel."""

    t: str
    members: tuple[str, ...]
    screen_values: dict[str, ScreenValues] = field(default_factory=dict)
    assets: tuple[str, ...] = ()
    _member_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_member_set", frozenset(self.members))
        if self.assets and not self._member_set <= set(self.assets):
            raise ConfigError("universe members not a subset of panel assets")

    def __contains__(self, asset: str) -> bool:
        return asset in self._member_set


def eligible(history: np.ndarray, adv: np.ndarray, params: EligibilityParams) -> np.ndarray:
    """Membership row of the screens: history >= h_min and ADV >= adv_min,
    given the per-asset history and ADV rows (arrays) at t. Missing ADV
    never passes."""
    return (history >= params.h_min) & (adv >= params.adv_min)


def compute_eligibility(panel: MarketPanel, t: str, params: EligibilityParams) -> EligibilitySet:
    """The universe `eligible` admits at t, with every asset's screen values
    (history and ADV, both measured strictly before t). An empty result is
    legitimate, not an error."""
    snap = AsOf(panel, t, l_adv=params.l_adv)
    adv = snap.adv.tolist()
    for i in np.flatnonzero(np.isnan(snap.adv)).tolist():
        adv[i] = math.nan  # one NaN object, so equal sets compare equal
    screen_values = dict(zip(panel.assets, map(tuple.__new__, repeat(ScreenValues), zip(snap.history.tolist(), adv))))
    members = tuple(compress(panel.assets, eligible(snap.history, snap.adv, params).tolist()))
    return EligibilitySet(t=t, members=members, screen_values=screen_values, assets=tuple(panel.assets))
