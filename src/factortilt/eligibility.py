"""Eligible-universe construction from lagged history and liquidity screens."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, check_finite, check_integer
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
        check_integer(h_min=self.h_min, l_adv=self.l_adv)
        if self.h_min < 0:
            raise ConfigError(f"h_min must be >= 0, got {self.h_min}")
        if self.adv_min < 0:
            raise ConfigError(f"adv_min must be >= 0, got {self.adv_min}")
        if self.l_adv < 1:
            raise ConfigError(f"l_adv must be >= 1, got {self.l_adv}")


class ScreenValues(NamedTuple):
    history: int
    adv: float


@dataclass(frozen=True, eq=False)  # == on numpy rows has no single truth value
class EligibilitySet:
    """Assets passing the screens at rebalance date t, with the `history` and
    `adv` rows they were screened on (read-only copies, or both None), one
    entry per asset of `assets`; `screen_values` is built on first read."""

    t: str
    members: tuple[str, ...]
    assets: tuple[str, ...] = ()
    history: np.ndarray | None = field(default=None, repr=False)
    adv: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.assets and not set(self.assets).issuperset(self.members):
            raise ConfigError("universe members not a subset of panel assets")
        for name in ("history", "adv") if self.history is not None or self.adv is not None else ():
            row = np.array(getattr(self, name))  # the set's own copy: no later write can move screen_values
            if row.shape != (len(self.assets),):
                raise ConfigError(f"{name} row needs {len(self.assets)} entries, got shape {row.shape}")
            row.flags.writeable = False
            object.__setattr__(self, name, row)

    @cached_property
    def _member_set(self) -> frozenset[str]:
        return frozenset(self.members)

    @cached_property
    def screen_values(self) -> dict[str, ScreenValues]:
        if self.history is None:
            return {}
        adv = self.adv.tolist()
        for i in np.flatnonzero(np.isnan(self.adv)).tolist():
            adv[i] = math.nan  # one NaN object, so equal sets compare equal
        return dict(zip(self.assets, map(tuple.__new__, repeat(ScreenValues), zip(self.history.tolist(), adv))))

    def __contains__(self, asset: str) -> bool:
        return asset in self._member_set

    def __eq__(self, other):
        return isinstance(other, EligibilitySet) and (
            (self.t, self.members, self.assets, self.screen_values)
            == (other.t, other.members, other.assets, other.screen_values))


def eligible(history: np.ndarray, adv: np.ndarray, params: EligibilityParams) -> np.ndarray:
    """Membership row of the screens: history >= h_min and ADV >= adv_min,
    given the per-asset history and ADV rows (arrays) at t. Missing ADV
    never passes."""
    return (history >= params.h_min) & (adv >= params.adv_min)


def compute_eligibility(panel: MarketPanel, t: str, params: EligibilityParams) -> EligibilitySet:
    """The universe `eligible` admits at t, holding the history and ADV rows (both
    before t) its screen values are built from on first read. Empty is not an error."""
    snap = AsOf(panel, t, l_adv=params.l_adv)
    members = tuple(compress(panel.assets, eligible(snap.history, snap.adv, params).tolist()))
    return EligibilitySet(t=t, members=members, assets=tuple(panel.assets), history=snap.history, adv=snap.adv)
