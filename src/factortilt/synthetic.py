"""Seeded synthetic market panels for tests and demos.

Return model: a common market shock plus cross-sectional structure gated by
`dispersion` (a drift spread and idiosyncratic noise; at dispersion 0 both
vanish, every asset shares one return path with identical fundamentals, and
all downstream z-scores are zero). The drift spread has a persistent
component weighted by |ic_target| (so momentum ranks predict forward returns
with controllable strength; a negative target flips the persistent component
sign every 126 days) and a transient component reshuffled each quarter.

Volumes are constant per asset at its liquidity-tier scale; market cap is
price times tier-scaled shares; fundamentals are reported quarterly. The
generator is numpy's seeded PCG64, so one seed reproduces one panel
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as _date, timedelta

import numpy as np

from .errors import ConfigError, check_finite
from .market_data import MarketPanel, TradingCalendar

GENERATOR_NAME = "numpy.random.default_rng (PCG64)"

_DRIFT_SCALE = 0.002   # daily drift at dispersion 1, extreme asset
_BASE_DRIFT = 0.0003
_MARKET_BETA = 0.5
_QUARTER_DAYS = 63
_FLIP_DAYS = 126
_BASE_PRICE = 50.0
_BASE_VOLUME = 1.0e5
_BASE_SHARES = 1.0e6
_GAP_ROWS = 128  # rows of the gap mask drawn at a time


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = 0
    n_assets: int = 20
    n_days: int = 756
    vol: float = 0.01
    dispersion: float = 0.5
    ic_target: float = 0.0
    liquidity_tiers: tuple[float, ...] = (1.0,)
    missing_rate: float = 0.0

    def __post_init__(self):
        check_finite(vol=self.vol, dispersion=self.dispersion, ic_target=self.ic_target,
                     liquidity_tiers=self.liquidity_tiers)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_assets < 1 or self.n_days < 1:
            raise ConfigError("n_assets and n_days must be >= 1")
        if self.vol < 0 or self.dispersion < 0:
            raise ConfigError("vol and dispersion must be >= 0")
        if abs(self.ic_target) > 1:
            raise ConfigError("ic_target must be in [-1, 1]")
        if not self.liquidity_tiers or any(t <= 0 for t in self.liquidity_tiers):
            raise ConfigError("liquidity_tiers must be non-empty and positive")
        if not 0 <= self.missing_rate <= 1:
            raise ConfigError("missing_rate must be in [0, 1]")


def trading_days(n_days: int, start: str = "2020-01-01") -> TradingCalendar:
    """Weekday sequence of the requested length starting on or after `start`."""
    days = []
    d = _date.fromisoformat(start)
    while len(days) < n_days:
        if d.weekday() < 5:
            days.append(d.isoformat())
        d += timedelta(days=1)
    return TradingCalendar(tuple(days))


def generate(spec: ScenarioSpec) -> MarketPanel:
    """Build a fully validated MarketPanel from the scenario description.

    The generator is drawn in a fixed order: the five asset spreads, the
    quarterly transient spreads, the market and idiosyncratic shocks, the
    fundamental report noise, then the gap masks in blocks of _GAP_ROWS
    rows. A new draw must come after the gaps, or from a SeedSequence
    child, so that every existing seed keeps its panel.

    The working set is the panel's own three grids, one grid of drift and
    one gap block. Each in-place step keeps the operations and operand
    grouping of the expressions in the comments (re-associating them would
    round differently), so a seed's panel is bit-identical to theirs.
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_assets, spec.n_days
    calendar = trading_days(d)

    spread = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
    s_drift = rng.permutation(spread)
    s_value = rng.permutation(spread)
    s_roe = rng.permutation(spread)
    s_margin = rng.permutation(spread)
    s_lever = rng.permutation(spread)

    n_blocks = d // _QUARTER_DAYS + 1
    transient = np.stack([rng.permutation(spread) for _ in range(n_blocks)])

    eps_market = rng.standard_normal(d)
    price = rng.standard_normal((d, n))  # the idiosyncratic shocks, turned into prices in place

    persist = abs(spec.ic_target)
    day_idx = np.arange(d)
    sign = np.ones(d) if spec.ic_target >= 0 else np.where((day_idx // _FLIP_DAYS) % 2 == 0, 1.0, -1.0)
    block = np.minimum(day_idx // _QUARTER_DAYS, n_blocks - 1)
    # drift = (_DRIFT_SCALE * dispersion) * (persist * sign * s_drift + (1 - persist) * transient)
    drift = transient[block]
    drift *= 1.0 - persist
    drift += persist * sign[:, None] * s_drift[None, :]
    drift *= _DRIFT_SCALE * spec.dispersion
    # returns = _BASE_DRIFT + drift + vol * (_MARKET_BETA * eps_market + min(dispersion, 1) * eps_idio)
    drift += _BASE_DRIFT
    price *= min(spec.dispersion, 1.0)
    price += _MARKET_BETA * eps_market[:, None]
    price *= spec.vol
    price += drift
    del drift
    np.maximum(price, -0.9, out=price)
    np.add(1.0, price, out=price)
    np.cumprod(price, axis=0, out=price)
    np.multiply(_BASE_PRICE, price, out=price)

    tiers = np.array([spec.liquidity_tiers[i % len(spec.liquidity_tiers)] for i in range(n)])
    volume = np.tile(_BASE_VOLUME * tiers, (d, 1))
    # at dispersion 0 every z input must be bit-identical, so shares ignore tiers
    shares = _BASE_SHARES * (tiers if spec.dispersion > 0 else np.ones(n))
    mktcap = price * shares[None, :]

    quarter_starts = list(range(0, d, _QUARTER_DAYS))
    # one column per quarter: asset i's reports are row i, in date order
    g_book, g_roe, g_margin, g_lever = rng.standard_normal((len(quarter_starts), 4)).T
    bps = 18.0 * (1.0 + 0.25 * spec.dispersion * s_value[:, None] + 0.02 * g_book)
    roe = 0.15 + 0.10 * spec.dispersion * s_roe[:, None] + 0.01 * g_roe
    margin = np.clip(0.40 + 0.20 * spec.dispersion * s_margin[:, None] + 0.01 * g_margin, 0.01, 0.99)
    lever = np.clip(0.35 + 0.20 * spec.dispersion * s_lever[:, None] + 0.01 * g_lever, 0.0, 0.95)
    report_values = np.stack([np.maximum(bps, 0.5) * shares[:, None], roe, margin, lever], axis=-1).reshape(-1, 4)

    # masks drawn unconditionally so other draws do not depend on the rate;
    # one (rows, n, 3) block at a time gives the same stream as one draw
    for lo in range(0, d, _GAP_ROWS):
        gaps = rng.random((min(_GAP_ROWS, d - lo), n, 3))
        for grid, k in ((price, 0), (volume, 1), (mktcap, 2)):
            grid[lo : lo + len(gaps)][gaps[:, :, k] < spec.missing_rate] = np.nan

    return MarketPanel([f"A{i:03d}" for i in range(n)], calendar, price, volume, mktcap,
                       report_asset=np.repeat(np.arange(n), len(quarter_starts)),
                       report_date=np.tile(np.array(calendar.days)[quarter_starts], n), report_values=report_values)

