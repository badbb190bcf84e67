"""Portfolio evolution through time: piecewise-constant target weights,
a book's `Targets` (one row per rebalance date) built by a walk or given
to `evolve`, daily returns, one-way turnover, linear transaction costs,
and the counterfactual baseline strategies run on identical data and
schedule.

Conventions: every book starts in cash. Turnover is one-way sum |dw| in
[0, 2], under drift measured against the drifted weights; the cost
cost_rate * turnover is deducted from the rebalance day's return. An asset's
return is measured from its last valid price, so a day without a price
earns zero, the position is carried, and the return across the gap is
credited on the day the price comes back; an asset with no earlier price
earns zero. An empty universe holds cash at exactly zero return until the
next rebalance.

A walk writes each book's rows into its blocks, taking the rebalance
dates in blocks of _BLOCK (16). For each block it builds the dates'
snapshots and, once per date and pool its books hold, the pool's member
positions (`pool_positions`, which keeps nothing; the walk logs each
empty one). Then for every pool its books tilt (the screened pool,
fixed_universe) it reads the block's factor matrices from the panel's
store (`factors.stored_matrices`, those not stored yet built from the
block's snapshots in one `select_factor_matrices` call), for capped dmft
makes one `member_caps` call, and one `tilted_block` call over every book
on it, whose rows go to the books by slice; the other books' rows are
written date by date. No walk takes a snapshot from its caller: the
panel's stores are its only cache. It lets the snapshots go before the
next block, while their factor
matrices, one per date and distinct member set, stay in the panel's
store: matrices and weights have the bits of their date alone (see
`factors`, `weighting`), and the walk holds one block of snapshots. Each
date's ADV row and report block stay in the panel's store of as-of rows
(`MarketPanel.as_of_row`), for the next walk, screen or diagnostic of it.

`evolve` walks the calendar rows in fixed blocks of ROW_BLOCK_CELLS
price cells, max(1, 32768 // n_assets) rows (546 at 60 assets, 65 at
500). A block holds its asset returns, built once from the last valid
prices carried in from the block before, one book's products at a time,
and each book's carries. Per book it takes one gather of each row's
holding-period target (`take`; a period is the rows after a trade
through the next trade or the end), one product with the returns and one
np.add.reduce over each row, however many periods it holds: the row sums
are a constant_mix book's daily returns. Under drift the returns first
become each asset's growth cumprod(1 + r) since its period's trade (one
np.multiply.accumulate per period in the block, the first row times the
growth carried in), the row sums are the book's values, its daily return
is value_k / value_k-1 - 1 from value = sum(w) at the trade, and a trade
row's products over their sum are the drifted weights that trade's
turnover is measured against. No product is a matrix product: BLAS
rounds a row of r @ W.T differently with the number of rows in the call,
while each cell here is the product r * w makes, numpy sums each
contiguous row exactly as it sums that row alone, and the cumprod runs
in the same sequential order however the rows are cut. So no bit depends
on the block size or on the periods beside a row, a run truncated at any
end is a bitwise prefix of the full run, and equal targets get equal bits
whatever books sit beside them. A row in cash sums +-0.0 products to
numpy's +0.0 and under drift is never divided. evolve's memory follows
the block, whatever the periods' lengths and number.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .eligibility import EligibilityParams, eligible
from .errors import ConfigError, DataError, check_finite
from .factors import FactorMatrix, FactorParams, stored_matrices
from .market_data import ROW_BLOCK_CELLS, AsOf, MarketPanel, RebalanceSchedule
from .weighting import CapParams, Targets, TiltParams, member_caps, tilted_block

log = logging.getLogger(__name__)

STRATEGIES = ("dmft", "fixed_universe", "ew_eligible", "ew_all", "cap_weighted")
_POOLS = {"dmft": "screened", "ew_eligible": "screened"}  # every other strategy holds a pool of its own
_TILTED = ("dmft", "fixed_universe")  # the strategies whose targets read a factor matrix
_BLOCK = 16  # rebalance dates whose snapshots a walk holds at once
WEIGHT_MODES = ("constant_mix", "drift")


@dataclass(frozen=True)
class BacktestConfig:
    cost_rate: float = 0.0
    weight_mode: str = "constant_mix"
    eligibility: EligibilityParams = field(default_factory=EligibilityParams)
    factors: FactorParams = field(default_factory=FactorParams)
    tilt: TiltParams = field(default_factory=TiltParams)
    caps: CapParams | None = None

    def __post_init__(self):
        check_finite(cost_rate=self.cost_rate)
        if self.cost_rate < 0:
            raise ConfigError(f"cost_rate must be >= 0, got {self.cost_rate}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"unknown weight_mode {self.weight_mode!r}")


@dataclass(eq=False)  # == on numpy arrays has no single truth value
class BacktestResult:
    strategy: str
    dates: list[str]
    daily_returns: np.ndarray
    equity_curve: np.ndarray
    turnover: np.ndarray
    costs: np.ndarray
    weights: Targets

    @property
    def rebalance_dates(self) -> list[str]:
        """The dates the book traded on: its weights' dates."""
        return list(self.weights.dates)


def pool_positions(snap: AsOf, strategy: str, config: BacktestConfig) -> np.ndarray:
    """Positions of the members of the strategy's pool at the snapshot's date:
    the screens for dmft and ew_eligible, any computable raw signal for
    fixed_universe (quality needs all three components), any price before t
    for ew_all, a market cap at t-1 for cap_weighted."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    pool = _POOLS.get(strategy, strategy)
    if pool == "screened":
        row = eligible(snap.history, snap.adv, config.eligibility)
    elif pool == "fixed_universe":
        quality_ok = ~(np.isnan(snap.roe) | np.isnan(snap.gross_margin) | np.isnan(snap.debt_to_assets))
        row = ~np.isnan(snap.momentum) | ~np.isnan(snap.value) | quality_ok
    else:
        row = snap.listed if pool == "ew_all" else np.isfinite(snap.mktcap)
    return np.flatnonzero(row)


def pool_matrices(snaps: list[AsOf], strategy: str, config: BacktestConfig) -> list[FactorMatrix]:
    """The factor matrices of the strategy's non-empty pools at the
    snapshots' dates, read from the panel's store (factors.stored_matrices):
    one per date, member set and factor parameters, whichever pool asks
    first, those not stored yet built in one select_factor_matrices call."""
    if not snaps:
        return []
    positions = [pool_positions(snap, strategy, config) for snap in snaps]
    return stored_matrices(snaps[0].panel, [snap.t for snap in snaps], positions, config.factors, snaps)


def snapshot(panel: MarketPanel, t: str, config: BacktestConfig) -> AsOf:
    """The as-of snapshot at t with every row the config's strategies read."""
    f = config.factors
    return AsOf(panel, t, config.eligibility.l_adv, f.l_mom, f.skip, f.l_fund)


def _run(
    panel: MarketPanel, schedule: RebalanceSchedule, config: BacktestConfig, books, end: str | None
) -> dict[str, BacktestResult]:
    """Walk the rebalance dates through `end` once under one config, _BLOCK
    dates at a time (see the module docstring), writing every book's rows
    into its blocks, then evolve every book's Targets."""
    for t in schedule.dates:
        if t not in panel.calendar:
            raise DataError(f"rebalance date {t} outside the panel calendar")
    dates = [t for t in schedule.dates if end is None or t <= end]
    shape = (len(dates), panel.n_assets)
    blocks = {name: (np.zeros(shape), np.ones(shape) if s in _TILTED else None,
                     np.full(shape, np.nan) if s == "dmft" and config.caps is not None else None)
              for name, (s, _) in books.items()}
    for i in range(0, len(dates), _BLOCK):
        _block_targets(panel, dates[i : i + _BLOCK], config, books, blocks, i)
    return evolve(panel, {name: (s, Targets(dates, panel.assets, *blocks[name])) for name, (s, _) in books.items()},
                  config, end)


def _block_targets(panel: MarketPanel, dates: list[str], config: BacktestConfig, books, blocks, at: int) -> None:
    """Write every book's targets at the dates into rows at, at + 1, ... of
    its (w, multipliers, caps) blocks, from one snapshot per date and one
    pool_positions call per date and pool the books hold, each empty one
    logged. Each tilted pool reads its non-empty dates' matrices with one
    stored_matrices call and takes one tilted_block call over them, whose
    rows go by slice to its n books: the j-th book's are every n-th from
    row j. A capped dmft pool's caps take one member_caps call. The
    snapshots go when this returns; the matrices stay in the panel's store."""
    block = [snapshot(panel, t, config) for t in dates]
    held_by = {_POOLS.get(s, s): s for s, _ in books.values()}  # each pool the books hold, by one of its strategies
    pools = {pool: [pool_positions(snap, s, config) for snap in block] for pool, s in held_by.items()}
    for k, snap in enumerate(block):
        for pool, positions in pools.items():
            if not positions[k].size:
                log.warning("empty universe at %s in the %s pool; holding cash until next rebalance", snap.t, pool)
    for s in sorted({s for s, _ in books.values()} & set(_TILTED)):
        positions = pools[_POOLS.get(s, s)]
        held = [k for k, pos in enumerate(positions) if pos.size]
        if not held:
            continue
        caps = None
        if s == "dmft" and config.caps is not None:
            caps = member_caps([block[k].adv[positions[k]] for k in held], config.caps)
        matrices = stored_matrices(panel, [dates[k] for k in held], [positions[k] for k in held], config.factors,
                                   [block[k] for k in held])
        names = [name for name, (b, _) in books.items() if b == s]
        w, mult, cap_rows = tilted_block(matrices, [books[name][1] for name in names], caps)
        rows = at + np.array(held)
        for j, name in enumerate(names):
            out_w, out_mult, out_caps = blocks[name]
            out_w[rows], out_mult[rows] = w[j :: len(names)], mult[j :: len(names)]
            if out_caps is not None:
                out_caps[rows] = cap_rows
    for k, snap in enumerate(block):
        for name, (s, _) in books.items():
            positions = pools[_POOLS.get(s, s)][k]
            if s in ("ew_eligible", "ew_all") and positions.size:
                blocks[name][0][at + k, positions] = 1.0 / len(positions)
            elif s == "cap_weighted" and positions.size:
                w = blocks[name][0][at + k]
                w[positions] = snap.mktcap[positions]
                w /= w.sum()


def evolve(
    panel: MarketPanel, books: dict[str, tuple[str, Targets]], config: BacktestConfig, end: str | None = None
) -> dict[str, BacktestResult]:
    """One BacktestResult per named (strategy label, Targets) book, all books
    dated alike in rising order, evolved from the first date through `end`
    (panel end by default) under config's cost_rate and weight_mode;
    targets dated after `end` are not traded, and each result's weights are
    the targets through `end`. Every book starts in cash, earns day d on the
    weights it held coming into d, and on a rebalance date trades to its
    target, the turnover cost deducted from that day's return. Between
    rebalances constant_mix holds the targets; drift lets a copy of them
    grow with returns, and turnover is measured against it. The rows go in
    fixed blocks; per book a block takes one gather of its rows' targets,
    one product with its returns and one row sum, however many holding
    periods it holds, and only drift's growth row and each book's last
    value carry to the next block, so no bit depends on the block size (see
    the module docstring). A book in cash earns exactly +0.0."""
    cal, assets = panel.calendar, tuple(panel.assets)
    targets = [v for _, v in books.values()]
    dates = targets[0].dates if targets else ()
    if any(v.dates != dates for v in targets):
        raise ConfigError("books rebalance on different dates")
    if any(v.assets != assets for v in targets):
        raise ConfigError("a book's targets are not over the panel's assets")
    RebalanceSchedule(dates)  # strictly increasing
    end = cal.last_on_or_before(end) if end is not None else cal.days[-1]
    if end is None:
        raise DataError("backtest end precedes the panel calendar")
    n_reb = bisect_right(dates, end)
    if not n_reb:
        raise ConfigError(f"no target weights dated on or before the backtest end {end}")
    i_start, i_end = cal.position(dates[0]), cal.position(end)
    n_days = i_end + 1 - i_start
    trades = [cal.position(t) - i_start for t in dates[:n_reb]]
    daily, turnover = _evolve_rows(panel.price, i_start, n_days, trades, [v.w[:n_reb] for v in targets],
                                   config.weight_mode == "drift")
    costs = config.cost_rate * turnover
    daily[:, trades] -= costs
    equity = np.cumprod(1.0 + daily, axis=1)
    return {
        name: BacktestResult(strategy=s, dates=list(cal.days[i_start : i_end + 1]), daily_returns=daily[j],
                             equity_curve=equity[j], turnover=turnover[j], costs=costs[j], weights=v.head(n_reb))
        for j, (name, (s, v)) in enumerate(books.items())
    }


def _evolve_rows(price: np.ndarray, i_start: int, n_days: int, trades: list[int], w: list[np.ndarray], drift: bool):
    """The gross daily returns and the turnover of books that trade to the
    rows of w at calendar rows i_start + trades (trades[0] is 0), over the
    n_days rows from i_start, one block of rows at a time (see evolve)."""
    n_assets, n_reb = price.shape[1], len(trades)
    step, at = max(1, ROW_BLOCK_CELLS // n_assets), np.array(trades)
    value0 = [np.add.reduce(x, axis=1) for x in w]  # each target's value at its trade: 1, or 0 in cash
    # holding period j: the rows after trade j through the next trade or the end; row k's is own[k - 1]
    own = np.repeat(np.arange(n_reb), np.diff([*trades, n_days - 1]))
    rows = np.empty((min(step, n_days - 1) + 1, n_assets))  # the prices, then the returns, of one block
    daily, turnover = np.zeros((len(w), n_days)), np.empty((len(w), n_reb))
    for b, x in enumerate(w):  # from cash at the first trade; under constant_mix from the last target at the rest
        turnover[b, 0] = np.add.reduce(np.abs(x[0]))
        for lo in range(1, 1 if drift else n_reb, step):
            hi = min(lo + step, n_reb)
            d = np.subtract(x[lo:hi], x[lo - 1 : hi - 1], out=rows[: hi - lo])
            np.add.reduce(np.abs(d, out=d), axis=1, out=turnover[b, lo:hi])
    last = _last_prices(price, i_start)
    growth, value = np.ones(n_assets), np.zeros(len(w))  # drift's carries from the row before a block
    batch = max(1, step // 8)  # the drifted weights of at most this many ended periods are held at once
    for lo in range(1, n_days, step):
        hi = min(lo + step, n_days)
        r = _segment_returns(price, last, i_start + lo, i_start + hi - 1, rows)
        periods = own[lo - 1 : hi - 1]
        ended = slice(bisect_left(trades, lo), bisect_left(trades, hi))  # the trades at rows lo..hi-1
        begun = slice(bisect_left(trades, lo - 1), bisect_left(trades, hi - 1))  # those at rows lo-1..hi-2
        if drift:  # each row becomes each asset's growth since the trade of its period
            r += 1.0
            if trades[ended.start - 1] != lo - 1:  # the block goes on with a period
                r[0] *= growth
            cuts = [t + 1 - lo for t in trades[begun]]
            for a, z in zip([0, *cuts], [*cuts, len(r)]):
                np.multiply.accumulate(r[a:z], axis=0, out=r[a:z])
            growth = r[-1].copy()
        p = np.empty_like(r)  # one book's products, freed before the next block's returns are built
        for b, x in enumerate(w):
            x.take(periods, axis=0, out=p, mode="clip")  # each row's target
            np.multiply(p, r, out=p)
            if not drift:  # a cash row's sum of +-0.0 products is numpy's +0.0: the sum starts from it
                np.add.reduce(p, axis=1, out=daily[b, lo:hi])
                continue
            v = np.empty(hi - lo + 1)  # the book's value at rows lo - 1, ..., hi - 1
            v[0] = value[b]
            np.add.reduce(p, axis=1, out=v[1:])
            value[b] = v[-1]
            den = v[:-1].copy()  # the value each row's return is made on: a new period's is its target's
            den[cuts] = value0[b][begun]
            on = value0[b][periods] > 0  # the rows of periods the book holds something in
            np.divide(v[1:], den, out=den, where=on)
            np.subtract(den, 1.0, out=daily[b, lo:hi], where=on)
            for s in range(ended.start, ended.stop, batch):  # each ended period's drifted weights, then its trade
                e = slice(s, min(s + batch, ended.stop))
                t = at[e] - lo
                h = p[t]
                np.divide(h, v[t + 1, None], out=h, where=value0[b][s - 1 : e.stop - 1, None] > 0)
                np.subtract(x[e], h, out=h)
                np.add.reduce(np.abs(h, out=h), axis=1, out=turnover[b, e])
        del p
    return daily, turnover


def _last_prices(price: np.ndarray, i: int) -> np.ndarray:
    """Each asset's last valid price at or before calendar row i, NaN if none."""
    last = price[i].copy()
    gaps = np.flatnonzero(np.isnan(last))
    past = price[: i + 1, gaps]  # a copy: only the assets without a price at i
    _fill_gaps(past)
    last[gaps] = past[-1]
    return last


def _fill_gaps(rows: np.ndarray) -> None:
    """Forward-fill each column's NaNs below row 0 in place from the last
    valid cell above them (row 0's, NaN or not, when there is none)."""
    gaps = np.isnan(rows)
    gaps[0] = False
    at, col = np.divmod(np.flatnonzero(gaps), rows.shape[1])  # row by row
    if at.size:
        order = np.argsort(col, kind="stable")  # column by column, each column's gaps in row order
        at, col = at[order], col[order]
        run = ~gaps[at - 1, col]  # the first gap of each run: row 0 is never a gap
        rows[at, col] = rows[at[run] - 1, col[run]][np.cumsum(run) - 1]


def _segment_returns(price: np.ndarray, last: np.ndarray, lo: int, hi: int, rows: np.ndarray) -> np.ndarray:
    """The asset returns of calendar rows lo..hi, each from the asset's last
    valid price before it, so the return across a gap is credited on the day
    the price comes back; a day without a price, or without an earlier one,
    earns zero. They are built in place in the first hi + 1 - lo rows of
    `rows`, at least hi + 2 - lo rows of the panel's width, and returned as
    a view of them. `last` holds the last valid prices at or before row
    lo - 1 and is moved on to row hi."""
    rows = rows[: hi + 2 - lo]
    rows[0], rows[1:] = last, price[lo : hi + 1]
    _fill_gaps(rows)
    last[:] = rows[-1]
    r = np.divide(rows[1:], rows[:-1], out=rows[:-1])  # in place: each row is read before it is written
    r -= 1.0
    r[np.isnan(r)] = 0.0
    return r


def run_baselines(
    panel: MarketPanel,
    schedule: RebalanceSchedule,
    config: BacktestConfig,
    end: str | None = None,
) -> dict[str, BacktestResult]:
    """Run the tilted strategy and all counterfactual baselines under
    identical data, schedule, and cost assumptions, in one walk that builds
    each date's snapshot and its four pools once. Liquidity caps apply only
    to the screened tilted strategy (the screens guarantee ADV for every
    member; the unscreened pools do not)."""
    return _run(panel, schedule, config, {s: (s, config.tilt) for s in STRATEGIES}, end)


def removal_tilt(tilt: TiltParams, factor: str) -> TiltParams:
    """The tilt with one factor removed from the mixture: remaining weights
    are renormalized proportionally, or shared uniformly if they carried no
    weight (a mixture holds every factor of FACTORS, so some remain)."""
    alpha = dict(tilt.alpha)
    if factor not in alpha:
        raise ConfigError(f"factor {factor!r} not in mixture")
    rest = [f for f in alpha if f != factor]
    rest_total = sum(alpha[f] for f in rest)
    share = {f: alpha[f] / rest_total for f in rest} if rest_total > 0 else dict.fromkeys(rest, 1.0 / len(rest))
    return replace(tilt, alpha={f: share.get(f, 0.0) for f in alpha})


def run_factor_removals(
    panel: MarketPanel,
    schedule: RebalanceSchedule,
    config: BacktestConfig,
    end: str | None = None,
) -> dict[str, BacktestResult]:
    """The dmft book under the full tilt plus one per factor with that
    factor removed, for marginal contribution diagnostics, in one walk that
    screens each date once for all of them."""
    books = {"full": ("dmft", config.tilt)}
    for f in config.tilt.alpha:
        books[f"drop_{f}"] = ("dmft", removal_tilt(config.tilt, f))
    return _run(panel, schedule, config, books, end)
