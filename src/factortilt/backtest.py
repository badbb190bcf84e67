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
snapshots, then for every pool its books tilt (the screened pool,
fixed_universe) one `select_factor_matrices` call, for capped dmft one
`member_caps` call, and one `tilted_block` call over every book on it,
whose rows go to the books by slice; the other books' rows are written
date by date. It lets the snapshots go before the next block: matrices
and weights have the bits of their date alone (see `factors`,
`weighting`), and the walk holds one block of snapshots. Each date's ADV
row and report block stay in the panel's store (`MarketPanel.as_of_row`),
for the next walk or screen of it.

`evolve` walks the calendar rows in fixed blocks of ROW_BLOCK_CELLS
price cells, max(1, 32768 // n_assets) rows (546 at 60 assets, 65 at
500). Each block's asset returns are built once, their gaps filled from
the last valid prices carried in from the block before. A holding period
(segment: the rows after a trade through the next trade or the end) is
cut by the blocks into pieces. Over a piece a constant_mix book's daily
returns are the row sums of r * w; a drift book's value is the row sums
of g * w, with g each asset's growth cumprod(1 + r) since the trade, and
its daily return is value_k / value_k-1 - 1 from value = sum(w) at the
trade. Across a block boundary inside a segment three things carry: the
growth row, shared by every book (a piece's first row is carry * (1 + r),
then np.multiply.accumulate, so cumprod's sequential order holds), each
book's last value, and, at the segment's end, its drifted weights. Each
piece takes one (live books, rows, assets) product and one np.add.reduce
over its last axis for every book that holds something, never a matrix
product: BLAS rounds a row of r @ w or r @ W.T differently with the number
of rows or books in the call, while numpy sums each contiguous row of a
block exactly as it sums that row alone. So no bit depends on the block
size, a run truncated at any end is a bitwise prefix of the full run, and
equal targets get equal bits whatever books sit beside them. evolve holds
one block of returns and one piece's products, whatever the holding
period's length.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .eligibility import EligibilityParams, eligible
from .errors import ConfigError, DataError, check_finite
from .factors import FactorMatrix, FactorParams, select_factor_matrices
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
    for ew_all, a market cap at t-1 for cap_weighted. Built once per pool and
    eligibility parameters, kept on the snapshot, and logged when empty."""
    pool = _POOLS.get(strategy, strategy)
    key = (pool, config.eligibility)
    if key not in snap.pools:
        if pool == "screened":
            row = eligible(snap.history, snap.adv, config.eligibility)
        elif pool == "fixed_universe":
            quality_ok = ~(np.isnan(snap.roe) | np.isnan(snap.gross_margin) | np.isnan(snap.debt_to_assets))
            row = ~np.isnan(snap.momentum) | ~np.isnan(snap.value) | quality_ok
        else:
            row = snap.listed if pool == "ew_all" else np.isfinite(snap.mktcap)
        snap.pools[key] = np.flatnonzero(row)
        if not snap.pools[key].size:
            log.warning("empty universe at %s in the %s pool; holding cash until next rebalance", snap.t, pool)
    return snap.pools[key]


def pool_matrices(snaps: list[AsOf], strategy: str, config: BacktestConfig) -> list[FactorMatrix]:
    """The factor matrices of the strategy's non-empty pools at the
    snapshots' dates: built once per pool, eligibility and factor parameters
    and kept on each snapshot, those not yet kept in one
    select_factor_matrices call."""
    key = (_POOLS.get(strategy, strategy), config.eligibility, config.factors)
    todo = [snap for snap in snaps if key not in snap.matrices]
    built = select_factor_matrices(todo, [pool_positions(snap, strategy, config) for snap in todo], config.factors)
    for snap, matrix in zip(todo, built):
        snap.matrices[key] = matrix
    return [snap.matrices[key] for snap in snaps]


def _windows(config: BacktestConfig) -> tuple:
    f = config.factors
    return config.eligibility.l_adv, f.l_mom, f.skip, f.l_fund


def snapshot(panel: MarketPanel, t: str, config: BacktestConfig) -> AsOf:
    """The as-of snapshot at t with every row the config's strategies read."""
    return AsOf(panel, t, *_windows(config))


def _given_snapshot(snapshots: dict[str, AsOf], panel: MarketPanel, t: str, config: BacktestConfig) -> AsOf:
    """snapshots[t], checked to be what snapshot(panel, t, config) builds."""
    snap = snapshots.get(t)
    if snap is None:
        raise ConfigError(f"no snapshot given for rebalance date {t}")
    if snap.panel is not panel or snap.t != t or snap.windows != _windows(config):
        raise ConfigError(f"the snapshot given for {t} is not snapshot(panel, {t}, config) of this panel and config")
    return snap


def _run(
    panel: MarketPanel, schedule: RebalanceSchedule, config: BacktestConfig, books, end: str | None, snapshots=None
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
        _block_targets(panel, dates[i : i + _BLOCK], config, books, blocks, i, snapshots)
    return evolve(panel, {name: (s, Targets(dates, panel.assets, *blocks[name])) for name, (s, _) in books.items()},
                  config, end)


def _block_targets(panel: MarketPanel, dates: list[str], config: BacktestConfig, books, blocks, at: int,
                   snapshots=None) -> None:
    """Write every book's targets at the dates into rows at, at + 1, ... of
    its (w, multipliers, caps) blocks, from one snapshot per date (built, or
    taken from `snapshots` keyed by date). Each tilted pool takes one
    select_factor_matrices and one tilted_block call over its non-empty
    dates, whose rows go by slice to its n books: the j-th book's are every
    n-th from row j. A capped dmft pool's caps take one member_caps call.
    The snapshots go when this returns."""
    block = [snapshot(panel, t, config) if snapshots is None else _given_snapshot(snapshots, panel, t, config)
             for t in dates]
    for s in sorted({s for s, _ in books.values()} & set(_TILTED)):
        held = [k for k, snap in enumerate(block) if pool_positions(snap, s, config).size]
        if not held:
            continue
        snaps = [block[k] for k in held]
        caps = None
        if s == "dmft" and config.caps is not None:
            caps = member_caps([snap.adv[pool_positions(snap, s, config)] for snap in snaps], config.caps)
        names = [name for name, (b, _) in books.items() if b == s]
        w, mult, cap_rows = tilted_block(pool_matrices(snaps, s, config), [books[name][1] for name in names], caps)
        rows = at + np.array(held)
        for j, name in enumerate(names):
            out_w, out_mult, out_caps = blocks[name]
            out_w[rows], out_mult[rows] = w[j :: len(names)], mult[j :: len(names)]
            if out_caps is not None:
                out_caps[rows] = cap_rows
    for k, snap in enumerate(block, at):
        for name, (s, _) in books.items():
            positions = pool_positions(snap, s, config)
            if s in ("ew_eligible", "ew_all") and positions.size:
                blocks[name][0][k, positions] = 1.0 / len(positions)
            elif s == "cap_weighted" and positions.size:
                w = blocks[name][0][k]
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
    fixed blocks, each holding period in pieces of one block, with one
    product and one row sum per piece over every book that holds
    something; the growth row, each book's last value and its drifted
    weights carry across a block boundary, so no bit depends on the block
    size (see the module docstring). An empty book earns exactly 0."""
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
    n_days, step = i_end + 1 - i_start, max(1, ROW_BLOCK_CELLS // panel.n_assets)
    trades = [cal.position(t) - i_start for t in dates[:n_reb]]
    drift = config.weight_mode == "drift"
    held = np.zeros((len(books), panel.n_assets))
    last = _last_prices(panel.price, i_start)
    daily = np.zeros((len(books), n_days))
    turnover = np.empty((len(books), n_reb))
    # segment j: the rows after trade j, through the next trade or `end`
    segments = list(zip(trades, trades[1:] + [n_days - 1]))
    rows = np.empty((min(step, n_days - 1) + 1, panel.n_assets))  # the prices, then the returns, of one block
    cells = np.empty(len(books) * min(step, max(b - a for a, b in segments)) * panel.n_assets)  # a piece's products
    r, first = None, 1 - step  # the returns of the block of rows first, ..., first + step - 1
    for j, (a, b) in enumerate(segments):
        target = np.array([v.w[j] for v in targets])  # books x assets, a copy that drift grows
        np.add.reduce(np.abs(target - held), axis=1, out=turnover[:, j])
        held = target
        live = np.flatnonzero(held.any(axis=1))  # an empty book holds cash at exactly zero
        w = held[live]
        growth, value = np.ones(panel.n_assets), np.add.reduce(w, axis=1)  # drift's carries from trade j
        lo = a + 1
        while lo <= b:  # one piece: the segment's rows in one block
            if lo >= first + step:  # the blocks follow each other: rows 1, 1 + step, ...
                first = lo
                r = _segment_returns(panel.price, last, i_start + first, i_start + min(first + step, n_days) - 1, rows)
            hi = min(b, first + step - 1)
            piece = r[lo - first : hi + 1 - first]
            if drift:
                # the piece's rows become each asset's growth since trade j
                piece += 1.0
                piece[0] *= growth
                np.multiply.accumulate(piece, axis=0, out=piece)
                growth = piece[-1].copy()
            part = np.multiply(piece, w[:, None], out=cells[: w.size * len(piece)].reshape(len(w), *piece.shape))
            if drift:
                v = np.empty((len(live), len(piece) + 1))
                v[:, 0] = value
                np.add.reduce(part, axis=2, out=v[:, 1:])
                daily[live, lo : hi + 1] = v[:, 1:] / v[:, :-1] - 1.0
                value = v[:, -1]
                if hi == b:
                    held[live] = part[:, -1] / value[:, None]
            else:
                daily[live, lo : hi + 1] = np.add.reduce(part, axis=2)
            lo = hi + 1
    costs = config.cost_rate * turnover
    daily[:, trades] -= costs
    equity = np.cumprod(1.0 + daily, axis=1)
    return {
        name: BacktestResult(strategy=s, dates=list(cal.days[i_start : i_end + 1]), daily_returns=daily[j],
                             equity_curve=equity[j], turnover=turnover[j], costs=costs[j], weights=v.head(n_reb))
        for j, (name, (s, v)) in enumerate(books.items())
    }


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
    # numbered column by column, a run of gaps is a run of consecutive numbers;
    # row 0 is never a gap, so no run reaches into the next column
    cells = np.flatnonzero(gaps.T)
    if cells.size:
        col, at = np.divmod(cells, len(rows))
        run = np.empty(cells.size, dtype=bool)  # the first cell of each run
        run[0] = True
        np.not_equal(np.diff(cells), 1, out=run[1:])
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
    *,
    snapshots: dict[str, AsOf] | None = None,
) -> dict[str, BacktestResult]:
    """Run the tilted strategy and all counterfactual baselines under
    identical data, schedule, and cost assumptions. Liquidity caps apply only
    to the screened tilted strategy (the screens guarantee ADV for every
    member; the unscreened pools do not). `snapshots`, when given, maps each
    rebalance date t to `snapshot(panel, t, config)`, which is then not
    rebuilt, nor are the pools and factor matrices it already keeps; a
    missing date or a snapshot of another panel, date or set of windows
    raises ConfigError."""
    return _run(panel, schedule, config, {s: (s, config.tilt) for s in STRATEGIES}, end, snapshots)


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
    *,
    snapshots: dict[str, AsOf] | None = None,
) -> dict[str, BacktestResult]:
    """The dmft book under the full tilt plus one per factor with that
    factor removed, for marginal contribution diagnostics, in one walk.
    `snapshots` is as in run_baselines."""
    books = {"full": ("dmft", config.tilt)}
    for f in config.tilt.alpha:
        books[f"drop_{f}"] = ("dmft", removal_tilt(config.tilt, f))
    return _run(panel, schedule, config, books, end, snapshots)
