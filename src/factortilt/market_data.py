"""Market data panel: trading calendar, aligned price/volume/mktcap grids,
as-of fundamental records, CSV ingest/serialization, the rebalance schedule,
and the as-of snapshot every screen and signal reads.

All dates are ISO-8601 strings; lexicographic order equals chronological order.
Missing cells are NaN. Data observed at or after a date t never influences a
quantity computed "as of" t (history, dollar volume, signals downstream).
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from datetime import date as _date
from functools import partial
from itertools import compress
from operator import attrgetter, getitem
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_ANCHORS = ((1, 1), (7, 1))


def _iso(d: str) -> _date:
    try:
        return _date.fromisoformat(d)
    except ValueError as exc:
        raise DataError(f"invalid ISO date {d!r}") from exc


@dataclass(frozen=True)
class TradingCalendar:
    """Ordered exchange trading days with O(1) date -> ordinal lookup."""

    days: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for d in self.days:
            _iso(d)
        for a, b in zip(self.days, self.days[1:]):
            if a >= b:
                raise DataError(f"calendar not strictly increasing at {a!r} >= {b!r}")
        object.__setattr__(self, "index", {d: i for i, d in enumerate(self.days)})

    def __len__(self) -> int:
        return len(self.days)

    def __contains__(self, day: str) -> bool:
        return day in self.index

    def position(self, day: str) -> int:
        try:
            return self.index[day]
        except KeyError:
            raise DataError(f"{day} is not a trading day") from None

    def snap_forward(self, day: str) -> str | None:
        """First trading day on or after `day`, or None past the end."""
        i = bisect_left(self.days, day)
        return self.days[i] if i < len(self.days) else None

    def last_on_or_before(self, day: str) -> str | None:
        i = bisect_right(self.days, day) - 1
        return self.days[i] if i >= 0 else None

    def last_before(self, day: str) -> str | None:
        i = bisect_left(self.days, day) - 1
        return self.days[i] if i >= 0 else None


@dataclass(frozen=True)
class FundamentalRecord:
    """One as-of accounting report; any metric may be NaN."""

    report_date: str
    book_equity: float = math.nan
    roe: float = math.nan
    gross_margin: float = math.nan
    debt_to_assets: float = math.nan


@dataclass(frozen=True)
class RebalanceSchedule:
    dates: tuple[str, ...]
    frequency: str = "semiannual"

    def __post_init__(self):
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DataError("rebalance dates not strictly increasing")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass
class MarketPanel:
    """Aligned date x asset grids plus per-asset fundamental histories.

    Arrays are (n_days, n_assets) float64 with NaN for missing. Prices and
    market caps are strictly positive where present; volumes are >= 0.
    The panel is immutable by convention after construction; reads are
    thread-safe.
    """

    assets: list[str]
    calendar: TradingCalendar
    price: np.ndarray
    volume: np.ndarray
    mktcap: np.ndarray
    fundamentals: dict[str, list[FundamentalRecord]]
    asset_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        shape = (len(self.calendar), len(self.assets))
        for name in ("price", "volume", "mktcap"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DataError(f"{name} grid has shape {arr.shape}, expected {shape}")
        if len(set(self.assets)) != len(self.assets):
            raise DataError("duplicate asset ids")
        with np.errstate(invalid="ignore"):
            if np.any(self.price[np.isfinite(self.price)] <= 0):
                raise DataError("non-positive price cell")
            if np.any(self.volume[np.isfinite(self.volume)] < 0):
                raise DataError("negative volume cell")
            if np.any(self.mktcap[np.isfinite(self.mktcap)] <= 0):
                raise DataError("non-positive market cap cell")
        for asset, records in self.fundamentals.items():
            if asset not in self.assets:
                raise DataError(f"fundamentals for unknown asset {asset!r}")
            dates = [r.report_date for r in records]
            if dates != sorted(dates):
                raise DataError(f"fundamental records for {asset} not sorted")
            if len(set(dates)) != len(dates):
                raise DataError(f"duplicate fundamental report date for {asset}")
        self.asset_index = {a: i for i, a in enumerate(self.assets)}

    @property
    def n_days(self) -> int:
        return len(self.calendar)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def position(self, asset: str) -> int:
        try:
            return self.asset_index[asset]
        except KeyError:
            raise DataError(f"unknown asset {asset!r}") from None

    def positions(self, assets) -> np.ndarray:
        """Column positions of the given asset ids, in their order."""
        try:
            return np.fromiter(map(self.asset_index.__getitem__, assets), dtype=np.intp, count=len(assets))
        except KeyError as exc:
            raise DataError(f"unknown asset {exc.args[0]!r}") from None

    def missing_counts(self) -> dict[str, int]:
        return {
            "price": int(np.isnan(self.price).sum()),
            "volume": int(np.isnan(self.volume).sum()),
            "mktcap": int(np.isnan(self.mktcap).sum()),
        }


def _read_cell_file(path, kind: str):
    """Parse a long-format `date,asset,value` CSV into {(date, asset): value}.

    kind controls the cell validity rule: price and mktcap must be > 0,
    volume >= 0. An empty value field is treated as an absent cell.
    """
    path = Path(path)
    cells: dict[tuple[str, str], float] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["date", "asset", "value"]:
            raise DataError(f"{path}: expected header 'date,asset,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            d, asset, raw = row[0].strip(), row[1].strip(), row[2].strip()
            _iso(d)
            if not asset:
                raise DataError(f"{path}:{lineno}: empty asset id")
            if not raw:
                continue
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparseable value {raw!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite value for ({d},{asset})")
            if kind in ("price", "mktcap") and value <= 0:
                raise DataError(f"{path}:{lineno}: non-positive {kind} for cell ({d},{asset})")
            if kind == "volume" and value < 0:
                raise DataError(f"{path}:{lineno}: negative volume for cell ({d},{asset})")
            if (d, asset) in cells:
                raise DataError(f"{path}:{lineno}: duplicate cell ({d},{asset})")
            cells[(d, asset)] = value
    return cells


def _read_fundamentals_file(path):
    path = Path(path)
    expected = ["report_date", "asset", "book_equity", "roe", "gross_margin", "debt_to_assets"]
    rows: list[tuple[str, str, float, float, float, float]] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != expected:
            raise DataError(f"{path}: expected header '{','.join(expected)}'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 6:
                raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
            d, asset = row[0].strip(), row[1].strip()
            _iso(d)
            if not asset:
                raise DataError(f"{path}:{lineno}: empty asset id")
            values = []
            for col, raw in zip(expected[2:], row[2:]):
                raw = raw.strip()
                if not raw:
                    values.append(math.nan)
                    continue
                try:
                    v = float(raw)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: unparseable {col} {raw!r}") from None
                if not math.isfinite(v):
                    raise DataError(f"{path}:{lineno}: non-finite {col}")
                values.append(v)
            rows.append((d, asset, *values))
    return rows


def load_panel(price_file, volume_file, fundamentals_file, mktcap_file) -> MarketPanel:
    """Load and validate the four input CSVs into an aligned MarketPanel.

    Dates and assets are unioned across files; cells absent in a file are
    missing. Fundamental report dates falling on non-trading days inside the
    calendar span are snapped to the nearest prior trading day; dates outside
    the span are kept verbatim.
    """
    price_cells = _read_cell_file(price_file, "price")
    volume_cells = _read_cell_file(volume_file, "volume")
    mktcap_cells = _read_cell_file(mktcap_file, "mktcap")
    fund_rows = _read_fundamentals_file(fundamentals_file)

    dates = sorted({d for d, _ in price_cells} | {d for d, _ in volume_cells} | {d for d, _ in mktcap_cells})
    if not dates:
        raise DataError("no data cells found in price/volume/mktcap files")
    assets = sorted(
        {a for _, a in price_cells}
        | {a for _, a in volume_cells}
        | {a for _, a in mktcap_cells}
        | {a for _, a, *_ in fund_rows}
    )
    calendar = TradingCalendar(tuple(dates))
    aidx = {a: i for i, a in enumerate(assets)}

    def grid(cells):
        arr = np.full((len(dates), len(assets)), np.nan)
        for (d, a), v in cells.items():
            arr[calendar.index[d], aidx[a]] = v
        return arr

    fundamentals: dict[str, list[FundamentalRecord]] = {}
    seen: set[tuple[str, str]] = set()
    for d, asset, be, roe, gm, dta in fund_rows:
        in_span = calendar.days[0] <= d <= calendar.days[-1]
        snapped = d if (d in calendar or not in_span) else (calendar.last_before(d) or d)
        if (asset, snapped) in seen:
            raise DataError(f"duplicate fundamental report ({snapped},{asset})")
        seen.add((asset, snapped))
        fundamentals.setdefault(asset, []).append(
            FundamentalRecord(snapped, book_equity=be, roe=roe, gross_margin=gm, debt_to_assets=dta)
        )
    for asset in fundamentals:
        fundamentals[asset].sort(key=lambda r: r.report_date)

    return MarketPanel(
        assets=assets,
        calendar=calendar,
        price=grid(price_cells),
        volume=grid(volume_cells),
        mktcap=grid(mktcap_cells),
        fundamentals=fundamentals,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def save_panel(panel: MarketPanel, out_dir) -> dict[str, Path]:
    """Write the panel back to the four-file CSV format (non-missing cells only)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    grids = {"prices": panel.price, "volumes": panel.volume, "mktcap": panel.mktcap}
    for name, arr in grids.items():
        path = out / f"{name}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "asset", "value"])
            for di, d in enumerate(panel.calendar.days):
                row = arr[di]
                for ai, a in enumerate(panel.assets):
                    if np.isfinite(row[ai]):
                        writer.writerow([d, a, _fmt(row[ai])])
        paths[name] = path
    path = out / "fundamentals.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["report_date", "asset", "book_equity", "roe", "gross_margin", "debt_to_assets"])
        for asset in panel.assets:
            for rec in panel.fundamentals.get(asset, []):
                writer.writerow(
                    [rec.report_date, asset]
                    + ["" if math.isnan(v) else _fmt(v)
                       for v in (rec.book_equity, rec.roe, rec.gross_margin, rec.debt_to_assets)]
                )
    paths["fundamentals"] = path
    return paths


def build_schedule(
    calendar: TradingCalendar,
    start: str,
    end: str,
    anchors=DEFAULT_ANCHORS,
) -> RebalanceSchedule:
    """Deterministic rebalance dates: for each year and (month, day) anchor in
    [start, end], the first trading day on or after the anchor."""
    if start > end:
        raise ConfigError(f"start {start} after end {end}")
    anchors = tuple(anchors)
    if not anchors:
        raise ConfigError("anchor list is empty")
    y0, y1 = _iso(start).year, _iso(end).year
    hits: set[str] = set()
    for year in range(y0, y1 + 1):
        for month, day in anchors:
            try:
                target = _date(year, month, day).isoformat()
            except ValueError as exc:
                raise ConfigError(f"invalid anchor ({month},{day})") from exc
            snapped = calendar.snap_forward(target)
            if snapped is not None and start <= snapped <= end:
                hits.add(snapped)
    if not hits:
        raise ConfigError("no rebalance dates in range")
    label = "semiannual" if set(anchors) == set(DEFAULT_ANCHORS) else f"anchors={len(anchors)}/yr"
    return RebalanceSchedule(dates=tuple(sorted(hits)), frequency=label)


_REPORT_DATE = attrgetter("report_date")
_REPORT_FIELDS = ("book_equity", "roe", "gross_margin", "debt_to_assets")


def _average_dollar_volumes(panel: MarketPanel, it: int, lookback: int) -> np.ndarray:
    if lookback < 1:
        raise ConfigError(f"lookback must be >= 1, got {lookback}")
    p = panel.price[max(0, it - lookback) : it].T
    v = panel.volume[max(0, it - lookback) : it].T
    valid = np.isfinite(p) & np.isfinite(v)
    counts = valid.sum(axis=1)
    # Left-pack each asset's valid dollar volumes in day order and sum the
    # first k of them for every asset with k valid days: the same contiguous
    # pairwise sum np.mean takes over the valid days alone, so every bit
    # agrees with the per-asset mean.
    packed = np.take_along_axis(p * v, np.argsort(~valid, axis=1, kind="stable"), axis=1)
    out = np.full(panel.n_assets, np.nan)
    for k in np.unique(counts[counts >= math.ceil(0.5 * lookback)]).tolist():
        rows = counts == k
        out[rows] = np.ascontiguousarray(packed[rows, :k]).sum(axis=1) / k
    return out


def _latest_reports(panel: MarketPanel, t: str, l_fund: int) -> np.ndarray:
    """(4, n_assets): the _REPORT_FIELDS of each asset's latest report."""
    out = np.full((len(_REPORT_FIELDS), panel.n_assets), np.nan)
    lists = panel.fundamentals.values()
    # each asset's records are sorted, so a bisection counts its reports before t
    bisect_t = partial(bisect_left, x=t, key=_REPORT_DATE)
    n_before = np.fromiter(map(bisect_t, lists), dtype=np.intp, count=len(lists))
    reported = n_before > 0
    latest = list(map(getitem, compress(lists, reported.tolist()), (n_before[reported] - 1).tolist()))
    age = np.datetime64(t, "D") - np.array(list(map(_REPORT_DATE, latest)), dtype="datetime64[D]")
    fresh = age.astype(np.int64) <= l_fund
    owner = panel.positions(panel.fundamentals)[reported][fresh]
    for row, name in enumerate(_REPORT_FIELDS):
        out[row, owner] = np.fromiter(map(attrgetter(name), latest), dtype=float, count=len(latest))[fresh]
    return out


class AsOf:
    """The as-of snapshot at rebalance date t: rows with one entry per panel
    asset, computed from data strictly before t, that screens, signals and
    baseline universes all select from.

    Always present: history (non-missing prices before t), listed
    (history > 0) and mktcap (at t-1). ADV averages price*volume over the
    l_adv days ending at t-1 where both are present, NaN with fewer than
    ceil(l_adv/2) such days, so gaps fail the screen rather than passing on
    thin data. Momentum is P[t-skip] / P[t-l_mom-skip] - 1, NaN before the
    calendar start or when either price is missing. Value (book to market)
    and the quality components roe, gross_margin and debt_to_assets read
    each asset's latest report dated strictly before t and no older than
    l_fund calendar days at t; value is missing when book equity is absent
    or non-positive (a negative ratio is not rankable) or mktcap is missing.
    A row whose window is not given is None.
    """

    def __init__(self, panel: MarketPanel, t: str, l_adv: int | None = None, l_mom: int | None = None,
                 skip: int = 0, l_fund: int | None = None):
        it = panel.calendar.position(t)
        self.t = t
        self.history = np.isfinite(panel.price[:it]).sum(axis=0)
        self.listed = self.history > 0
        self.mktcap = panel.mktcap[it - 1] if it > 0 else np.full(panel.n_assets, np.nan)
        self.adv = None if l_adv is None else _average_dollar_volumes(panel, it, l_adv)
        self.momentum = self.value = self.roe = self.gross_margin = self.debt_to_assets = None
        if l_mom is not None:
            self.momentum = np.full(panel.n_assets, np.nan)
            if it - l_mom - skip >= 0 and it - skip >= 0:
                p0, p1 = panel.price[it - l_mom - skip], panel.price[it - skip]
                with np.errstate(invalid="ignore", divide="ignore"):
                    self.momentum = np.where(np.isfinite(p0) & np.isfinite(p1), p1 / p0 - 1.0, np.nan)
        if l_fund is not None:
            book, self.roe, self.gross_margin, self.debt_to_assets = _latest_reports(panel, t, l_fund)
            with np.errstate(invalid="ignore", divide="ignore"):
                self.value = np.where((book > 0) & np.isfinite(self.mktcap), book / self.mktcap, np.nan)


def history_length(panel: MarketPanel, asset: str, t: str) -> int:
    """Number of non-missing prices strictly before t for the asset."""
    return int(AsOf(panel, t).history[panel.position(asset)])


def average_dollar_volume(panel: MarketPanel, asset: str, t: str, lookback: int) -> float:
    """Mean price*volume over the `lookback` trading days ending at t-1,
    under the coverage rule of AsOf."""
    return float(AsOf(panel, t, l_adv=lookback).adv[panel.position(asset)])


def censor_panel(panel: MarketPanel, cutoff: str) -> MarketPanel:
    """Copy of the panel with every cell dated on or after `cutoff` missing and
    fundamental records dated on or after `cutoff` dropped. The calendar is
    unchanged. Used by look-ahead checks: any quantity computed as of t must be
    identical on panel and censor_panel(panel, t)."""
    ic = panel.calendar.position(cutoff)

    def blanked(arr):
        out = arr.copy()
        out[ic:, :] = np.nan
        return out

    fundamentals = {
        a: [r for r in recs if r.report_date < cutoff] for a, recs in panel.fundamentals.items()
    }
    fundamentals = {a: recs for a, recs in fundamentals.items() if recs}
    return MarketPanel(
        assets=list(panel.assets),
        calendar=panel.calendar,
        price=blanked(panel.price),
        volume=blanked(panel.volume),
        mktcap=blanked(panel.mktcap),
        fundamentals=fundamentals,
    )


def truncate_calendar(panel: MarketPanel, last_day: str) -> MarketPanel:
    """Copy of the panel restricted to trading days <= last_day."""
    it = panel.calendar.position(last_day)
    cal = TradingCalendar(panel.calendar.days[: it + 1])
    fundamentals = {
        a: [replace(r) for r in recs if r.report_date <= last_day]
        for a, recs in panel.fundamentals.items()
    }
    fundamentals = {a: recs for a, recs in fundamentals.items() if recs}
    return MarketPanel(
        assets=list(panel.assets),
        calendar=cal,
        price=panel.price[: it + 1].copy(),
        volume=panel.volume[: it + 1].copy(),
        mktcap=panel.mktcap[: it + 1].copy(),
        fundamentals=fundamentals,
    )
