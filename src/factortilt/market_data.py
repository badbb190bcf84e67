"""Market data panel: trading calendar, aligned price/volume/mktcap grids,
as-of fundamental records, CSV ingest/serialization, the rebalance schedule,
and the as-of snapshot every screen and signal reads.

All dates are ISO-8601 strings; lexicographic order equals chronological order.
Missing cells are NaN. Data observed at or after a date t never influences a
quantity computed "as of" t (history, dollar volume, signals downstream).
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from datetime import date as _date
from functools import partial
from itertools import compress
from operator import attrgetter, getitem
from pathlib import Path
from typing import NamedTuple, NoReturn

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


_REPORT_DATE = attrgetter("report_date")
_REPORT_FIELDS = ("book_equity", "roe", "gross_margin", "debt_to_assets")
_REPORT_VALUES = attrgetter(*_REPORT_FIELDS)


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
    The grids are read-only once the panel is built (assigning into one
    raises ValueError); reads are thread-safe.
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
        for arr in (self.price, self.volume, self.mktcap):
            arr.flags.writeable = False

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


_CELL_HEADER = ("date", "asset", "value")
_FUND_HEADER = ("report_date", "asset", *_REPORT_FIELDS)
_BLANK_LINE = re.compile(r"^[^\S\n]*(?:\n|\Z)", re.MULTILINE)
_UNWRITABLE_ID = re.compile(r'[,"\r\n]')


def _read_text(path: Path) -> str:
    """The file's text with CRLF and lone CR line ends turned into LF."""
    text = path.read_bytes().decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _line_count(body: str, width: int) -> int | None:
    """Number of lines in body when each holds exactly width - 1 commas
    (a last line without LF counts), else None."""
    buf = np.frombuffer(body.encode("utf-8"), np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if body and not body.endswith("\n"):
        ends = np.append(ends, buf.size)
    commas = np.flatnonzero(buf == ord(","))
    if commas.size != (width - 1) * ends.size:
        return None
    # positions are sorted, so line i holds exactly its share of the commas
    # when the last of them precedes its end and line i+1's first follows it
    by_line = commas.reshape(ends.size, width - 1)
    return ends.size if (by_line[:, -1] < ends).all() and (by_line[1:, 0] > ends[:-1]).all() else None


def _columns(path: Path, header: tuple[str, ...]) -> list[list[str]] | None:
    """The raw fields of each column of an ingest CSV, split once from the
    whole text, or None when the header or some line breaks the format.

    The format: a header matching `header` case-insensitively, no quoting
    (a '"' anywhere is an error), LF or CRLF line ends, blank lines skipped.
    """
    head, _, body = _read_text(path).partition("\n")
    if '"' in head or '"' in body or [h.strip().lower() for h in head.split(",")] != list(header):
        return None
    width = len(header)
    n = _line_count(body, width)
    if n is None:
        body = _BLANK_LINE.sub("", body)
        n = _line_count(body, width)
        if n is None:
            return None
    fields = body.replace("\n", ",").split(",")
    return [fields[j : width * n : width] for j in range(width)]


def _encode(column: list[str]) -> tuple[list[str], np.ndarray]:
    """The column's distinct stripped values in first-seen order, and each
    entry's integer code into them."""
    raw = dict.fromkeys(column)
    keys = dict.fromkeys(map(str.strip, raw))
    code = dict(zip(keys, range(len(keys))))
    raw_code = {r: code[r.strip()] for r in raw}
    return list(keys), np.fromiter(map(raw_code.__getitem__, column), np.intp, len(column))


def _drop_unused(keys: list[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    used = np.zeros(len(keys), bool)
    used[codes] = True
    return list(compress(keys, used.tolist())), (np.cumsum(used) - 1)[codes]


def _floats(column: list[str]) -> tuple[np.ndarray, np.ndarray | None]:
    """float() of every field, NaN where the field is empty, and the mask of
    non-empty fields (None when all are). Raises ValueError when a field
    does not parse."""
    try:
        return np.fromiter(map(float, column), float, len(column)), None
    except ValueError:
        stripped = list(map(str.strip, column))
        present = np.fromiter(map(bool, stripped), bool, len(stripped))
        values = np.full(len(column), np.nan)
        values[present] = np.fromiter(map(float, compress(stripped, present.tolist())), float,
                                      np.count_nonzero(present))
        return values, present


def _valid_keys(dates: list[str], assets: list[str]) -> bool:
    try:
        for d in dates:
            _iso(d)
    except DataError:
        return False
    return "" not in assets


def _checked_rows(path: Path, header: tuple[str, ...]):
    """Row-wise rescan that locates a bad line once a column check has
    failed: yields ("path:lineno", stripped fields) for each data line,
    raising DataError at the first line that breaks the format, holds an
    invalid date or has an empty asset id."""
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        where = f"{path}:{lineno}"
        if '"' in line:
            raise DataError(f"{where}: quoted fields are not supported")
        row = [f.strip() for f in line.split(",")]
        if lineno == 1:
            if [h.lower() for h in row] != list(header):
                raise DataError(f"{path}: expected header '{','.join(header)}'")
            continue
        if row == [""]:
            continue
        if len(row) != len(header):
            raise DataError(f"{where}: expected {len(header)} fields, got {len(row)}")
        try:
            _iso(row[0])
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
        if not row[1]:
            raise DataError(f"{where}: empty asset id")
        yield where, row


def _no_bad_line(path: Path) -> DataError:
    return DataError(f"{path}: rejected by a column check, but no line fails it")


def _raise_cell_error(path: Path, kind: str) -> NoReturn:
    seen: set[tuple[str, str]] = set()
    for where, (d, asset, raw) in _checked_rows(path, _CELL_HEADER):
        if not raw:
            continue
        try:
            value = float(raw)
        except ValueError:
            raise DataError(f"{where}: unparseable value {raw!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{where}: non-finite value for ({d},{asset})")
        if kind in ("price", "mktcap") and value <= 0:
            raise DataError(f"{where}: non-positive {kind} for cell ({d},{asset})")
        if kind == "volume" and value < 0:
            raise DataError(f"{where}: negative volume for cell ({d},{asset})")
        if (d, asset) in seen:
            raise DataError(f"{where}: duplicate cell ({d},{asset})")
        seen.add((d, asset))
    raise _no_bad_line(path)


def _raise_fundamentals_error(path: Path) -> NoReturn:
    for where, row in _checked_rows(path, _FUND_HEADER):
        for name, raw in zip(_REPORT_FIELDS, row[2:]):
            if not raw:
                continue
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"{where}: unparseable {name} {raw!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{where}: non-finite {name}")
    raise _no_bad_line(path)


class _Cells(NamedTuple):
    """One ingest file as columns: row i holds values[i] for
    (dates[date_code[i]], assets[asset_code[i]])."""

    dates: list[str]
    assets: list[str]
    date_code: np.ndarray
    asset_code: np.ndarray
    values: np.ndarray


def _read_cell_file(path, kind: str) -> _Cells:
    """Parse a long-format `date,asset,value` CSV.

    kind controls the cell validity rule: price and mktcap must be > 0,
    volume >= 0. An empty value field is treated as an absent cell. Every
    check runs on whole columns; when one fails, a row-wise rescan raises
    DataError naming the first bad line.
    """
    path = Path(path)
    columns = _columns(path, _CELL_HEADER)
    if columns is None:
        _raise_cell_error(path, kind)
    dates, date_code = _encode(columns[0])
    assets, asset_code = _encode(columns[1])
    try:
        values, present = _floats(columns[2])
    except ValueError:
        _raise_cell_error(path, kind)
    del columns
    if not _valid_keys(dates, assets):
        _raise_cell_error(path, kind)
    if present is not None:
        values = values[present]
        dates, date_code = _drop_unused(dates, date_code[present])
        assets, asset_code = _drop_unused(assets, asset_code[present])
    occupied = np.zeros(len(dates) * len(assets), bool)
    occupied[date_code * len(assets) + asset_code] = True
    in_range = values >= 0 if kind == "volume" else values > 0
    if not (np.isfinite(values).all() and in_range.all()) or np.count_nonzero(occupied) != values.size:
        _raise_cell_error(path, kind)
    return _Cells(dates, assets, date_code, asset_code, values)


def _read_fundamentals_file(path) -> _Cells:
    """Parse the fundamentals CSV; its values are (n_rows, len(_REPORT_FIELDS)),
    NaN where a metric is blank."""
    path = Path(path)
    columns = _columns(path, _FUND_HEADER)
    if columns is None:
        _raise_fundamentals_error(path)
    dates, date_code = _encode(columns[0])
    assets, asset_code = _encode(columns[1])
    try:
        parsed = [_floats(column) for column in columns[2:]]
    except ValueError:
        _raise_fundamentals_error(path)
    finite = all(np.isfinite(v if present is None else v[present]).all() for v, present in parsed)
    if not (finite and _valid_keys(dates, assets)):
        _raise_fundamentals_error(path)
    return _Cells(dates, assets, date_code, asset_code, np.column_stack([v for v, _ in parsed]))


def load_panel(price_file, volume_file, fundamentals_file, mktcap_file) -> MarketPanel:
    """Load and validate the four input CSVs into an aligned MarketPanel.

    Dates and assets are unioned across files; cells absent in a file are
    missing. Fundamental report dates falling on non-trading days inside the
    calendar span are snapped to the nearest prior trading day; dates outside
    the span are kept verbatim.
    """
    cells = [_read_cell_file(price_file, "price"), _read_cell_file(volume_file, "volume"),
             _read_cell_file(mktcap_file, "mktcap")]
    reports = _read_fundamentals_file(fundamentals_file)

    dates = sorted(set().union(*(c.dates for c in cells)))
    if not dates:
        raise DataError("no data cells found in price/volume/mktcap files")
    assets = sorted(set().union(*(c.assets for c in cells), reports.assets))
    calendar = TradingCalendar(tuple(dates))
    aidx = {a: i for i, a in enumerate(assets)}

    def grid(c: _Cells) -> np.ndarray:
        arr = np.full((len(dates), len(assets)), np.nan)
        rows = np.array([calendar.index[d] for d in c.dates], dtype=np.intp)
        cols = np.array([aidx[a] for a in c.assets], dtype=np.intp)
        arr[rows[c.date_code], cols[c.asset_code]] = c.values
        return arr

    def snap(d: str) -> str:
        in_span = calendar.days[0] <= d <= calendar.days[-1]
        return d if (d in calendar or not in_span) else (calendar.last_before(d) or d)

    # blank metrics become the math.nan singleton, so records compare equal
    values = reports.values.astype(object)
    values[np.isnan(reports.values)] = math.nan
    snapped = list(map(snap, reports.dates))
    fundamentals: dict[str, list[FundamentalRecord]] = {}
    seen: set[tuple[str, str]] = set()
    for di, ai, row in zip(reports.date_code.tolist(), reports.asset_code.tolist(), values.tolist()):
        d, asset = snapped[di], reports.assets[ai]
        if (asset, d) in seen:
            raise DataError(f"duplicate fundamental report ({d},{asset})")
        seen.add((asset, d))
        fundamentals.setdefault(asset, []).append(FundamentalRecord(d, *row))
    for asset in fundamentals:
        fundamentals[asset].sort(key=_REPORT_DATE)

    return MarketPanel(
        assets=assets,
        calendar=calendar,
        price=grid(cells[0]),
        volume=grid(cells[1]),
        mktcap=grid(cells[2]),
        fundamentals=fundamentals,
    )


def _metric_text(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


def save_panel(panel: MarketPanel, out_dir) -> dict[str, Path]:
    """Write the panel back to the four-file CSV format (non-missing cells
    only), as csv.writer would: `repr(float)` values, CRLF line ends. Asset
    ids the reader could not read back (empty, padded with whitespace, or
    holding ',', '"', CR or LF) raise DataError before anything is written.
    """
    for a in panel.assets:
        if not a or a != a.strip() or _UNWRITABLE_ID.search(a):
            raise DataError(f"asset id {a!r} cannot be written to CSV: ids must be non-empty, "
                            "unpadded and free of ',', '\"', CR and LF")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    grids = {"prices": panel.price, "volumes": panel.volume, "mktcap": panel.mktcap}
    for name, arr in grids.items():
        path = out / f"{name}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(_CELL_HEADER) + "\r\n")
            for d, row in zip(panel.calendar.days, np.asarray(arr, dtype=float)):
                present = np.isfinite(row)
                held = compress(panel.assets, present.tolist())
                fh.write("".join([f"{d},{a},{v!r}\r\n" for a, v in zip(held, row[present].tolist())]))
        paths[name] = path
    path = out / "fundamentals.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_FUND_HEADER) + "\r\n")
        fh.write("".join([
            ",".join([rec.report_date, asset, *map(_metric_text, _REPORT_VALUES(rec))]) + "\r\n"
            for asset in panel.assets
            for rec in panel.fundamentals.get(asset, [])
        ]))
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
