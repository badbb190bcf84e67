"""Market data panel: trading calendar, aligned price/volume/mktcap grids,
as-of fundamental reports, CSV ingest (with its parsed-panel cache) and
serialization, the rebalance schedule, and the as-of snapshot every screen
and signal reads.

All dates are `YYYY-MM-DD` strings; lexicographic order equals chronological order.
Missing cells are NaN. Data observed at or after a date t never influences a
quantity computed "as of" t (history, dollar volume, signals downstream).
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import re
from bisect import bisect_left, bisect_right
from contextlib import suppress
from dataclasses import dataclass, field
from datetime import date as _date
from functools import cache, cached_property, partial
from itertools import compress
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

DEFAULT_ANCHORS = ((1, 1), (7, 1))
# The price cells of the calendar rows a kernel that runs down the calendar
# (history_counts, backtest.evolve) holds at once: max(1, ROW_BLOCK_CELLS //
# n_assets) rows.
ROW_BLOCK_CELLS = 1 << 15
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def check_date(d: str) -> str:
    """d itself when it is a `YYYY-MM-DD` date, else DataError."""
    _iso(d)
    return d


def _iso(d: str) -> _date:
    """The date of a `YYYY-MM-DD` string. Any other form, even one
    `date.fromisoformat` takes (such as `20200102`), raises DataError: every
    date comparison here is a string comparison, and only this form sorts
    in date order."""
    try:
        if not _ISO_DATE.fullmatch(d):
            raise ValueError("expected YYYY-MM-DD")
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


_REPORT_FIELDS = ("book_equity", "roe", "gross_margin", "debt_to_assets")


@dataclass(frozen=True)
class RebalanceSchedule:
    dates: tuple[str, ...]

    def __post_init__(self):
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise DataError("rebalance dates not strictly increasing")

    def __len__(self) -> int:
        return len(self.dates)


class MarketPanel:
    """Aligned date x asset grids plus every asset's fundamental reports.

    Grids are (n_days, n_assets) float64, NaN for missing, never +-inf;
    prices and market caps are > 0 where present, volumes >= 0. Report i is
    the asset at position report_asset[i] reporting report_values[i] (the
    _REPORT_FIELDS, NaN where blank) on report_date[i], a YYYY-MM-DD date;
    each asset's reports are adjacent, in strictly increasing date order.
    Grids and report arrays are read-only (assigning into one raises
    ValueError); reads are thread-safe.

    `as_of_rows` is the panel's store of as-of rows (see as_of_row): empty
    on a new panel, filled by snapshots, never to be written by callers.
    """

    def __init__(self, assets: list[str], calendar: TradingCalendar, price: np.ndarray, volume: np.ndarray,
                 mktcap: np.ndarray, *, report_asset=(), report_date=(), report_values=()):
        self.assets, self.calendar, self.price, self.volume, self.mktcap = assets, calendar, price, volume, mktcap
        self.asset_index = {a: i for i, a in enumerate(assets)}
        self.report_asset = np.asarray(report_asset, dtype=np.intp)
        self.report_date = np.asarray(report_date, dtype=str)
        self.report_values = np.asarray(report_values, dtype=float).reshape(-1, len(_REPORT_FIELDS))
        shape = (len(calendar), len(assets))
        for name, arr in (("price", price), ("volume", volume), ("mktcap", mktcap)):
            if arr.shape != shape:
                raise DataError(f"{name} grid has shape {arr.shape}, expected {shape}")
        if len(set(assets)) != len(assets):
            raise DataError("duplicate asset ids")
        if any(np.isinf(a).any() for a in (price, volume, mktcap, self.report_values)):
            raise DataError("non-finite value in a grid or a report")
        # NaN compares false, so a missing cell passes each sign check
        if (price <= 0).any():
            raise DataError("non-positive price cell")
        if (volume < 0).any():
            raise DataError("negative volume cell")
        if (mktcap <= 0).any():
            raise DataError("non-positive market cap cell")
        self._check_reports()
        for arr in (price, volume, mktcap, self.report_asset, self.report_date, self.report_values):
            arr.flags.writeable = False
        self.as_of_rows: dict[tuple, np.ndarray] = {}

    def _check_reports(self) -> None:
        """DataError unless the report arrays agree in length, name the panel's
        assets and hold each asset's reports together, YYYY-MM-DD dates
        strictly rising."""
        asset, dates = self.report_asset, self.report_date
        if dates.shape != asset.shape or len(self.report_values) != len(asset):
            raise DataError("report asset, date and value arrays differ in length")
        for d in set(dates.tolist()):
            _iso(d)
        if asset.size and not 0 <= asset.min() <= asset.max() < self.n_assets:
            raise DataError(f"fundamentals for unknown asset positions {asset.min()}..{asset.max()} of {self.n_assets}")
        first = np.diff(asset, prepend=-1) != 0  # starts a run of one asset's reports
        apart = np.bincount(asset[first], minlength=self.n_assets) > 1
        if apart.any():
            raise DataError(f"fundamental records for {self.assets[np.argmax(apart)]} not sorted")
        out_of_order = ~first[1:] & (dates[1:] <= dates[:-1])
        if out_of_order.any():
            i = int(np.argmax(out_of_order))
            if dates[i] == dates[i + 1]:
                raise DataError(f"duplicate fundamental report ({dates[i]},{self.assets[asset[i]]})")
            raise DataError(f"fundamental records for {self.assets[asset[i]]} not sorted")

    @property
    def n_days(self) -> int:
        return len(self.calendar)

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    def positions(self, assets) -> np.ndarray:
        """Column positions of the given asset ids, in their order."""
        try:
            return np.fromiter(map(self.asset_index.__getitem__, assets), dtype=np.intp, count=len(assets))
        except KeyError as exc:
            raise DataError(f"unknown asset {exc.args[0]!r}") from None

    @cached_property
    def history_counts(self) -> np.ndarray:
        """Row k holds each asset's number of non-missing prices in the rows
        before k: (n_days + 1) x n_assets int32, read-only. Built on first
        use and held by the panel, so it lives as long as the panel does.
        The sums run down blocks of ROW_BLOCK_CELLS price cells, which stay
        in cache; each block starts from the last row of the one before."""
        counts = np.empty((self.n_days + 1, self.n_assets), dtype=np.int32)
        counts[0] = 0
        step = max(1, ROW_BLOCK_CELLS // self.n_assets)
        for i in range(0, self.n_days, step):
            block = counts[i : i + step + 1]  # row i holds the counts of the rows before it
            block[1:] = np.isfinite(self.price[i : i + step])
            np.add.accumulate(block, axis=0, out=block)
        counts.flags.writeable = False
        return counts

    @cached_property
    def report_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every asset's fundamental reports as two read-only arrays: report
        day numbers (days since 1970-01-01), n_assets x max_reports int64 in
        date order and padded with the int64 maximum, and the
        _REPORT_FIELDS values, 4 x n_assets x max_reports float64 (NaN
        padding). Built from the report arrays on first use, each distinct
        date converted once, and held by the panel, like history_counts."""
        first = np.diff(self.report_asset, prepend=-1) != 0
        rank = np.arange(first.size) - np.flatnonzero(first)[np.cumsum(first) - 1]  # place in its asset's run
        width = int(rank.max(initial=-1)) + 1
        distinct, which = np.unique(self.report_date, return_inverse=True)
        days = np.full((self.n_assets, width), np.iinfo(np.int64).max)
        days[self.report_asset, rank] = distinct.astype("datetime64[D]").astype(np.int64)[which]
        values = np.full((len(_REPORT_FIELDS), self.n_assets, width), np.nan)
        values[:, self.report_asset, rank] = self.report_values.T
        days.flags.writeable = values.flags.writeable = False
        return days, values

    def as_of_row(self, kernel, *args) -> np.ndarray:
        """kernel(self, *args), stored read-only in as_of_rows under
        (kernel, *args) on its first request and that same array on every
        later one, so each as-of row is computed once per panel. The store
        holds one entry per distinct request and lives as long as the
        panel. Two threads asking at once may both compute the row, but
        both get the one array stored."""
        key = (kernel, *args)
        row = self.as_of_rows.get(key)
        if row is None:
            row = kernel(self, *args)
            row.flags.writeable = False
            row = self.as_of_rows.setdefault(key, row)
        return row

    @property
    def fundamentals(self) -> dict[str, list[FundamentalRecord]]:
        """A new dict of the reports as records, asset by asset in array order, so editing it
        leaves the panel as it is. Metrics are Python floats, NaN the math.nan singleton."""
        values = self.report_values.astype(object)
        values[np.isnan(self.report_values)] = math.nan
        records: dict[str, list[FundamentalRecord]] = {}
        for i, d, row in zip(self.report_asset.tolist(), self.report_date.tolist(), values.tolist()):
            records.setdefault(self.assets[i], []).append(FundamentalRecord(d, *row))
        return records

    def missing_counts(self) -> dict[str, int]:
        return {
            "price": int(np.isnan(self.price).sum()),
            "volume": int(np.isnan(self.volume).sum()),
            "mktcap": int(np.isnan(self.mktcap).sum()),
        }


_CELL_HEADER = ("date", "asset", "value")
_FUND_HEADER = ("report_date", "asset", *_REPORT_FIELDS)
# Ingest reads each input file this many bytes at a time and parses it block
# by block, each block cut after its last line end: a parse holds one
# block's text and fields, plus the int32 codes and float64 values of the
# blocks read so far.
BLOCK_BYTES = 1 << 18
_BLANK_LINE = re.compile(r"^[^\S\n]*(?:\n|\Z)", re.MULTILINE)
_UNWRITABLE_ID = re.compile(r'[,"\r\n]')


def check_asset_ids(assets) -> None:
    """Raise DataError for the first asset id the CSV format cannot hold
    unchanged: empty, padded with whitespace, or holding ',', '"', CR or LF.
    Ingest never yields one, so a CSV writer needs no quoting for ids."""
    for a in assets:
        if not a or a != a.strip() or _UNWRITABLE_ID.search(a):
            raise DataError(f"asset id {a!r} cannot be written to CSV: ids must be non-empty, "
                            "unpadded and free of ',', '\"', CR and LF")


def _reads(path: Path):
    """The file's bytes in reads of BLOCK_BYTES; a file that cannot be read
    is a DataError naming it."""
    try:
        with open(path, "rb") as fh:
            yield from iter(partial(fh.read, BLOCK_BYTES), b"")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def _decoded(path: Path, data: bytes, offset: int) -> str:
    """The text of the file's bytes `data`, which start at `offset`, with
    CRLF and lone CR line ends turned into LF, and at the start of the file
    without a UTF-8 byte-order mark."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {offset + exc.start})") from None
    if not offset:
        text = text.removeprefix("\ufeff")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _blocks(path: Path, digests: list | None = None):
    """The file's text block by block, line ends turned into LF: each read
    is cut after its last line end and the rest carried into the next
    block, so a block holds whole lines (a line longer than a read spans
    reads) and only the last may lack a final LF. A byte-order mark that
    starts the file is dropped. An empty file is one empty block. The
    sha256 of the bytes read is appended to `digests`, when given, after
    the last block. A file that cannot be read, or is not UTF-8, is a
    DataError naming it, the bad byte's offset counted from the start of
    the file (a byte-order mark included)."""
    digest, offset, rest = hashlib.sha256(), 0, b""
    for chunk in _reads(path):
        digest.update(chunk)
        data = rest + chunk
        # a CR that ends the read may be the first half of a CRLF: it waits for the next read
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if cut:
            yield _decoded(path, data[:cut], offset)
            offset += cut
        rest = data[cut:]
    if rest or not offset:
        yield _decoded(path, rest, offset)
    if digests is not None:
        digests.append(digest.digest())


class _Rejected(Exception):
    """A column check failed; the row-wise rescan names the first bad line."""


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


class _Keys:
    """The distinct stripped values of a key column in first-seen order,
    carried across a file's blocks, and the code of each raw field seen."""

    def __init__(self):
        self.code: dict[str, int] = {}
        self.raw_code: dict[str, int] = {}

    def encode(self, column: list[str]) -> tuple[list[str], np.ndarray]:
        """The stripped values first seen in `column`, and the int32 code of
        each of its fields."""
        new = []
        for raw in dict.fromkeys(column):
            if raw not in self.raw_code:
                key = raw.strip()
                if key not in self.code:
                    self.code[key] = len(self.code)
                    new.append(key)
                self.raw_code[raw] = self.code[key]
        return new, np.fromiter(map(self.raw_code.__getitem__, column), np.int32, len(column))

    def used(self, codes) -> tuple[list[str], np.ndarray]:
        """The values some array of `codes` refers to, sorted, and the
        position among them of every code (-1 for the others)."""
        used = np.zeros(len(self.code), bool)
        for c in codes:
            used[c] = True
        kept = sorted(compress(self.code, used.tolist()))
        position = dict(zip(kept, range(len(kept))))
        return kept, np.array([position.get(key, -1) for key in self.code], dtype=np.intp)


def _valid_keys(dates: list[str], assets: list[str]) -> bool:
    try:
        for d in dates:
            _iso(d)
    except DataError:
        return False
    return "" not in assets


def _coded_blocks(path: Path, header: tuple[str, ...], dates: _Keys, assets: _Keys, digests: list | None):
    """Per block of the file's data lines (see _blocks), the int32 codes of
    its dates and asset ids in `dates` and `assets` and the raw fields of
    its other columns. Raises _Rejected at the first block where the header
    or a line breaks the format, a date is not YYYY-MM-DD or an asset id is
    empty.

    The format: a header matching `header` case-insensitively, no quoting
    (a '"' anywhere is an error), blank lines skipped.
    """
    width = len(header)
    for k, body in enumerate(_blocks(path, digests)):
        if k == 0:
            head, _, body = body.partition("\n")
            if '"' in head or [h.strip().lower() for h in head.split(",")] != list(header):
                raise _Rejected
        if '"' in body:
            raise _Rejected
        n = _line_count(body, width)
        if n is None:
            body = _BLANK_LINE.sub("", body)
            n = _line_count(body, width)
            if n is None:
                raise _Rejected
        fields = body.replace("\n", ",").split(",")
        columns = [fields[j : width * n : width] for j in range(width)]
        new_dates, date_code = dates.encode(columns[0])
        new_assets, asset_code = assets.encode(columns[1])
        if not _valid_keys(new_dates, new_assets):
            raise _Rejected
        del columns[:2]  # their fields are coded
        yield date_code, asset_code, columns


def _floats(column: list[str]) -> tuple[np.ndarray, np.ndarray | None]:
    """float() of every field, NaN where the field is empty, and the mask of
    non-empty fields (None when all are). Raises _Rejected when a field
    does not parse."""
    try:
        return np.fromiter(map(float, column), float, len(column)), None
    except ValueError:
        stripped = list(map(str.strip, column))
        present = np.fromiter(map(bool, stripped), bool, len(stripped))
        values = np.full(len(column), np.nan)
        try:
            values[present] = np.fromiter(map(float, compress(stripped, present.tolist())), float,
                                          np.count_nonzero(present))
        except ValueError:
            raise _Rejected from None
        return values, present


def _raise_line_error(path: Path, header: tuple[str, ...], kind: str | None = None) -> NoReturn:
    """Row-wise rescan that names the first bad line once a column check
    has failed: raises DataError "path:lineno: ..." at the first line that
    breaks the format, holds an invalid date, an empty asset id, or a
    value that does not parse or is not finite. `kind` is a cell file's
    value rule (price and mktcap > 0, volume >= 0; a cell given twice is
    an error too); None reads the fundamentals file. The whole file is
    decoded first, so one that is not UTF-8 raises that error whichever
    line is bad."""
    for _ in _blocks(path):
        pass
    names = ("value",) if kind else _REPORT_FIELDS
    seen: dict[str, set[str]] = {}  # assets per date, each id held once
    ids: dict[str, str] = {}
    lineno = 0
    for text in _blocks(path):
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        for line in lines:
            lineno += 1
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
            d, asset = row[:2]
            try:
                _iso(d)
            except DataError as exc:
                raise DataError(f"{where}: {exc}") from None
            if not asset:
                raise DataError(f"{where}: empty asset id")
            for name, raw in zip(names, row[2:]):
                if not raw:
                    continue
                try:
                    value = float(raw)
                except ValueError:
                    raise DataError(f"{where}: unparseable {name} {raw!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"{where}: non-finite {name} for ({d},{asset})")
                if kind in ("price", "mktcap") and value <= 0:
                    raise DataError(f"{where}: non-positive {kind} for cell ({d},{asset})")
                if kind == "volume" and value < 0:
                    raise DataError(f"{where}: negative volume for cell ({d},{asset})")
                if kind:
                    held = seen.setdefault(d, set())
                    if asset in held:
                        raise DataError(f"{where}: duplicate cell ({d},{asset})")
                    held.add(ids.setdefault(asset, asset))
    raise DataError(f"{path}: rejected by a column check, but no line fails it")


class _Grid(NamedTuple):
    """One cell file as a grid: values[i, j] is the cell (dates[i],
    assets[j]), NaN where the file has none. Dates and assets are sorted
    and each holds some cell."""

    dates: list[str]
    assets: list[str]
    values: np.ndarray


class _Cells(NamedTuple):
    """The fundamentals file as columns: row i holds values[i] for
    (dates[date_code[i]], assets[asset_code[i]])."""

    dates: list[str]
    assets: list[str]
    date_code: np.ndarray
    asset_code: np.ndarray
    values: np.ndarray


def _read_cell_file(path, kind: str, digests: list | None = None) -> _Grid:
    """Parse a long-format `date,asset,value` CSV.

    kind controls the cell validity rule: price and mktcap must be > 0,
    volume >= 0. An empty value field is treated as an absent cell. Every
    check runs on whole columns of a block; when one fails, a row-wise
    rescan raises DataError naming the first bad line. Only each block's
    int32 codes and float64 values outlive it, until they fill the grid.
    """
    path = Path(path)
    try:
        return _cell_grid(path, kind, digests)
    except _Rejected:
        _raise_line_error(path, _CELL_HEADER, kind)


def _cell_grid(path: Path, kind: str, digests: list | None) -> _Grid:
    dates, assets, blocks = _Keys(), _Keys(), []
    for date_code, asset_code, (column,) in _coded_blocks(path, _CELL_HEADER, dates, assets, digests):
        values, present = _floats(column)
        if present is not None:
            values, date_code, asset_code = values[present], date_code[present], asset_code[present]
        in_range = values >= 0 if kind == "volume" else values > 0
        if not (np.isfinite(values).all() and in_range.all()):
            raise _Rejected
        blocks.append((date_code, asset_code, values))
    date_names, row = dates.used(b[0] for b in blocks)
    asset_names, col = assets.used(b[1] for b in blocks)
    grid = np.full((len(date_names), len(asset_names)), np.nan)
    cells = 0
    while blocks:  # each block is released once it is in the grid
        date_code, asset_code, values = blocks.pop()
        grid.ravel()[row[date_code] * len(asset_names) + col[asset_code]] = values
        cells += values.size
    if grid.size - np.count_nonzero(np.isnan(grid)) != cells:  # a cell given twice
        raise _Rejected
    return _Grid(date_names, asset_names, grid)


def _read_fundamentals_file(path, digests: list | None = None) -> _Cells:
    """Parse the fundamentals CSV; its values are (n_rows, len(_REPORT_FIELDS)),
    NaN where a metric is blank."""
    path = Path(path)
    dates, assets, blocks = _Keys(), _Keys(), []
    try:
        for date_code, asset_code, columns in _coded_blocks(path, _FUND_HEADER, dates, assets, digests):
            parsed = [_floats(column) for column in columns]
            if not all(np.isfinite(v if present is None else v[present]).all() for v, present in parsed):
                raise _Rejected
            blocks.append((date_code, asset_code, np.column_stack([v for v, _ in parsed])))
    except _Rejected:
        _raise_line_error(path, _FUND_HEADER)
    return _Cells(list(dates.code), list(assets.code), *map(np.concatenate, zip(*blocks)))


def cache_path(price_file, volume_file, fundamentals_file, mktcap_file) -> Path:
    """The parsed-panel cache load_panel keeps for these four files, next to
    the price CSV: `.<price file name>.<digest of the four resolved paths>.factortilt.npz`.
    Configs that share a price file but not the other files keep one cache
    each; an edit to a file replaces its cache rather than adding one."""
    price_file = Path(price_file)
    where = "\0".join(str(Path(f).resolve()) for f in (price_file, volume_file, fundamentals_file, mktcap_file))
    return price_file.with_name(f".{price_file.name}.{hashlib.sha256(where.encode()).hexdigest()[:16]}.factortilt.npz")


@cache
def _source_sha256() -> bytes | None:
    """sha256 of this module's source, read once per process (at its first
    load_panel), or None when it cannot be read."""
    try:
        return hashlib.sha256(Path(__file__).read_bytes()).digest()
    except OSError:
        return None


def _file_digest(path) -> bytes:
    """sha256 of a file, read as _blocks reads it."""
    digest = hashlib.sha256()
    for chunk in _reads(path):
        digest.update(chunk)
    return digest.digest()


def _cache_key(digests) -> str:
    """sha256 over the sha256 of this module's source and of each input
    file, in the order the parse reads them (prices, volumes, mktcap,
    fundamentals). Hashing each file on its own keeps the file boundaries
    in the key."""
    return hashlib.sha256(b"".join([_source_sha256(), *digests])).hexdigest()


# The arrays every loaded panel is assembled from, in _assemble's order and
# under the names the cache stores them by. Those in _TEXT are lists of str
# in a parse and numpy string arrays in the cache.
_ARRAYS = ("assets", "days", "price", "volume", "mktcap", "report_asset", "report_date", "report_values")
_TEXT = ("assets", "days")


def _assemble(assets, days, price, volume, mktcap, report_asset, report_date, report_values) -> MarketPanel:
    """The panel of a parse's arrays or of a cache's: sorted `assets` and
    `days`, grids of (len(days), len(assets)) and MarketPanel's report
    arrays. Besides MarketPanel's rules this holds what a parse of the CSVs
    guarantees, so every loaded panel keeps it: asset ids the CSV format
    can hold; else DataError."""
    check_asset_ids(assets)
    return MarketPanel(assets, TradingCalendar(tuple(days)), price, volume, mktcap, report_asset=report_asset,
                       report_date=report_date, report_values=report_values)


def _read_cache(path: Path, files) -> MarketPanel | None:
    """The panel stored at `path` for the input `files` (in parse order), or
    None: silently when there is no such file, with one INFO line when it
    cannot serve them. The stored arrays are assembled as a parse's are,
    so the panel holds nothing a parse would reject."""
    if not path.exists():
        return None
    try:
        # np.load leaves a handle it opened unclosed when the archive is unreadable
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            if z["key"].item() != _cache_key(map(_file_digest, files)):
                raise ValueError("inputs or ingest code changed")
            return _assemble(*(z[name].tolist() if name in _TEXT else z[name] for name in _ARRAYS))
    except Exception as exc:  # any unusable cache is a miss
        log.info("parsed-panel cache %s not used (%s: %s); parsing the CSVs", path, type(exc).__name__, exc)
        return None


def _write_cache(path: Path, digests, arrays: tuple) -> None:
    """Store a parse's _ARRAYS at `path`, keyed by the parsed files'
    digests, through a temporary file moved into place; skipped, with one
    INFO line, when an asset id would not come back unchanged (numpy drops
    trailing NULs; dates are plain YYYY-MM-DD) or the directory refuses it."""
    stored = {name: np.array(a, dtype=str) if name in _TEXT else a for name, a in zip(_ARRAYS, arrays)}
    if stored["assets"].tolist() != arrays[0]:
        log.info("parsed-panel cache %s not written: an asset id does not survive a numpy string array", path)
        return
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, key=np.array(_cache_key(digests)), **stored)
        os.replace(tmp, path)
    except OSError as exc:
        log.info("parsed-panel cache %s not written (%s)", path, exc)
        with suppress(OSError):
            tmp.unlink()


def load_panel(price_file, volume_file, fundamentals_file, mktcap_file) -> MarketPanel:
    """parse_panel through the parsed-panel cache.

    The panel is kept in `cache_path(...)` of the four files, keyed by
    their bytes and those of this module, and served from there while all
    of them stay byte-identical; any unusable cache is a miss. The key of
    a parsed panel hashes the very bytes it was parsed from, so a file
    rewritten meanwhile is never stored under another file's key.
    """
    if _source_sha256() is None:  # no source to key by, so no cache
        return parse_panel(price_file, volume_file, fundamentals_file, mktcap_file)
    cache = cache_path(price_file, volume_file, fundamentals_file, mktcap_file)
    panel = _read_cache(cache, (price_file, volume_file, mktcap_file, fundamentals_file))
    if panel is None:
        digests: list[bytes] = []
        arrays = _parse_panel(price_file, volume_file, fundamentals_file, mktcap_file, digests)
        panel = _assemble(*arrays)
        _write_cache(cache, digests, arrays)
    return panel


def parse_panel(price_file, volume_file, fundamentals_file, mktcap_file) -> MarketPanel:
    """Load and validate the four input CSVs into an aligned MarketPanel,
    with no cache involved.

    Dates and assets are unioned across files; cells absent in a file are
    missing. Fundamental report dates falling on non-trading days inside the
    calendar span are snapped to the nearest prior trading day; dates outside
    the span are kept verbatim. Two reports of one asset on one date, after
    snapping, are a DataError naming the date and the asset.
    """
    return _assemble(*_parse_panel(price_file, volume_file, fundamentals_file, mktcap_file, None))


def _parse_panel(price_file, volume_file, fundamentals_file, mktcap_file, digests: list | None) -> tuple:
    """The _ARRAYS parse_panel assembles its panel from; the sha256 of each
    file's bytes is appended to `digests`, when given, as the file is
    read."""
    cells = [_read_cell_file(price_file, "price", digests), _read_cell_file(volume_file, "volume", digests),
             _read_cell_file(mktcap_file, "mktcap", digests)]
    reports = _read_fundamentals_file(fundamentals_file, digests)

    dates = sorted(set().union(*(c.dates for c in cells)))
    if not dates:
        raise DataError("no data cells found in price/volume/mktcap files")
    assets = sorted(set().union(*(c.assets for c in cells), reports.assets))
    calendar = TradingCalendar(tuple(dates))
    aidx = {a: i for i, a in enumerate(assets)}

    def grid(g: _Grid) -> np.ndarray:
        if g.dates == dates and g.assets == assets:  # the file's grid is the panel's
            return g.values
        arr = np.full((len(dates), len(assets)), np.nan)
        rows = np.array([calendar.index[d] for d in g.dates], dtype=np.intp)
        cols = np.array([aidx[a] for a in g.assets], dtype=np.intp)
        arr[np.ix_(rows, cols)] = g.values
        return arr

    def snap(d: str) -> str:
        in_span = calendar.days[0] <= d <= calendar.days[-1]
        return d if (d in calendar or not in_span) else (calendar.last_before(d) or d)

    snapped = list(map(snap, reports.dates))
    rank = np.unique(snapped, return_inverse=True)[1]
    # each asset's reports in date order, the assets in the order the file first names them
    order = np.lexsort((rank[reports.date_code], reports.asset_code))
    report_asset = np.array([aidx[a] for a in reports.assets], dtype=np.intp)[reports.asset_code[order]]
    report_date = np.array(snapped, dtype=str)[reports.date_code[order]]
    return assets, dates, *map(grid, cells), report_asset, report_date, reports.values[order]


def _metric_text(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


def save_panel(panel: MarketPanel, out_dir) -> dict[str, Path]:
    """Write the panel back to the four-file CSV format (non-missing cells
    only), as csv.writer would: `repr(float)` values, CRLF line ends. Asset
    ids the reader could not read back (empty, padded with whitespace, or
    holding ',', '"', CR or LF) raise DataError before anything is written.
    """
    check_asset_ids(panel.assets)
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
    rows = np.argsort(panel.report_asset, kind="stable")  # asset order, each asset's reports in date order
    reports = zip(panel.report_asset[rows].tolist(), panel.report_date[rows].tolist(),
                  panel.report_values[rows].tolist())
    paths["fundamentals"] = out / "fundamentals.csv"
    with paths["fundamentals"].open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_FUND_HEADER) + "\r\n")
        fh.writelines(",".join([d, panel.assets[i], *map(_metric_text, values)]) + "\r\n" for i, d, values in reports)
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
    return RebalanceSchedule(dates=tuple(sorted(hits)))


def _average_dollar_volumes(panel: MarketPanel, it: int, lookback: int) -> np.ndarray:
    if lookback < 1:
        raise ConfigError(f"lookback must be >= 1, got {lookback}")
    p = panel.price[max(0, it - lookback) : it]
    v = panel.volume[max(0, it - lookback) : it]
    valid = (np.isfinite(p) & np.isfinite(v)).T
    dollars = np.ascontiguousarray((p * v).T)
    counts = valid.sum(axis=1)
    # Left-pack the valid dollar volumes of the assets with k valid days in
    # day order, one row each, and sum the rows: the same contiguous
    # pairwise sum np.mean takes over an asset's valid days alone, so every
    # bit agrees with the per-asset mean.
    out = np.full(panel.n_assets, np.nan)
    for k in np.unique(counts[counts >= math.ceil(0.5 * lookback)]).tolist():
        rows = counts == k
        out[rows] = dollars[rows][valid[rows]].reshape(-1, k).sum(axis=1) / k
    return out


def _latest_reports(panel: MarketPanel, t: str, l_fund: int) -> np.ndarray:
    """(4, n_assets): the _REPORT_FIELDS of each asset's latest report."""
    days, values = panel.report_table
    t_day = np.datetime64(t, "D").astype(np.int64)
    n_before = (days < t_day).sum(axis=1)  # each asset's reports are sorted
    owner = np.flatnonzero(n_before)
    latest = n_before[owner] - 1
    fresh = t_day - days[owner, latest] <= l_fund
    owner, latest = owner[fresh], latest[fresh]
    out = np.full((len(_REPORT_FIELDS), panel.n_assets), np.nan)
    out[:, owner] = values[:, owner, latest]
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
    A row whose window is not given is None. Momentum needs skip >= 1.
    The adv row and the four report rows are read-only arrays the panel
    stores (MarketPanel.as_of_row), shared by every snapshot of that panel,
    date and window; the other rows are the snapshot's own. `panel`, `t`
    and `windows` (l_adv, l_mom, skip, l_fund) record what the snapshot was
    built from; `pools` and `matrices` keep what backtest.pool_positions and
    pool_matrices build from its rows.
    """

    def __init__(self, panel: MarketPanel, t: str, l_adv: int | None = None, l_mom: int | None = None,
                 skip: int = 1, l_fund: int | None = None):
        if l_mom is not None:
            check_skip(skip)
        it = panel.calendar.position(t)
        self.panel, self.t, self.windows = panel, t, (l_adv, l_mom, skip, l_fund)
        self.pools, self.matrices = {}, {}
        self.history = panel.history_counts[it].astype(np.int64)
        self.listed = self.history > 0
        self.mktcap = panel.mktcap[it - 1] if it > 0 else np.full(panel.n_assets, np.nan)
        self.adv = None if l_adv is None else panel.as_of_row(_average_dollar_volumes, it, l_adv)
        self.momentum = self.value = self.roe = self.gross_margin = self.debt_to_assets = None
        if l_mom is not None:
            self.momentum = np.full(panel.n_assets, np.nan)
            if it - l_mom - skip >= 0 and it - skip >= 0:
                # prices are > 0 or NaN, so the ratio is NaN exactly where either is missing
                self.momentum = panel.price[it - skip] / panel.price[it - l_mom - skip] - 1.0
        if l_fund is not None:
            book, self.roe, self.gross_margin, self.debt_to_assets = panel.as_of_row(_latest_reports, t, l_fund)
            self.value = np.where(book > 0, book / self.mktcap, np.nan)  # mktcap is > 0 or NaN


def check_skip(skip: int) -> None:
    """Momentum's skip must be at least one day: with skip = 0 it reads the
    price at t itself, a look-ahead."""
    if skip < 1:
        raise ConfigError(f"skip must be >= 1, got {skip}: skip = 0 reads the price at t itself")


def censor_panel(panel: MarketPanel, cutoff: str) -> MarketPanel:
    """Copy of the panel with every cell dated on or after `cutoff` missing and
    fundamental reports dated on or after `cutoff` dropped. The calendar is
    unchanged. Used by look-ahead checks: any quantity computed as of t must be
    identical on panel and censor_panel(panel, t). The copy is a new panel,
    so no as-of row stored on `panel` carries over."""
    ic = panel.calendar.position(cutoff)

    def blanked(arr):
        out = arr.copy()
        out[ic:, :] = np.nan
        return out

    kept = panel.report_date < cutoff
    return MarketPanel(list(panel.assets), panel.calendar, blanked(panel.price), blanked(panel.volume),
                       blanked(panel.mktcap), report_asset=panel.report_asset[kept],
                       report_date=panel.report_date[kept], report_values=panel.report_values[kept])
