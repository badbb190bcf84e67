"""Market data panel: trading calendar, aligned price/volume/mktcap grids,
as-of fundamental records, CSV ingest (with its parsed-panel cache) and
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
from dataclasses import dataclass, field, replace
from datetime import date as _date
from functools import cache, cached_property, partial
from itertools import compress
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

DEFAULT_ANCHORS = ((1, 1), (7, 1))
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


_REPORT_DATE = attrgetter("report_date")
_REPORT_FIELDS = ("book_equity", "roe", "gross_margin", "debt_to_assets")
_REPORT_VALUES = attrgetter(*_REPORT_FIELDS)


@dataclass(frozen=True)
class RebalanceSchedule:
    dates: tuple[str, ...]

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

    @cached_property
    def history_counts(self) -> np.ndarray:
        """Row k holds each asset's number of non-missing prices in the rows
        before k: (n_days + 1) x n_assets int32, read-only. Built on first
        use and held by the panel, so it lives as long as the panel does."""
        counts = np.zeros((self.n_days + 1, self.n_assets), dtype=np.int32)
        np.cumsum(np.isfinite(self.price), axis=0, dtype=np.int32, out=counts[1:])
        counts.flags.writeable = False
        return counts

    @cached_property
    def report_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every asset's fundamental reports as two read-only arrays: report
        day numbers (days since 1970-01-01), n_assets x max_reports int64 in
        date order and padded with the int64 maximum, and the
        _REPORT_FIELDS values, 4 x n_assets x max_reports float64 (NaN
        padding). Built from `fundamentals` on first use and held by the
        panel, like history_counts."""
        width = max(map(len, self.fundamentals.values()), default=0)
        days = np.full((self.n_assets, width), np.iinfo(np.int64).max)
        values = np.full((len(_REPORT_FIELDS), self.n_assets, width), np.nan)
        for asset, records in self.fundamentals.items():
            i, n = self.asset_index[asset], len(records)
            days[i, :n] = np.array(list(map(_REPORT_DATE, records)), dtype="datetime64[D]").astype(np.int64)
            values[:, i, :n] = np.array(list(map(_REPORT_VALUES, records)), dtype=float).reshape(n, -1).T
        days.flags.writeable = values.flags.writeable = False
        return days, values

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


def check_asset_ids(assets) -> None:
    """Raise DataError for the first asset id the CSV format cannot hold
    unchanged: empty, padded with whitespace, or holding ',', '"', CR or LF.
    Ingest never yields one, so a CSV writer needs no quoting for ids."""
    for a in assets:
        if not a or a != a.strip() or _UNWRITABLE_ID.search(a):
            raise DataError(f"asset id {a!r} cannot be written to CSV: ids must be non-empty, "
                            "unpadded and free of ',', '\"', CR and LF")


def _read_text(path: Path, digests: list | None = None) -> str:
    """The file's text with CRLF and lone CR line ends turned into LF; the
    size and sha256 of its bytes are appended to `digests` when given. A
    file that cannot be read, or is not UTF-8, is a DataError naming it."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    if digests is not None:
        digests.append((len(data), hashlib.sha256(data).digest()))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    del data
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


def _columns(path: Path, header: tuple[str, ...], digests: list | None = None) -> list[list[str]] | None:
    """The raw fields of each column of an ingest CSV, split once from the
    whole text, or None when the header or some line breaks the format.

    The format: a header matching `header` case-insensitively, no quoting
    (a '"' anywhere is an error), LF or CRLF line ends, blank lines skipped.
    """
    head, _, body = _read_text(path, digests).partition("\n")
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


def _read_cell_file(path, kind: str, digests: list | None = None) -> _Cells:
    """Parse a long-format `date,asset,value` CSV.

    kind controls the cell validity rule: price and mktcap must be > 0,
    volume >= 0. An empty value field is treated as an absent cell. Every
    check runs on whole columns; when one fails, a row-wise rescan raises
    DataError naming the first bad line.
    """
    path = Path(path)
    columns = _columns(path, _CELL_HEADER, digests)
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


def _read_fundamentals_file(path, digests: list | None = None) -> _Cells:
    """Parse the fundamentals CSV; its values are (n_rows, len(_REPORT_FIELDS)),
    NaN where a metric is blank."""
    path = Path(path)
    columns = _columns(path, _FUND_HEADER, digests)
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


def _file_digest(path) -> tuple[int, bytes]:
    """Size and sha256 of a file, read in 1 MiB chunks."""
    digest, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for chunk in iter(partial(fh.read, 1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return size, digest.digest()


def _cache_key(digests) -> str:
    """sha256 over the sha256 of this module's source and of each input
    file, in the order the parse reads them (prices, volumes, mktcap,
    fundamentals). Hashing each file on its own keeps the file boundaries
    in the key."""
    return hashlib.sha256(b"".join([_source_sha256(), *(d for _, d in digests)])).hexdigest()


def _records(values: np.ndarray) -> list[list[float]]:
    """Rows of a (n, len(_REPORT_FIELDS)) metric array as lists of floats,
    blank metrics as the math.nan singleton, so records compare equal."""
    rows = values.astype(object)
    rows[np.isnan(values)] = math.nan
    return rows.tolist()


def _read_cache(path: Path, files) -> MarketPanel | None:
    """The panel stored at `path` for the input `files` (in parse order), or
    None: silently when there is no such file, with one INFO line when it
    cannot serve them. The inputs are hashed only when their sizes match
    the stored ones. A hit re-applies the parse's value rules, so the panel
    it serves holds nothing a parse would reject."""
    if not path.exists():
        return None
    try:
        # np.load leaves a handle it opened unclosed when the archive is unreadable
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            if z["sizes"].tolist() != [os.path.getsize(f) for f in files] or \
                    z["key"].item() != _cache_key(map(_file_digest, files)):
                raise ValueError("inputs or ingest code changed")
            assets, values = z["assets"].tolist(), z["report_values"]
            grids = {name: z[name] for name in ("price", "volume", "mktcap")}
            if any(np.isinf(a).any() for a in (values, *grids.values())):
                raise ValueError("non-finite value")
            check_asset_ids(assets)
            report_dates = z["report_date"].tolist()
            for d in set(report_dates):
                _iso(d)
            fundamentals: dict[str, list[FundamentalRecord]] = {}
            for ai, d, row in zip(z["report_asset"].tolist(), report_dates, _records(values)):
                fundamentals.setdefault(assets[ai], []).append(FundamentalRecord(d, *row))
            return MarketPanel(assets=assets, calendar=TradingCalendar(tuple(z["days"].tolist())),
                               fundamentals=fundamentals, **grids)
    except Exception as exc:  # any unusable cache is a miss
        log.info("parsed-panel cache %s not used (%s: %s); parsing the CSVs", path, type(exc).__name__, exc)
        return None


def _write_cache(path: Path, digests, panel: MarketPanel) -> None:
    """Store the panel at `path`, keyed by the parsed files' digests, through
    a temporary file moved into place; skipped, with one INFO line, when an
    asset id would not come back unchanged (numpy drops trailing NULs;
    dates are plain YYYY-MM-DD) or the directory refuses it."""
    assets = np.array(panel.assets, dtype=str)
    if assets.tolist() != panel.assets:
        log.info("parsed-panel cache %s not written: an asset id does not survive a numpy string array", path)
        return
    owners = [a for a, recs in panel.fundamentals.items() for _ in recs]
    records = [r for recs in panel.fundamentals.values() for r in recs]
    values = np.array(list(map(_REPORT_VALUES, records)), dtype=float).reshape(-1, len(_REPORT_FIELDS))
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, key=np.array(_cache_key(digests)), sizes=np.array([n for n, _ in digests]),
                     assets=assets, days=np.array(panel.calendar.days, dtype=str),
                     price=panel.price, volume=panel.volume, mktcap=panel.mktcap,
                     report_asset=panel.positions(owners), report_values=values,
                     report_date=np.array(list(map(_REPORT_DATE, records)), dtype=str))
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
        digests: list[tuple[int, bytes]] = []
        panel = _parse_panel(price_file, volume_file, fundamentals_file, mktcap_file, digests)
        _write_cache(cache, digests, panel)
    return panel


def parse_panel(price_file, volume_file, fundamentals_file, mktcap_file) -> MarketPanel:
    """Load and validate the four input CSVs into an aligned MarketPanel,
    with no cache involved.

    Dates and assets are unioned across files; cells absent in a file are
    missing. Fundamental report dates falling on non-trading days inside the
    calendar span are snapped to the nearest prior trading day; dates outside
    the span are kept verbatim.
    """
    return _parse_panel(price_file, volume_file, fundamentals_file, mktcap_file, None)


def _parse_panel(price_file, volume_file, fundamentals_file, mktcap_file, digests: list | None) -> MarketPanel:
    """parse_panel; the size and sha256 of each file's bytes are appended
    to `digests`, when given, as the file is read."""
    cells = [_read_cell_file(price_file, "price", digests), _read_cell_file(volume_file, "volume", digests),
             _read_cell_file(mktcap_file, "mktcap", digests)]
    reports = _read_fundamentals_file(fundamentals_file, digests)

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

    snapped = list(map(snap, reports.dates))
    fundamentals: dict[str, list[FundamentalRecord]] = {}
    seen: set[tuple[str, str]] = set()
    for di, ai, row in zip(reports.date_code.tolist(), reports.asset_code.tolist(), _records(reports.values)):
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
    `panel`, `t` and `windows` (l_adv, l_mom, skip, l_fund) record what the
    snapshot was built from; `pools` and `matrices` keep what
    backtest.pool_positions and pool_matrix select from its rows.
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


def check_skip(skip: int) -> None:
    """Momentum's skip must be at least one day: with skip = 0 it reads the
    price at t itself, a look-ahead."""
    if skip < 1:
        raise ConfigError(f"skip must be >= 1, got {skip}: skip = 0 reads the price at t itself")


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
