"""Command-line front end: validate, backtest, diagnose, synth.

Config files are INI-style (configparser) with one section per module. The
parameter classes are the schema of their sections: each field is a key,
parsed by the type of its default, and an omitted key keeps that default.
Every default is materialized into the run manifest so no setting is silent.
Outputs are plain CSV and contain nothing non-deterministic, so identical
configs produce byte-identical artifact directories.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import re
import shutil
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields, replace
from datetime import date
from itertools import chain, repeat, starmap
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import (
    STRATEGIES,
    BacktestConfig,
    pool_matrices,
    pool_positions,
    run_baselines,
    run_factor_removals,
    snapshot,
)
from .calibration import CalibrationParams, build_ic_series, information_ratio, ir_to_alpha
from .eligibility import EligibilityParams
from .errors import ConfigError, DataError, FactortiltError
from .factors import FACTORS, FactorParams
from .market_data import (
    DEFAULT_ANCHORS,
    build_schedule,
    check_date,
    load_panel,
    parse_panel,
    save_panel,
)
from .stats import factor_redundancy, summarize
from .synthetic import GENERATOR_NAME, ScenarioSpec, generate
from .weighting import CapParams, TiltParams

_CONVENTIONS = (
    ("turnover", "one-way sum|dw| per rebalance, range [0,2]"),
    ("costs", "cost_rate * one-way turnover, deducted from the rebalance day's return"),
    ("missing_return", "measured from the last valid price; zero on a day without a price; position carried"),
    ("empty_universe", "all-cash at exactly zero return until the next rebalance"),
    ("annualization_days", "252"),
    ("std_convention", "population (divide by N)"),
    ("winsorization", "linear-interpolation quantiles"),
    ("nw_auto_lag", "floor(4*(T/100)^(2/9))"),
    ("ic_forward_window", "starts at the rebalance date; overlaps the holding period"),
    ("taa_benchmark", "ew_eligible"),
)


@dataclass
class RunConfig:
    """A run config: the input paths and schedule, the statistics' settings,
    the tilted strategy's BacktestConfig, and the calibration (whose `apply`
    says whether the backtest tilts by it). Every value is checked when the
    config is built."""

    prices: Path
    volumes: Path
    mktcap: Path
    fundamentals: Path
    start: str
    end: str
    anchors: tuple[tuple[int, int], ...] = DEFAULT_ANCHORS
    n_trials: int = len(STRATEGIES)
    nw_lag: int | None = None  # None is the automatic lag
    out_dir: Path = Path("out")
    backtest: BacktestConfig = field(default_factory=BacktestConfig)
    calibration: CalibrationParams = field(default_factory=CalibrationParams)

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.nw_lag is not None and self.nw_lag < 0:
            raise ConfigError(f"nw_lag must be >= 0 or auto, got {self.nw_lag}")


def _parse_anchors(raw: str) -> tuple[tuple[int, int], ...]:
    """Comma-separated MM-DD anchors; a ValueError unless there is one or
    more and each is a day of every year (02-29 is not)."""
    anchors = tuple(tuple(map(int, part.split("-"))) for part in raw.split(",") if part.strip())
    for month, day in anchors:
        date(2001, month, day)  # a year that is not a leap year
    if not anchors:
        raise ValueError(raw)
    return anchors


# the parameter class each of these sections is read into
_PARAMS = {"eligibility": EligibilityParams, "factors": FactorParams, "tilt": TiltParams, "caps": CapParams,
           "calibration": CalibrationParams}


def _items(params) -> list[tuple[str, str, object]]:
    """(field, key, value) of each setting of a dataclass instance, in field
    order. The key is the field name, except `lambda` for lam and one
    alpha_<factor> per factor for the alpha mapping."""
    items = []
    for f in fields(params):
        value = getattr(params, f.name)
        if f.name == "alpha":
            items += [(f.name, f"alpha_{factor.lower()}", value[factor]) for factor in FACTORS]
        else:
            items.append((f.name, "lambda" if f.name == "lam" else f.name, value))
    return items


# every section and key load_config reads; anything else is rejected.
# `[caps] enabled` is the one key of a parameter section that its class
# does not hold: a CapParams means caps on
_KEYS = {
    "data": ("prices", "volumes", "mktcap", "fundamentals"),
    "run": ("start", "end", "anchors", "cost_rate", "weight_mode", "n_trials", "nw_lag", "out", "threads"),
    **{section: tuple(key for _, key, _ in _items(cls())) for section, cls in _PARAMS.items()},
}
_KEYS["caps"] = ("enabled", *_KEYS["caps"])


def _check_keys(cp, path: Path, keys: dict) -> None:
    """ConfigError unless every section of the file is in `keys` and every
    key of a section is one of its keys."""
    sections = (["DEFAULT"] if cp.defaults() else []) + cp.sections()
    for section in sections:
        if section not in keys:
            raise ConfigError(f"{path}: unknown section [{section}]; valid sections: "
                              + ", ".join(f"[{s}]" for s in keys))
        unknown = [k for k in cp.options(section) if k not in keys[section]]
        if unknown:
            raise ConfigError(f"{path}: unknown key {unknown[0]!r} in [{section}]; valid keys: "
                              + ", ".join(keys[section]))


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(map(float, raw.split(",")))


def _get(cp, section, key, default, parse=None):
    """The value of `key` in [section], or `default` when it is omitted.
    The parser is `parse`, else the type of the default (configparser's
    BOOLEAN_STATES, case-insensitive, for a bool; comma-separated floats
    for a tuple)."""
    if not cp.has_option(section, key):
        return default
    parse = parse or (_floats if isinstance(default, tuple) else type(default))
    raw = cp.get(section, key).strip()
    try:
        return cp.BOOLEAN_STATES[raw.lower()] if parse is bool else parse(raw)
    except (ValueError, TypeError, KeyError):
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def _params(cp, section, cls):
    """[section] read into the parameter class `cls`; an omitted key keeps
    the class default."""
    kwargs = {}
    for name, key, default in _items(cls()):
        value = _get(cp, section, key, default)
        if name == "alpha":
            kwargs.setdefault(name, {})[key.removeprefix("alpha_").upper()] = value
        else:
            kwargs[name] = value
    return cls(**kwargs)


def _read_ini(path: Path, kind: str, section: str | None = None):
    """The INI file at `path`, named a `kind` file in errors; text before its first header is in [section]."""
    if not path.exists():
        raise ConfigError(f"{kind} file {path} does not exist")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)  # '%' is text
    try:
        text = path.read_text(encoding="utf-8")
        first = next((line for line in map(str.strip, text.splitlines()) if line and line[0] not in "#;"), "")
        added = 1 if section and first and not first.startswith("[") else 0  # a header line
        cp.read_string(f"[{section}]\n" * added + text, source=str(path))
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from None
    except configparser.Error as exc:  # names the file and the line, not counting an added header
        message = re.sub(r"\[line\s+(\d+)\]", lambda m: f"[line {int(m[1]) - added:2d}]", str(exc))
        raise ConfigError(re.sub(r"\s*\n\s*", " ", message)) from None
    return cp


def load_config(path, out_override=None) -> RunConfig:
    """Parse an INI run config; missing keys take the defaults of the
    classes they configure, and unknown sections or keys are a ConfigError.
    Each parameter section is read into its class, `[calibration] apply`
    included; `[caps] enabled` says whether the backtest gets a CapParams.
    `[run] threads` is parsed for compatibility and has no effect."""
    path = Path(path)
    cp = _read_ini(path, "config")
    _check_keys(cp, path, _KEYS)
    for section in ("data", "run"):
        if not cp.has_section(section):
            raise ConfigError(f"{path}: missing [{section}] section")

    def data_path(key):
        if not cp.has_option("data", key):
            raise ConfigError(f"{path}: missing [data] {key}")
        p = Path(cp.get("data", key).strip())
        return p if p.is_absolute() else path.parent / p

    start = _get(cp, "run", "start", None, check_date)  # a DataError is a ValueError
    end = _get(cp, "run", "end", None, check_date)
    if start is None or end is None:
        raise ConfigError(f"{path}: [run] start and end are required")
    _get(cp, "run", "threads", None, int)
    caps = _params(cp, "caps", CapParams)  # parsed and checked even when caps are off
    return RunConfig(
        *map(data_path, _KEYS["data"]),
        start=start, end=end,
        anchors=_get(cp, "run", "anchors", RunConfig.anchors, _parse_anchors),
        n_trials=_get(cp, "run", "n_trials", RunConfig.n_trials),
        nw_lag=_get(cp, "run", "nw_lag", RunConfig.nw_lag, lambda raw: None if raw == "auto" else int(raw)),
        out_dir=Path(out_override) if out_override is not None else _get(cp, "run", "out", RunConfig.out_dir),
        backtest=BacktestConfig(
            cost_rate=_get(cp, "run", "cost_rate", BacktestConfig.cost_rate),
            weight_mode=_get(cp, "run", "weight_mode", BacktestConfig.weight_mode),
            eligibility=_params(cp, "eligibility", EligibilityParams),
            factors=_params(cp, "factors", FactorParams),
            tilt=_params(cp, "tilt", TiltParams),
            caps=caps if _get(cp, "caps", "enabled", False) else None,
        ),
        calibration=_params(cp, "calibration", CalibrationParams),
    )


def _fields(column) -> list[str]:
    """One column's fields as a list of str: a float array's values as their
    shortest round-trip `repr`, NaN as an empty field, any other array's as
    `str`. An array is formatted once per run of equal values, a float
    array's runs compared by their bits, so 0.0 and -0.0 are never merged.
    A sequence of str is returned as it is, any other as `str` of each
    value."""
    if not isinstance(column, np.ndarray):
        return column if all(map(isinstance, column, repeat(str))) else list(map(str, column))
    floats = column.dtype.kind == "f"
    keys = column.view(f"i{column.itemsize}") if floats else column
    starts = np.ones(column.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    heads = column[starts]
    text = np.array(list(map(repr if floats else str, heads.tolist())), dtype=object)
    if floats:
        text[np.isnan(heads)] = ""
    return text.repeat(np.diff(np.append(np.flatnonzero(starts), column.size))).tolist()


def _table(header: list[str], columns) -> str:
    """One CSV table: the header row, then one row per index of the equally
    long columns, each line ended by CRLF."""
    rows = map(",".join, zip(*map(_fields, columns), strict=True))
    return "\r\n".join(chain([",".join(header)], rows, [""]))


def _write_csv(path: Path, *tables: tuple[list[str], list], note: str = "") -> None:
    """Write an artifact in one go: `note` (a comment line, if any), then
    the (header, columns) tables separated by a blank row.

    The text is what Python's `csv.writer` would write: CRLF line ends and
    floats as `repr`, NaN empty. Nothing is quoted, so no field may need
    quoting (a ',', '"', CR or LF, or an empty lone field): dates are
    YYYY-MM-DD calendar strings, metric and factor names are fixed, every
    table has two or more columns, and asset ids pass `check_asset_ids`
    once per panel when the inputs are loaded."""
    path.write_text(note + "\r\n".join(starmap(_table, tables)), encoding="utf-8", newline="")


def _echo(value) -> str:
    """A setting as a manifest writes it: a string or path as it is, a
    tuple as the repr of each item joined with ',', anything else as its
    repr."""
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return str(value) if isinstance(value, (str, Path)) else repr(value)


def _manifest(head: list[str], sections: dict) -> str:
    """The head lines, then each section's `key = value` lines (values
    echoed), each block after a blank line."""
    blocks = [head] + [[f"[{name}]"] + [f"{key} = {_echo(value)}" for key, value in items]
                       for name, items in sections.items()]
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


def write_manifest(cfg: RunConfig, path: Path, extra: list[tuple[str, str]] | None = None) -> None:
    """Echo every effective setting, defaults included, plus the fixed
    conventions in force. Deliberately timestamp-free."""
    bt = cfg.backtest
    sections = {
        "data": [(key, getattr(cfg, key)) for key in _KEYS["data"]],
        "run": [("start", cfg.start), ("end", cfg.end),
                ("anchors", ",".join(f"{m:02d}-{d:02d}" for m, d in cfg.anchors)), ("cost_rate", bt.cost_rate),
                ("weight_mode", bt.weight_mode), ("n_trials", cfg.n_trials),
                ("nw_lag", "auto" if cfg.nw_lag is None else cfg.nw_lag)],
    }
    for section in _PARAMS:
        params = cfg.calibration if section == "calibration" else getattr(bt, section)
        sections[section] = [] if params is None else [(key, value) for _, key, value in _items(params)]
    sections["caps"].insert(0, ("enabled", bt.caps is not None))
    sections["conventions"] = _CONVENTIONS
    if extra:
        sections["notes"] = extra
    path.write_text(_manifest([f"factortilt {__version__}"], sections), encoding="utf-8")


def _load_inputs(cfg: RunConfig, cached: bool = True):
    load = load_panel if cached else parse_panel
    panel = load(cfg.prices, cfg.volumes, cfg.fundamentals, cfg.mktcap)
    schedule = build_schedule(panel.calendar, cfg.start, cfg.end, cfg.anchors)
    return panel, schedule


def cmd_validate(cfg: RunConfig) -> int:
    """Parse the CSVs (never through the parsed-panel cache, which this
    check neither reads nor writes), check every invariant, and print
    summary counts."""
    try:
        panel, schedule = _load_inputs(cfg, cached=False)
    except (DataError, ConfigError) as exc:
        print(f"INVALID: {exc}")
        return 1
    missing = panel.missing_counts()
    print(f"assets: {panel.n_assets}")
    print(f"trading days: {panel.n_days} ({panel.calendar.days[0]} .. {panel.calendar.days[-1]})")
    for grid, count in missing.items():
        print(f"missing {grid} cells: {count}")
    print(f"fundamental records: {len(panel.report_asset)}")
    print(f"rebalance dates: {len(schedule)} ({schedule.dates[0]} .. {schedule.dates[-1]})")
    print("OK")
    return 0


def _screens_and_factors(panel, schedule, config: BacktestConfig):
    """Per rebalance date, the as-of snapshot and the screened members'
    factor matrix (where there are members), which the panel stores for
    the walk that follows."""
    snapshots = {t: snapshot(panel, t, config) for t in schedule.dates}
    dated = [t for t, snap in snapshots.items() if pool_positions(snap, "dmft", config).size]
    matrices = dict(zip(dated, pool_matrices([snapshots[t] for t in dated], "dmft", config)))
    return snapshots, matrices


def _concat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0)


def _write_screens(panel, snapshots, matrices, out: Path) -> None:
    """eligibility.csv (every panel asset at every rebalance date, with the
    snapshot's history and ADV, and whether it is a screened member) and
    factors.csv (each member's raw and z per factor)."""
    eligible = np.zeros((len(snapshots), panel.n_assets), dtype=int)
    for k, t in enumerate(snapshots):
        if t in matrices:  # a date without members has no matrix
            eligible[k, matrices[t].positions] = 1
    _write_csv(out / "eligibility.csv", (["date", "asset", "history_days", "adv", "eligible"], [
        np.array(list(snapshots), dtype=object).repeat(panel.n_assets).tolist(),
        panel.assets * len(snapshots),
        _concat([snap.history for snap in snapshots.values()]),
        _concat([snap.adv for snap in snapshots.values()]),
        eligible.ravel(),
    ]))
    members = np.array([len(m.assets) for m in matrices.values()], dtype=np.intp)  # per date
    assets = np.array(list(chain.from_iterable(m.assets for m in matrices.values())), dtype=object)
    _write_csv(out / "factors.csv", (["date", "asset", "factor", "raw", "z"], [
        np.array(list(matrices), dtype=object).repeat(members * len(FACTORS)).tolist(),
        assets.repeat(len(FACTORS)).tolist(),
        list(FACTORS) * len(assets),
        _concat([m.raw.ravel() for m in matrices.values()]),
        _concat([m.z.ravel() for m in matrices.values()]),
    ]))


def _weight_columns(result) -> list:
    """Date, asset, weight, multiplier (1 when untilted) and liquidity cap
    (empty when uncapped) of the held assets at each rebalance, date by
    date."""
    targets = result.weights
    held = rows, cols = np.nonzero(targets.w)
    return [np.array(targets.dates, dtype=object)[rows].tolist(), np.array(targets.assets, dtype=object)[cols].tolist(),
            targets.w[held], np.ones(len(rows)) if targets.multipliers is None else targets.multipliers[held],
            np.full(len(rows), np.nan) if targets.caps is None else targets.caps[held]]


def _write_results(results, cfg: RunConfig, out: Path) -> list[tuple[str, str]]:
    """Every book's returns, turnover, weights and stats files; returns one
    manifest note per statistic left blank, naming the book, the statistic
    and why it is undefined."""
    notes = []
    for name in STRATEGIES:
        res = results[name]
        for kind, header, columns in (
            ("returns", ["date", "return", "equity"], [res.dates, res.daily_returns, res.equity_curve]),
            ("turnover", ["date", "turnover", "cost"], [res.rebalance_dates, res.turnover, res.costs]),
            ("weights", ["date", "asset", "weight", "multiplier", "cap"], _weight_columns(res)),
        ):
            _write_csv(out / f"{kind}_{name}.csv", (header, columns))
    benchmark = results["ew_eligible"]
    for name in STRATEGIES:
        report = summarize(results[name], benchmark=benchmark, n_trials=cfg.n_trials, nw_lag=cfg.nw_lag)
        metrics, values = zip(*report.rows())
        # counts (nw_lag, n_trials) are written as integers
        floats = _fields(np.array(values, dtype=float))
        values = [f if isinstance(v, float) else v for v, f in zip(values, floats)]
        _write_csv(out / f"stats_{name}.csv", (["metric", "value"], [metrics, values]))
        notes += [(f"stats_{name}.{metric}", f"blank: {reason}") for metric, reason in report.undefined.items()]
    return notes


def _check_out_dir(out: Path) -> None:
    """ConfigError unless `out` is a directory or can be made one: neither
    it nor the nearest of its ancestors that exists may be anything else."""
    existing = next(d for d in (out, *out.parents) if d.exists())
    if existing.is_dir():
        return
    if existing == out:
        raise ConfigError(f"output path {out} exists and is not a directory")
    raise ConfigError(f"output path {out} cannot be made: {existing} is not a directory")


@contextmanager
def _staged_out(out: Path):
    """Yield a new hidden sibling directory of `out` to write the files
    into. When the block succeeds and no file's name is a directory in
    `out`, each file is moved into `out` (created if absent) with
    `os.replace`, the manifest last; else the sibling and the parent
    directories made for it are removed, `out` is left as it was, and an
    OSError is a ConfigError. Files in `out` are never deleted, only
    overwritten by a new file of the same name."""
    _check_out_dir(out)
    parent = out.resolve().parent
    created = [d for d in (parent, *parent.parents) if not d.exists()]  # deepest first
    parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=parent, prefix=f".{out.name}."))
    try:
        yield stage
        staged = sorted(stage.iterdir(), key=lambda p: p.name == "manifest.txt")
        for path in staged:
            if (out / path.name).is_dir():
                raise ConfigError(f"cannot write {out / path.name}: it is a directory")
        out.mkdir(exist_ok=True)
        for path in staged:
            os.replace(path, out / path.name)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from None
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        if not out.exists():  # the block raised
            for directory in created:
                with suppress(OSError):  # kept if something else wrote into it meanwhile
                    directory.rmdir()


def cmd_backtest(cfg: RunConfig) -> int:
    """Run the tilted strategy plus all baselines and write the artifact set."""
    with _staged_out(cfg.out_dir) as out:
        panel, schedule = _load_inputs(cfg)
        notes = []
        config = cfg.backtest
        snapshots, matrices = _screens_and_factors(panel, schedule, config)
        _write_screens(panel, snapshots, matrices, out)
        if cfg.calibration.apply:
            ics = build_ic_series(panel, schedule, matrices, cfg.calibration)
            if ics:
                alpha = ir_to_alpha(ics, cfg.calibration.m_min)
                config = replace(config, tilt=replace(config.tilt, alpha=alpha))
                notes.append(("calibrated_alpha", ",".join(f"{f}={alpha[f]!r}" for f in FACTORS)))
        # calibration changes only the tilt, which no pool or factor matrix reads
        results = run_baselines(panel, schedule, config, end=cfg.end)
        notes += _write_results(results, cfg, out)
        write_manifest(cfg, out / "manifest.txt", extra=notes or None)
    return 0


def cmd_diagnose(cfg: RunConfig) -> int:
    """Write IC/IR and factor-redundancy reports; backtest outputs untouched."""
    with _staged_out(cfg.out_dir) as out:
        panel, schedule = _load_inputs(cfg)
        config = cfg.backtest
        _, matrices = _screens_and_factors(panel, schedule, config)
        ics = build_ic_series(panel, schedule, matrices, cfg.calibration)
        names = sorted(ics)
        alpha = ir_to_alpha(ics, cfg.calibration.m_min) if ics else {}
        _write_csv(
            out / "ic_ir.csv",
            (["factor", "date", "ic"], [
                [f for f in names for _ in ics[f].dates],
                [d for f in names for d in ics[f].dates],
                _concat([ics[f].values for f in names]),
            ]),
            (["factor", "ir", "alpha"], [
                names,
                np.array([information_ratio(ics[f].values, cfg.calibration.m_min) for f in names], dtype=float),
                np.array([alpha[f] for f in names], dtype=float),
            ]),
            note="# forward window starts at the rebalance date and overlaps the holding period\n",
        )

        removals = run_factor_removals(panel, schedule, config, end=cfg.end)
        factors, corr, marginal = factor_redundancy(matrices.values(), removals)
        pairs = [(i, j) for i in range(len(factors)) for j in range(i + 1, len(factors))]
        _write_csv(out / "factor_diagnostics.csv", (["metric", "factor_a", "factor_b", "value"], [
            ["correlation"] * len(pairs) + ["marginal_sharpe"] * len(factors),
            [factors[i] for i, _ in pairs] + list(factors),
            [factors[j] for _, j in pairs] + [""] * len(factors),
            np.array([corr[i, j] for i, j in pairs] + [marginal[f] for f in factors], dtype=float),
        ]))
    return 0


def cmd_synth(spec_path, out_dir, seed_override=None) -> int:
    """Generate a synthetic panel from a scenario file and write the four
    market-data CSVs plus a manifest, staged as backtest's artifacts are."""
    path = Path(spec_path)
    cp = _read_ini(path, "scenario", section="scenario")
    _check_keys(cp, path, {"scenario": [key for _, key, _ in _items(ScenarioSpec())]})
    if not cp.has_section("scenario"):
        raise ConfigError(f"{path}: empty scenario file")
    if seed_override is not None:  # replaces the file's seed before anything is parsed
        cp.set("scenario", "seed", str(seed_override))
    spec = _params(cp, "scenario", ScenarioSpec)
    out = Path(out_dir)
    with _staged_out(out) as stage:
        save_panel(generate(spec), stage)
        head = [f"factortilt {__version__}", f"generator = {GENERATOR_NAME}", f"numpy = {np.__version__}"]
        text = _manifest(head, {"scenario": [(key, value) for _, key, value in _items(spec)]})
        (stage / "manifest.txt").write_text(text, encoding="utf-8")
    print(f"wrote synthetic panel ({spec.n_assets} assets x {spec.n_days} days) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factortilt",
        description="Eligibility-screened, factor-tilted portfolio backtesting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("validate", "load inputs and check every data invariant"),
        ("backtest", "run the tilted strategy and all baselines"),
        ("diagnose", "write IC/IR and factor-redundancy reports"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run config file (INI)")
        p.add_argument("--out", default=None, help="output directory (overrides config)")

    p = sub.add_parser("synth", help="generate a synthetic market panel")
    p.add_argument("spec", help="scenario key-value file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args.spec, args.out, args.seed)
        cfg = load_config(args.config, out_override=args.out)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "backtest":
            return cmd_backtest(cfg)
        return cmd_diagnose(cfg)
    except FactortiltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
