"""Command-line front end: validate, backtest, diagnose, synth.

Config files are INI-style (configparser) with one section per module. Every
default is materialized into the run manifest so no setting is silent.
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
from dataclasses import dataclass, field, replace
from itertools import starmap
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import (
    STRATEGIES,
    BacktestConfig,
    pool_matrix,
    pool_positions,
    run_baselines,
    run_factor_removals,
    snapshot,
)
from .calibration import CalibrationParams, build_ic_series, information_ratio, ir_to_alpha
from .eligibility import EligibilityParams
from .errors import ConfigError, DataError, FactortiltError
from .factors import FACTORS, FactorParams
from .market_data import build_schedule, check_asset_ids, check_date, load_panel, parse_panel, save_panel
from .stats import factor_redundancy, summarize
from .synthetic import GENERATOR_NAME, generate, scenario_from_mapping
from .weighting import CapParams, TiltParams

log = logging.getLogger(__name__)

_CONVENTIONS = (
    ("turnover", "one-way sum|dw| per rebalance, range [0,2]"),
    ("costs", "cost_rate * one-way turnover, deducted from the rebalance day's return"),
    ("missing_return", "zero contribution for the day; position carried"),
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
    prices: Path
    volumes: Path
    mktcap: Path
    fundamentals: Path
    start: str
    end: str
    anchors: tuple[tuple[int, int], ...] = ((1, 1), (7, 1))
    cost_rate: float = 0.0
    weight_mode: str = "constant_mix"
    n_trials: int = len(STRATEGIES)
    nw_lag: int | None = None
    out_dir: Path = Path("out")
    eligibility: EligibilityParams = field(default_factory=EligibilityParams)
    factors: FactorParams = field(default_factory=FactorParams)
    tilt: TiltParams = field(default_factory=TiltParams)
    caps: CapParams | None = None
    calibration: CalibrationParams = field(default_factory=CalibrationParams)
    apply_calibration: bool = False

    def backtest_config(self) -> BacktestConfig:
        return BacktestConfig(
            strategy="dmft",
            cost_rate=self.cost_rate,
            weight_mode=self.weight_mode,
            eligibility=self.eligibility,
            factors=self.factors,
            tilt=self.tilt,
            caps=self.caps,
        )


def _parse_anchors(raw: str) -> tuple[tuple[int, int], ...]:
    anchors = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            month, day = part.split("-")
            anchors.append((int(month), int(day)))
        except ValueError:
            raise ConfigError(f"bad anchor {part!r}, expected MM-DD") from None
    if not anchors:
        raise ConfigError("anchor list is empty")
    return tuple(anchors)


# every section and key load_config reads; anything else is rejected
_KEYS = {
    "data": ("prices", "volumes", "mktcap", "fundamentals"),
    "run": ("start", "end", "anchors", "cost_rate", "weight_mode", "n_trials", "nw_lag", "out", "threads"),
    "eligibility": ("h_min", "adv_min", "l_adv"),
    "factors": ("l_mom", "skip", "l_fund", "winsor_p", "winsorize_quality_components"),
    "tilt": ("alpha_mom", "alpha_val", "alpha_qual", "lambda", "m_min", "m_max"),
    "caps": ("enabled", "c_max", "kappa", "gamma", "epsilon"),
    "calibration": ("horizon", "m_min", "min_universe", "apply"),
}


def _check_keys(cp, path: Path) -> None:
    sections = (["DEFAULT"] if cp.defaults() else []) + cp.sections()
    for section in sections:
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]; valid sections: "
                              + ", ".join(f"[{s}]" for s in _KEYS))
        unknown = [k for k in cp.options(section) if k not in _KEYS[section]]
        if unknown:
            raise ConfigError(f"{path}: unknown key {unknown[0]!r} in [{section}]; valid keys: "
                              + ", ".join(_KEYS[section]))


def _get(cp, section, key, conv, default):
    if cp.has_option(section, key):
        raw = cp.get(section, key).strip()
        try:
            return conv(raw)
        except (ValueError, TypeError):
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    return default


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def load_config(path, out_override=None) -> RunConfig:
    """Parse an INI run config; missing keys take the documented defaults
    and unknown sections or keys are a ConfigError. `[run] threads` is
    parsed for compatibility and has no effect."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:  # names the file and line
        raise ConfigError(str(exc)) from None
    _check_keys(cp, path)
    if not cp.has_section("data"):
        raise ConfigError(f"{path}: missing [data] section")
    base = path.parent

    def data_path(key):
        if not cp.has_option("data", key):
            raise ConfigError(f"{path}: missing [data] {key}")
        p = Path(cp.get("data", key).strip())
        return p if p.is_absolute() else base / p

    for section in ("run",):
        if not cp.has_section(section):
            raise ConfigError(f"{path}: missing [{section}] section")
    start = _get(cp, "run", "start", check_date, None)  # a DataError is a ValueError
    end = _get(cp, "run", "end", check_date, None)
    if start is None or end is None:
        raise ConfigError(f"{path}: [run] start and end are required")

    default_alpha = {f: 1.0 / len(FACTORS) for f in FACTORS}
    alpha = {
        "MOM": _get(cp, "tilt", "alpha_mom", float, default_alpha["MOM"]),
        "VAL": _get(cp, "tilt", "alpha_val", float, default_alpha["VAL"]),
        "QUAL": _get(cp, "tilt", "alpha_qual", float, default_alpha["QUAL"]),
    }
    tilt = TiltParams(
        alpha=alpha,
        lam=_get(cp, "tilt", "lambda", float, 0.25),
        m_min=_get(cp, "tilt", "m_min", float, 0.5),
        m_max=_get(cp, "tilt", "m_max", float, 1.5),
    )
    caps = None
    if _get(cp, "caps", "enabled", _bool, False):
        caps = CapParams(
            c_max=_get(cp, "caps", "c_max", float, 0.10),
            kappa=_get(cp, "caps", "kappa", float, 0.05),
            gamma=_get(cp, "caps", "gamma", float, 0.5),
            epsilon=_get(cp, "caps", "epsilon", float, 1e-12),
        )
    nw_lag = _get(cp, "run", "nw_lag", int, -1)
    out_dir = out_override if out_override is not None else _get(cp, "run", "out", str, "out")
    _get(cp, "run", "threads", int, 1)
    return RunConfig(
        prices=data_path("prices"),
        volumes=data_path("volumes"),
        mktcap=data_path("mktcap"),
        fundamentals=data_path("fundamentals"),
        start=start,
        end=end,
        anchors=_parse_anchors(_get(cp, "run", "anchors", str, "01-01,07-01")),
        cost_rate=_get(cp, "run", "cost_rate", float, 0.0),
        weight_mode=_get(cp, "run", "weight_mode", str, "constant_mix"),
        n_trials=_get(cp, "run", "n_trials", int, len(STRATEGIES)),
        nw_lag=None if nw_lag < 0 else nw_lag,
        out_dir=Path(out_dir),
        eligibility=EligibilityParams(
            h_min=_get(cp, "eligibility", "h_min", int, EligibilityParams().h_min),
            adv_min=_get(cp, "eligibility", "adv_min", float, EligibilityParams().adv_min),
            l_adv=_get(cp, "eligibility", "l_adv", int, EligibilityParams().l_adv),
        ),
        factors=FactorParams(
            l_mom=_get(cp, "factors", "l_mom", int, FactorParams().l_mom),
            skip=_get(cp, "factors", "skip", int, FactorParams().skip),
            l_fund=_get(cp, "factors", "l_fund", int, FactorParams().l_fund),
            winsor_p=_get(cp, "factors", "winsor_p", float, FactorParams().winsor_p),
            winsorize_quality_components=_get(
                cp, "factors", "winsorize_quality_components", _bool, False
            ),
        ),
        tilt=tilt,
        caps=caps,
        calibration=CalibrationParams(
            horizon=_get(cp, "calibration", "horizon", int, CalibrationParams().horizon),
            m_min=_get(cp, "calibration", "m_min", int, CalibrationParams().m_min),
            min_universe=_get(cp, "calibration", "min_universe", int, CalibrationParams().min_universe),
        ),
        apply_calibration=_get(cp, "calibration", "apply", _bool, False),
    )


def _fields(column) -> list:
    """One column's fields: a float array as the shortest round-trip `repr`
    of each value, NaN as an empty field; any other column (strings, ints)
    as its values, which `str.format` writes as `str` does."""
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype.kind != "f":
        return column.tolist()
    text = list(map(repr, column.tolist()))
    for i in np.flatnonzero(np.isnan(column)).tolist():
        text[i] = ""
    return text


def _table(header: list[str], columns) -> str:
    """One CSV table: the header row, then one row per index of the equally
    long columns, each line ended by CRLF."""
    line = ",".join(["{}"] * len(header)) + "\r\n"
    return ",".join(header) + "\r\n" + "".join(starmap(line.format, zip(*map(_fields, columns), strict=True)))


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


def write_manifest(cfg: RunConfig, path: Path, extra: list[tuple[str, str]] | None = None) -> None:
    """Echo every effective setting, defaults included, plus the fixed
    conventions in force. Deliberately timestamp-free."""
    lines = [f"factortilt {__version__}", ""]
    lines.append("[data]")
    for key in ("prices", "volumes", "mktcap", "fundamentals"):
        lines.append(f"{key} = {getattr(cfg, key)}")
    lines.append("")
    lines.append("[run]")
    lines.append(f"start = {cfg.start}")
    lines.append(f"end = {cfg.end}")
    lines.append(f"anchors = {','.join(f'{m:02d}-{d:02d}' for m, d in cfg.anchors)}")
    lines.append(f"cost_rate = {cfg.cost_rate!r}")
    lines.append(f"weight_mode = {cfg.weight_mode}")
    lines.append(f"n_trials = {cfg.n_trials}")
    lines.append(f"nw_lag = {'auto' if cfg.nw_lag is None else cfg.nw_lag}")
    lines.append("")
    lines.append("[eligibility]")
    lines.append(f"h_min = {cfg.eligibility.h_min}")
    lines.append(f"adv_min = {cfg.eligibility.adv_min!r}")
    lines.append(f"l_adv = {cfg.eligibility.l_adv}")
    lines.append("")
    lines.append("[factors]")
    lines.append(f"l_mom = {cfg.factors.l_mom}")
    lines.append(f"skip = {cfg.factors.skip}")
    lines.append(f"l_fund = {cfg.factors.l_fund}")
    lines.append(f"winsor_p = {cfg.factors.winsor_p!r}")
    lines.append(f"winsorize_quality_components = {cfg.factors.winsorize_quality_components}")
    lines.append("")
    lines.append("[tilt]")
    for f in FACTORS:
        lines.append(f"alpha_{f.lower()} = {cfg.tilt.alpha[f]!r}")
    lines.append(f"lambda = {cfg.tilt.lam!r}")
    lines.append(f"m_min = {cfg.tilt.m_min!r}")
    lines.append(f"m_max = {cfg.tilt.m_max!r}")
    lines.append("")
    lines.append("[caps]")
    lines.append(f"enabled = {cfg.caps is not None}")
    if cfg.caps is not None:
        lines.append(f"c_max = {cfg.caps.c_max!r}")
        lines.append(f"kappa = {cfg.caps.kappa!r}")
        lines.append(f"gamma = {cfg.caps.gamma!r}")
        lines.append(f"epsilon = {cfg.caps.epsilon!r}")
    lines.append("")
    lines.append("[calibration]")
    lines.append(f"horizon = {cfg.calibration.horizon}")
    lines.append(f"m_min = {cfg.calibration.m_min}")
    lines.append(f"min_universe = {cfg.calibration.min_universe}")
    lines.append(f"apply = {cfg.apply_calibration}")
    lines.append("")
    lines.append("[conventions]")
    for key, value in _CONVENTIONS:
        lines.append(f"{key} = {value}")
    if extra:
        lines.append("")
        lines.append("[notes]")
        for key, value in extra:
            lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_inputs(cfg: RunConfig, cached: bool = True):
    load = load_panel if cached else parse_panel
    panel = load(cfg.prices, cfg.volumes, cfg.fundamentals, cfg.mktcap)
    check_asset_ids(panel.assets)  # the artifact writer never quotes
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
    n_fund = sum(len(v) for v in panel.fundamentals.values())
    print(f"fundamental records: {n_fund}")
    print(f"rebalance dates: {len(schedule)} ({schedule.dates[0]} .. {schedule.dates[-1]})")
    print("OK")
    return 0


def _screens_and_factors(panel, schedule, config: BacktestConfig):
    """Per rebalance date, the as-of snapshot, the screened members'
    positions and their factor matrix (where there are members), which the
    snapshot keeps for the walk."""
    snapshots = {t: snapshot(panel, t, config) for t in schedule.dates}
    members = {t: pool_positions(snap, config) for t, snap in snapshots.items()}
    matrices = {t: pool_matrix(snap, config) for t, snap in snapshots.items() if members[t].size}
    return snapshots, members, matrices


def _concat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0)


def _write_screens(panel, snapshots, members, matrices, out: Path) -> None:
    """eligibility.csv (every panel asset at every rebalance date, with the
    snapshot's history and ADV) and factors.csv (each member's raw and z
    per factor)."""
    eligible = np.zeros((len(snapshots), panel.n_assets), dtype=int)
    for k, positions in enumerate(members.values()):
        eligible[k, positions] = 1
    _write_csv(out / "eligibility.csv", (["date", "asset", "history_days", "adv", "eligible"], [
        [t for t in snapshots for _ in panel.assets],
        panel.assets * len(snapshots),
        _concat([snap.history for snap in snapshots.values()]),
        _concat([snap.adv for snap in snapshots.values()]),
        eligible.ravel(),
    ]))
    _write_csv(out / "factors.csv", (["date", "asset", "factor", "raw", "z"], [
        [t for t, m in matrices.items() for _ in range(m.raw.size)],
        [a for m in matrices.values() for a in m.assets for _ in m.factors],
        [f for m in matrices.values() for _ in m.assets for f in m.factors],
        _concat([m.raw.ravel() for m in matrices.values()]),
        _concat([m.z.ravel() for m in matrices.values()]),
    ]))


def _weight_columns(result) -> list:
    """Date, asset, weight, multiplier (1 when untilted) and liquidity cap
    (empty when uncapped) of the held assets at each rebalance."""
    dates, assets, weights, mults, caps = [], [], [], [], []
    for wv in result.weights:
        held = np.flatnonzero(wv.w)
        dates += [wv.t] * len(held)
        assets += map(wv.assets.__getitem__, held.tolist())
        weights.append(wv.w[held])
        mults.append(wv.multipliers[held] if wv.multipliers is not None else np.ones(len(held)))
        caps.append(wv.caps[held] if wv.caps is not None else np.full(len(held), np.nan))
    return [dates, assets, _concat(weights), _concat(mults), _concat(caps)]


def _write_results(results, cfg: RunConfig, out: Path) -> None:
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
    """Yield a new hidden sibling directory of `out` to write the artifacts
    into. When the block succeeds, each file is moved into `out` (created if
    absent) with `os.replace`, the manifest last; when it raises, the
    sibling and the parent directories made for it are removed, and `out`
    is left as it was. Files already in `out` are never deleted, only
    overwritten by a new file of the same name."""
    _check_out_dir(out)
    parent = out.resolve().parent
    created = [d for d in (parent, *parent.parents) if not d.exists()]  # deepest first
    parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=parent, prefix=f".{out.name}."))
    try:
        yield stage
        out.mkdir(exist_ok=True)
        for path in sorted(stage.iterdir(), key=lambda p: p.name == "manifest.txt"):
            os.replace(path, out / path.name)
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
        config = cfg.backtest_config()
        snapshots, members, matrices = _screens_and_factors(panel, schedule, config)
        _write_screens(panel, snapshots, members, matrices, out)
        if cfg.apply_calibration:
            ics = build_ic_series(panel, schedule, matrices, cfg.calibration)
            if ics:
                alpha = ir_to_alpha(ics, cfg.calibration.m_min)
                config = replace(config, tilt=replace(config.tilt, alpha=alpha))
                notes.append(("calibrated_alpha", ",".join(f"{f}={alpha[f]!r}" for f in FACTORS)))
        # calibration changes only the tilt, which no snapshot, pool or factor matrix reads
        results = run_baselines(panel, schedule, config, end=cfg.end, snapshots=snapshots)
        _write_results(results, cfg, out)
        write_manifest(cfg, out / "manifest.txt", extra=notes or None)
    return 0


def cmd_diagnose(cfg: RunConfig) -> int:
    """Write IC/IR and factor-redundancy reports; backtest outputs untouched."""
    with _staged_out(cfg.out_dir) as out:
        panel, schedule = _load_inputs(cfg)
        config = cfg.backtest_config()
        snapshots, _, matrices = _screens_and_factors(panel, schedule, config)
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

        removals = run_factor_removals(panel, schedule, config, end=cfg.end, snapshots=snapshots)
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
    market-data CSVs plus a manifest."""
    path = Path(spec_path)
    if not path.exists():
        raise ConfigError(f"scenario file {path} does not exist")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        text = path.read_text(encoding="utf-8")
        stripped = text.lstrip()
        added = 1 if stripped and not stripped.startswith("[") else 0  # a [scenario] header line
        cp.read_string("[scenario]\n" * added + text, source=str(path))
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    except configparser.Error as exc:  # names the file and the line, not counting the added header
        message = re.sub(r"\[line\s+(\d+)\]", lambda m: f"[line {int(m[1]) - added:2d}]", str(exc))
        raise ConfigError(re.sub(r"\s*\n\s*", " ", message)) from None
    section = "scenario" if cp.has_section("scenario") else cp.sections()[0] if cp.sections() else None
    if section is None:
        raise ConfigError(f"{path}: empty scenario file")
    values = dict(cp.items(section))
    if seed_override is not None:
        values["seed"] = str(seed_override)
    spec = scenario_from_mapping(values)
    out = Path(out_dir)
    _check_out_dir(out)
    panel = generate(spec)
    save_panel(panel, out)
    lines = [
        f"factortilt {__version__}",
        f"generator = {GENERATOR_NAME}",
        f"numpy = {np.__version__}",
        "",
        "[scenario]",
        f"seed = {spec.seed}",
        f"n_assets = {spec.n_assets}",
        f"n_days = {spec.n_days}",
        f"vol = {spec.vol!r}",
        f"dispersion = {spec.dispersion!r}",
        f"ic_target = {spec.ic_target!r}",
        f"liquidity_tiers = {','.join(repr(t) for t in spec.liquidity_tiers)}",
        f"missing_rate = {spec.missing_rate!r}",
    ]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
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
        p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; has no effect")

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
