"""Command-line front end: validate, backtest, diagnose, synth.

Config files are INI-style (configparser) with one section per module. Every
default is materialized into the run manifest so no setting is silent.
Outputs are plain CSV and contain nothing non-deterministic, so identical
configs produce byte-identical artifact directories.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import logging
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import (
    STRATEGIES,
    BacktestConfig,
    run_baselines,
    run_factor_removals,
    snapshot,
)
from .calibration import CalibrationParams, build_ic_series, information_ratio, ir_to_alpha
from .eligibility import EligibilityParams, screen
from .errors import ConfigError, DataError
from .factors import FACTORS, FactorParams, select_factor_matrix
from .market_data import build_schedule, load_panel, save_panel
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
    """Parse an INI run config; missing keys take the documented defaults.
    `[run] threads` is parsed for compatibility and has no effect."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(path, encoding="utf-8")
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
    start = _get(cp, "run", "start", str, None)
    end = _get(cp, "run", "end", str, None)
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
        max_iter = _get(cp, "caps", "max_iterations", int, 0)
        caps = CapParams(
            c_max=_get(cp, "caps", "c_max", float, 0.10),
            kappa=_get(cp, "caps", "kappa", float, 0.05),
            gamma=_get(cp, "caps", "gamma", float, 0.5),
            epsilon=_get(cp, "caps", "epsilon", float, 1e-12),
            max_iterations=max_iter if max_iter > 0 else None,
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


def _fmt(x) -> str:
    if isinstance(x, float):  # covers numpy float scalars
        if math.isnan(x):
            return ""
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
        lines.append(f"max_iterations = {cfg.caps.max_iterations or 'auto (10x universe)'}")
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


def _load_inputs(cfg: RunConfig):
    panel = load_panel(cfg.prices, cfg.volumes, cfg.fundamentals, cfg.mktcap)
    schedule = build_schedule(panel.calendar, cfg.start, cfg.end, cfg.anchors)
    return panel, schedule


def cmd_validate(cfg: RunConfig) -> int:
    """Load the panel, check every invariant, and print summary counts."""
    try:
        panel, schedule = _load_inputs(cfg)
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
    """Screened universe and factor matrix per rebalance date, both read
    from one as-of snapshot of that date."""
    universes, matrices = {}, {}
    for t in schedule.dates:
        snap = snapshot(panel, t, config)
        universes[t] = uni = screen(t, panel.assets, snap.history, snap.adv, config.eligibility)
        if uni.members:
            matrices[t] = select_factor_matrix(snap, uni, panel.positions(uni.members), config.factors)
    return universes, matrices


def _write_screens(panel, universes, matrices, out: Path) -> None:
    rows = []
    for t, uni in universes.items():
        for a in panel.assets:
            sv = uni.screen_values[a]
            rows.append((t, a, sv.history, sv.adv, int(a in uni)))
    _write_csv(out / "eligibility.csv", ["date", "asset", "history_days", "adv", "eligible"], rows)
    rows = []
    for t, m in matrices.items():
        for i, a in enumerate(m.assets):
            for j, f in enumerate(m.factors):
                rows.append((t, a, f, float(m.raw[i, j]), float(m.z[i, j])))
    _write_csv(out / "factors.csv", ["date", "asset", "factor", "raw", "z"], rows)


def _weight_rows(result, report_multipliers: bool):
    """Held assets per rebalance with weight, multiplier (1 when untilted)
    and liquidity cap (empty when uncapped)."""
    for wv in result.weights:
        held = np.flatnonzero(wv.w)
        tilted = report_multipliers and wv.multipliers is not None
        mults = wv.multipliers[held] if tilted else np.ones(len(held))
        caps = wv.caps[held] if wv.caps is not None else np.full(len(held), np.nan)
        for i, x, m, c in zip(held.tolist(), wv.w[held].tolist(), mults.tolist(), caps.tolist()):
            yield wv.t, wv.assets[i], x, m, c


def _write_results(results, cfg: RunConfig, out: Path) -> None:
    for name in STRATEGIES:
        res = results[name]
        # weights_fixed_universe.csv has always reported untilted multipliers
        for kind, header, rows in (
            ("returns", ["date", "return", "equity"], zip(res.dates, res.daily_returns, res.equity_curve)),
            ("turnover", ["date", "turnover", "cost"], zip(res.rebalance_dates, res.turnover, res.costs)),
            ("weights", ["date", "asset", "weight", "multiplier", "cap"], _weight_rows(res, name == "dmft")),
        ):
            _write_csv(out / f"{kind}_{name}.csv", header, rows)
    benchmark = results["ew_eligible"]
    for name in STRATEGIES:
        report = summarize(results[name], benchmark=benchmark, n_trials=cfg.n_trials, nw_lag=cfg.nw_lag)
        _write_csv(out / f"stats_{name}.csv", ["metric", "value"], report.rows())


def cmd_backtest(cfg: RunConfig) -> int:
    """Run the tilted strategy plus all baselines and write the artifact set."""
    panel, schedule = _load_inputs(cfg)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    notes = []
    config = cfg.backtest_config()
    universes, matrices = _screens_and_factors(panel, schedule, config)
    _write_screens(panel, universes, matrices, out)
    if cfg.apply_calibration:
        ics = build_ic_series(panel, schedule, matrices, cfg.calibration)
        if ics:
            alpha = ir_to_alpha(ics, cfg.calibration.m_min)
            config = replace(config, tilt=replace(config.tilt, alpha=alpha))
            notes.append(("calibrated_alpha", ",".join(f"{f}={alpha[f]!r}" for f in FACTORS)))
    results = run_baselines(panel, schedule, config, end=cfg.end)
    _write_results(results, cfg, out)
    write_manifest(cfg, out / "manifest.txt", extra=notes or None)
    return 0


def cmd_diagnose(cfg: RunConfig) -> int:
    """Write IC/IR and factor-redundancy reports; backtest outputs untouched."""
    panel, schedule = _load_inputs(cfg)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)

    _, matrices = _screens_and_factors(panel, schedule, cfg.backtest_config())
    ics = build_ic_series(panel, schedule, matrices, cfg.calibration)
    with (out / "ic_ir.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write("# forward window starts at the rebalance date and overlaps the holding period\n")
        writer = csv.writer(fh)
        writer.writerow(["factor", "date", "ic"])
        for f in sorted(ics):
            series = ics[f]
            for d, v in zip(series.dates, series.values):
                writer.writerow([f, d, _fmt(float(v))])
        writer.writerow([])
        writer.writerow(["factor", "ir", "alpha"])
        if ics:
            alpha = ir_to_alpha(ics, cfg.calibration.m_min)
            for f in sorted(ics):
                ir = information_ratio(ics[f].values, cfg.calibration.m_min)
                writer.writerow([f, _fmt(ir), _fmt(alpha[f])])

    removals = run_factor_removals(panel, schedule, cfg.backtest_config(), end=cfg.end)
    factors, corr, marginal = factor_redundancy(matrices.values(), removals)
    rows = []
    for i, fi in enumerate(factors):
        for j, fj in enumerate(factors):
            if i < j:
                rows.append(("correlation", fi, fj, float(corr[i, j])))
    for f in factors:
        rows.append(("marginal_sharpe", f, "", marginal[f]))
    _write_csv(out / "factor_diagnostics.csv", ["metric", "factor_a", "factor_b", "value"], rows)
    return 0


def cmd_synth(spec_path, out_dir, seed_override=None) -> int:
    """Generate a synthetic panel from a scenario file and write the four
    market-data CSVs plus a manifest."""
    path = Path(spec_path)
    if not path.exists():
        raise ConfigError(f"scenario file {path} does not exist")
    text = path.read_text(encoding="utf-8")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    stripped = text.lstrip()
    if stripped and not stripped.startswith("["):
        text = "[scenario]\n" + text
    cp.read_string(text)
    section = "scenario" if cp.has_section("scenario") else cp.sections()[0] if cp.sections() else None
    if section is None:
        raise ConfigError(f"{path}: empty scenario file")
    values = dict(cp.items(section))
    if seed_override is not None:
        values["seed"] = str(seed_override)
    spec = scenario_from_mapping(values)
    panel = generate(spec)
    out = Path(out_dir)
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
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
