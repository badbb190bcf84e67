"""The run config schema: the parameter classes define every key of their
sections, the manifest echoes a config that loads back equal, every key
reaches the loaded config, and bad values fail when the config loads."""

from __future__ import annotations

import configparser
import re
import tempfile
from dataclasses import fields, replace
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factortilt import __version__, cli
from factortilt.backtest import WEIGHT_MODES, BacktestConfig
from factortilt.calibration import CalibrationParams
from factortilt.cli import RunConfig, load_config, main, write_manifest
from factortilt.eligibility import EligibilityParams
from factortilt.factors import FactorParams
from factortilt.synthetic import ScenarioSpec
from factortilt.weighting import CapParams, TiltParams

from test_cli import CONFIG_TEMPLATE

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def alphas():
    return st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)).map(
        lambda ab: {"MOM": ab[0], "VAL": ab[1], "QUAL": 1.0 - ab[0] - ab[1]})


def backtest_configs():
    return st.builds(
        BacktestConfig,
        cost_rate=st.floats(0.0, 0.05),
        weight_mode=st.sampled_from(WEIGHT_MODES),
        eligibility=st.builds(EligibilityParams, h_min=st.integers(0, 500), adv_min=st.floats(0.0, 1e12),
                              l_adv=st.integers(1, 300)),
        factors=st.builds(FactorParams, l_mom=st.integers(1, 500), skip=st.integers(1, 60),
                          l_fund=st.integers(1, 1000), winsor_p=st.floats(0.0, 0.4999),
                          winsorize_quality_components=st.booleans()),
        tilt=st.builds(TiltParams, alpha=alphas(), lam=st.floats(0.0, 5.0), m_min=st.floats(0.01, 1.0),
                       m_max=st.floats(1.0, 4.0)),
        caps=st.none() | st.builds(CapParams, c_max=st.floats(0.001, 1.0), kappa=st.floats(0.001, 2.0),
                                   gamma=st.floats(0.0, 1.0)),
    )


def run_configs(data: Path):
    dates = st.dates(date(1990, 1, 1), date(2100, 12, 31)).map(date.isoformat)
    return st.builds(
        RunConfig,
        *(st.sampled_from([data / f"{name}.csv", data / "sub" / f"{name}.txt"]) for name in cli._KEYS["data"]),
        start=dates,
        end=dates,
        anchors=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 28)), min_size=1, max_size=4).map(tuple),
        n_trials=st.integers(1, 100),
        nw_lag=st.none() | st.integers(0, 30),
        backtest=backtest_configs(),
        calibration=st.builds(CalibrationParams, horizon=st.integers(1, 300), m_min=st.integers(1, 20),
                              min_universe=st.integers(3, 50), apply=st.booleans()),
    )


@SETTINGS
@given(data=st.data())
def test_manifest_loads_back_equal(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = data.draw(run_configs(tmp / "inputs"))
        write_manifest(cfg, tmp / "manifest.txt", extra=[("calibrated_alpha", "MOM=1.0,VAL=0.0,QUAL=0.0")])
        blocks = (tmp / "manifest.txt").read_text(encoding="utf-8").split("\n\n")[1:]  # after the version line
        kept = [b for b in blocks if not b.startswith(("[conventions]", "[notes]"))]
        assert len(kept) == len(blocks) - 2
        (tmp / "run.ini").write_text("\n\n".join(kept), encoding="utf-8")
        assert load_config(tmp / "run.ini") == cfg


# a valid value other than the default for every key that has an effect
NON_DEFAULT = {
    ("data", "prices"): "other/prices.csv",
    ("data", "volumes"): "other/volumes.csv",
    ("data", "mktcap"): "other/mktcap.csv",
    ("data", "fundamentals"): "other/fundamentals.csv",
    ("run", "start"): "2020-06-02",
    ("run", "end"): "2022-06-29",
    ("run", "anchors"): "03-01,09-01",
    ("run", "cost_rate"): "0.002",
    ("run", "weight_mode"): "drift",
    ("run", "n_trials"): "9",
    ("run", "nw_lag"): "4",
    ("run", "out"): "elsewhere",
    ("eligibility", "h_min"): "100",
    ("eligibility", "adv_min"): "5000",
    ("eligibility", "l_adv"): "30",
    ("factors", "l_mom"): "100",
    ("factors", "skip"): "5",
    ("factors", "l_fund"): "200",
    ("factors", "winsor_p"): "0.05",
    ("factors", "winsorize_quality_components"): "true",
    ("tilt", "alpha_mom"): "0.5",
    ("tilt", "alpha_val"): "0.5",
    ("tilt", "alpha_qual"): "0.5",
    ("tilt", "lambda"): "0.6",
    ("tilt", "m_min"): "0.7",
    ("tilt", "m_max"): "1.2",
    ("caps", "enabled"): "true",
    ("caps", "c_max"): "0.2",
    ("caps", "kappa"): "0.1",
    ("caps", "gamma"): "0.7",
    ("calibration", "horizon"): "30",
    ("calibration", "m_min"): "3",
    ("calibration", "min_universe"): "7",
    ("calibration", "apply"): "true",
}
BASE = {"data": {key: f"data/{key}.csv" for key in cli._KEYS["data"]},
        "run": {"start": "2020-06-01", "end": "2022-06-30"}}


def load_sections(path: Path, sections: dict) -> RunConfig:
    cp = configparser.ConfigParser()
    cp.read_dict(sections)
    with path.open("w", encoding="utf-8") as fh:
        cp.write(fh)
    return load_config(path)


def test_every_key_reaches_the_config(tmp_path):
    # the rule "every config key is used or rejected" as a check; [run]
    # threads is accepted for compatibility and has no effect
    assert set(NON_DEFAULT) == {(s, k) for s, keys in cli._KEYS.items() for k in keys} - {("run", "threads")}
    for (section, key), value in NON_DEFAULT.items():
        base = {**BASE, "caps": {"enabled": "true"}} if section == "caps" and key != "enabled" else BASE
        changed = {s: dict(keys) for s, keys in base.items()}
        changed.setdefault(section, {})[key] = value
        if key.startswith("alpha_"):  # the other two weights make the three sum to 1
            changed["tilt"].update({k: "0.25" for k in ("alpha_mom", "alpha_val", "alpha_qual") if k != key})
        assert load_sections(tmp_path / "changed.ini", changed) != load_sections(tmp_path / "base.ini", base), key


def test_omitted_keys_keep_the_class_defaults(tmp_path):
    loaded = load_sections(tmp_path / "run.ini", BASE)
    paths = (tmp_path / "data" / f"{key}.csv" for key in cli._KEYS["data"])
    assert loaded == RunConfig(*paths, start="2020-06-01", end="2022-06-30")
    enabled = load_sections(tmp_path / "caps.ini", {**BASE, "caps": {"enabled": "true"}})
    assert enabled == replace(loaded, backtest=replace(loaded.backtest, caps=CapParams()))


def test_nw_lag_auto_is_the_default(tmp_path):
    auto = load_sections(tmp_path / "auto.ini", {**BASE, "run": {**BASE["run"], "nw_lag": "auto"}})
    assert auto.nw_lag is None and auto == load_sections(tmp_path / "run.ini", BASE)


@pytest.mark.parametrize("line, message", [
    ("weight_mode = bogus", "unknown weight_mode 'bogus'"),
    ("cost_rate = -1", "cost_rate must be >= 0, got -1.0"),
    ("cost_rate = 0.1%", "[run] cost_rate: cannot parse '0.1%'"),
    ("n_trials = 0", "n_trials must be >= 1, got 0"),
    ("nw_lag = -5", "nw_lag must be >= 0 or auto, got -5"),
    ("anchors = 13-01", "[run] anchors: cannot parse '13-01'"),
    ("anchors = 00-10", "[run] anchors: cannot parse '00-10'"),
    ("anchors = 01-01,02-30", "[run] anchors: cannot parse '01-01,02-30'"),
    ("anchors = 02-29", "[run] anchors: cannot parse '02-29'"),  # not a day of every year
    ("anchors = 01-01-01", "[run] anchors: cannot parse '01-01-01'"),
    ("anchors = ,", "[run] anchors: cannot parse ','"),
    ("[caps] enabled = maybe", "[caps] enabled: cannot parse 'maybe'"),
    ("[calibration] apply = 2", "[calibration] apply: cannot parse '2'"),
], ids=["weight_mode", "cost_rate", "cost_rate-percent", "n_trials", "nw_lag", "anchor-month", "anchor-month-zero",
        "anchor-day", "anchor-leap-day", "anchor-not-mm-dd", "anchor-list-empty", "caps-enabled", "calibration-apply"])
def test_bad_run_values_fail_at_load(tmp_path, capsys, line, message):
    # the input files do not exist: each value is checked before any is read
    text = CONFIG_TEMPLATE.format(data=tmp_path / "absent", start="2020-06-01", end="2022-06-30", lam="0.3")
    named = re.fullmatch(r"\[(\w+)\] (.*)", line)  # a line of a section other than [run] names it
    section, line = named.groups() if named else ("run", line)
    if f"[{section}]\n" not in text:
        text += f"\n[{section}]\n"
    key = line.split(" = ")[0]
    cfg = tmp_path / "run.ini"
    cfg.write_text(re.sub(rf"(?m)^{key} = .*\n", "", text).replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("line, message", [
    ("c_max = abc", "[caps] c_max: cannot parse 'abc'"),
    ("gamma = 7", "gamma must be in [0, 1], got 7.0"),
], ids=["c_max", "gamma"])
def test_disabled_caps_are_still_checked(tmp_path, synth_dir, capsys, line, message):
    # every key is used or rejected: with caps off the cap keys still parse
    text = CONFIG_TEMPLATE.format(data=synth_dir, start="2020-06-01", end="2022-06-30", lam="0.3")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text + f"\n[caps]\nenabled = false\n{line}\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("raw, value", [
    ("yes", True), ("on", True), ("1", True), ("TRUE", True), ("off", False), ("0", False),
])
def test_boolean_spellings_load(tmp_path, raw, value):
    loaded = load_sections(tmp_path / "run.ini", {**BASE, "caps": {"enabled": raw}, "calibration": {"apply": raw}})
    assert (loaded.backtest.caps is not None, loaded.calibration.apply) == (value, value)


EVERY_KEY_MANIFEST = """[data]
prices = data/prices.csv
volumes = data/volumes.csv
mktcap = data/mktcap.csv
fundamentals = data/fundamentals.csv

[run]
start = 2020-09-01
end = 2024-10-31
anchors = 02-01,08-01
cost_rate = 0.001
weight_mode = drift
n_trials = 7
nw_lag = 3

[eligibility]
h_min = 150
adv_min = 200000.0
l_adv = 42

[factors]
l_mom = 180
skip = 15
l_fund = 300
winsor_p = 0.02
winsorize_quality_components = True

[tilt]
alpha_mom = 0.5
alpha_val = 0.3
alpha_qual = 0.2
lambda = 0.4
m_min = 0.6
m_max = 1.7

[caps]
enabled = True
c_max = 0.12
kappa = 0.08
gamma = 0.6

[calibration]
horizon = 80
m_min = 3
min_universe = 6
apply = True

[conventions]
"""


def test_manifest_text(tmp_path):
    # every line of the manifest before its conventions, byte for byte
    cfg = RunConfig(
        *(Path("data") / f"{key}.csv" for key in cli._KEYS["data"]),
        start="2020-09-01", end="2024-10-31", anchors=((2, 1), (8, 1)), n_trials=7, nw_lag=3,
        backtest=BacktestConfig(
            cost_rate=0.001, weight_mode="drift",
            eligibility=EligibilityParams(h_min=150, adv_min=2e5, l_adv=42),
            factors=FactorParams(l_mom=180, skip=15, l_fund=300, winsor_p=0.02, winsorize_quality_components=True),
            tilt=TiltParams(alpha={"MOM": 0.5, "VAL": 0.3, "QUAL": 0.2}, lam=0.4, m_min=0.6, m_max=1.7),
            caps=CapParams(c_max=0.12, kappa=0.08, gamma=0.6)),
        calibration=CalibrationParams(horizon=80, m_min=3, min_universe=6, apply=True))
    write_manifest(cfg, tmp_path / "manifest.txt", extra=[("calibrated_alpha", "MOM=1.0,VAL=0.0,QUAL=0.0")])
    text = (tmp_path / "manifest.txt").read_text(encoding="utf-8")
    assert text.startswith(f"factortilt {__version__}\n\n" + EVERY_KEY_MANIFEST)
    assert text.endswith("\ntaa_benchmark = ew_eligible\n\n[notes]\ncalibrated_alpha = MOM=1.0,VAL=0.0,QUAL=0.0\n")
    write_manifest(replace(cfg, backtest=replace(cfg.backtest, caps=None)), tmp_path / "uncapped.txt")
    uncapped = (tmp_path / "uncapped.txt").read_text(encoding="utf-8")
    assert "\n[caps]\nenabled = False\n\n[calibration]\n" in uncapped
    assert uncapped.endswith("\ntaa_benchmark = ew_eligible\n")


def test_scenario_manifest_text(tmp_path):
    scenario = tmp_path / "s.ini"
    scenario.write_text("seed = 7\nn_assets = 3\nn_days = 5\nvol = 0.02\nic_target = -0.25\n"
                        "liquidity_tiers = 0.5,2\nmissing_rate = 0.1\n")
    assert main(["synth", str(scenario), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.txt").read_text(encoding="utf-8") == (
        f"factortilt {__version__}\ngenerator = numpy.random.default_rng (PCG64)\nnumpy = {np.__version__}\n\n"
        "[scenario]\nseed = 7\nn_assets = 3\nn_days = 5\nvol = 0.02\ndispersion = 0.5\nic_target = -0.25\n"
        "liquidity_tiers = 0.5,2.0\nmissing_rate = 0.1\n")


scenario_specs = st.builds(
    ScenarioSpec,
    seed=st.integers(0, 2**63),
    n_assets=st.integers(1, 6),
    n_days=st.integers(1, 80),
    vol=st.floats(0.0, 0.05),
    dispersion=st.floats(0.0, 3.0),
    ic_target=st.floats(-1.0, 1.0),
    liquidity_tiers=st.lists(st.floats(0.01, 1e6), min_size=1, max_size=4).map(tuple),
    missing_rate=st.floats(0.0, 1.0),
)


@SETTINGS
@given(spec=scenario_specs)
def test_scenario_file_round_trips_through_synth(spec):
    # a scenario file holding synth's manifest block is read back as the same spec and block
    block = "[scenario]\n" + "".join(f"{f.name} = {cli._echo(getattr(spec, f.name))}\n" for f in fields(spec))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "generate", wraps=cli.generate) as generate:
        tmp = Path(tmp)
        (tmp / "s.ini").write_text(block, encoding="utf-8")
        assert main(["synth", str(tmp / "s.ini"), "--out", str(tmp / "out")]) == 0
        assert generate.call_args.args == (spec,)
        assert (tmp / "out" / "manifest.txt").read_text(encoding="utf-8").split("\n\n")[1] == block


@pytest.mark.parametrize("seed", ["-5", "abc"])
def test_seed_flag_replaces_the_file_seed_before_it_is_parsed(tmp_path, seed):
    scenario = tmp_path / "s.ini"
    scenario.write_text(f"seed = {seed}\nn_assets = 4\nn_days = 30\n")
    assert main(["synth", str(scenario), "--out", str(tmp_path / "out"), "--seed", "3"]) == 0
    assert "\n[scenario]\nseed = 3\n" in (tmp_path / "out" / "manifest.txt").read_text(encoding="utf-8")
