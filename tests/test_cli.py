import csv
import math
import re
from collections import Counter
from pathlib import Path

import pytest

from factortilt import backtest, cli, errors
from factortilt.backtest import BacktestConfig
from factortilt.cli import load_config, main
from factortilt.eligibility import EligibilityParams
from factortilt.errors import ConfigError
from factortilt.synthetic import ScenarioSpec
from factortilt.weighting import CapParams, TiltParams, WeightVector

CONFIG_TEMPLATE = """
[data]
prices = {data}/prices.csv
volumes = {data}/volumes.csv
mktcap = {data}/mktcap.csv
fundamentals = {data}/fundamentals.csv

[run]
start = {start}
end = {end}
anchors = 01-01,07-01
cost_rate = 0.0005
weight_mode = constant_mix

[eligibility]
h_min = 120
adv_min = 1000.0
l_adv = 21

[factors]
l_mom = 120
skip = 10
l_fund = 400
winsor_p = 0.01

[tilt]
lambda = {lam}
m_min = 0.5
m_max = 1.5

[calibration]
horizon = 60
m_min = 2
"""


def write_config(path: Path, data: Path, lam="0.25", start="2020-06-01", end="2022-06-30") -> Path:
    cfg = path / "run.ini"
    cfg.write_text(CONFIG_TEMPLATE.format(data=data, start=start, end=end, lam=lam))
    return cfg


def read_rows(path: Path):
    with path.open() as fh:
        return list(csv.reader(fh))


class TestValidate:
    def test_clean_panel_exits_zero(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, synth_dir)
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "assets: 10" in out and "OK" in out

    def test_corrupt_cell_names_location(self, synth_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("prices", "volumes", "mktcap", "fundamentals"):
            (broken / f"{name}.csv").write_text((synth_dir / f"{name}.csv").read_text())
        with (broken / "prices.csv").open("a") as fh:
            fh.write("2020-01-06,A000,-4.0\n")
        cfg = write_config(tmp_path, broken)
        assert main(["validate", "--config", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "A000" in out and "non-positive price" in out

    def test_schedule_outside_range_fails(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, synth_dir, start="2035-01-01", end="2035-12-31")
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "no rebalance dates" in capsys.readouterr().out


class TestBacktestCommand:
    def run(self, cfg, out):
        assert main(["backtest", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    def test_outputs_and_manifest(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path, synth_dir)
        out = self.run(cfg, tmp_path / "out")
        expected = {"manifest.txt", "eligibility.csv", "factors.csv"}
        for s in ("dmft", "fixed_universe", "ew_eligible", "ew_all", "cap_weighted"):
            expected |= {f"returns_{s}.csv", f"turnover_{s}.csv", f"weights_{s}.csv", f"stats_{s}.csv"}
        assert {p.name for p in out.iterdir()} == expected
        # emitted numbers must be plain round-trippable floats
        for name in expected - {"manifest.txt"}:
            assert "np." not in (out / name).read_text(), name
        for _, ret, eq in read_rows(out / "returns_dmft.csv")[1:]:
            float(ret), float(eq)
        for _, value in read_rows(out / "stats_dmft.csv")[1:]:
            float(value)
        manifest = (out / "manifest.txt").read_text()
        # defaults must be materialized even when the config omits them
        for needle in (
            "l_fund = 400",
            "n_trials = 5",
            "alpha_mom = 0.3333333333333333",
            "enabled = False",
            "turnover = one-way",
            "nw_auto_lag",
        ):
            assert needle in manifest

    def test_byte_identical_reruns_any_threads(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path, synth_dir)
        out1 = self.run(cfg, tmp_path / "o1")
        out2 = self.run(cfg, tmp_path / "o2")
        assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o3"),
                     "--threads", "4"]) == 0
        for p in sorted(out1.iterdir()):
            assert (out2 / p.name).read_bytes() == p.read_bytes(), p.name
            assert (tmp_path / "o3" / p.name).read_bytes() == p.read_bytes(), p.name

    def test_lambda_zero_dmft_equals_ew_files(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path, synth_dir, lam="0.0")
        out = self.run(cfg, tmp_path / "zero")
        assert (out / "returns_dmft.csv").read_bytes() == (out / "returns_ew_eligible.csv").read_bytes()
        assert (out / "weights_dmft.csv").read_bytes() == (out / "weights_ew_eligible.csv").read_bytes()

    def test_applied_calibration_noted_in_manifest(self, synth_dir, tmp_path):
        cfg = tmp_path / "cal.ini"
        cfg.write_text(
            CONFIG_TEMPLATE.format(data=synth_dir, start="2020-06-01", end="2022-06-30", lam="0.3")
            + "apply = true\n"
        )
        out = self.run(cfg, tmp_path / "calibrated")
        manifest = (out / "manifest.txt").read_text()
        assert "apply = True" in manifest
        assert "calibrated_alpha" in manifest

    def test_caps_respected_in_emitted_weights(self, synth_dir, tmp_path):
        cfg = tmp_path / "caps.ini"
        cfg.write_text(
            CONFIG_TEMPLATE.format(data=synth_dir, start="2020-06-01", end="2022-06-30", lam="0.4")
            + "\n[caps]\nenabled = true\nc_max = 0.18\nkappa = 0.12\ngamma = 0.5\n"
        )
        out = self.run(cfg, tmp_path / "capped")
        rows = read_rows(out / "weights_dmft.csv")[1:]
        assert rows
        for _, _, weight, _, cap in rows:
            if cap:
                assert float(weight) <= float(cap) + 1e-12


class TestDiagnoseCommand:
    def test_reports_written_and_convex(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path, synth_dir)
        out = tmp_path / "diag"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "ic_ir.csv").read_text()
        assert text.startswith("#")  # overlap note in the header
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        summary_at = lines.index("factor,ir,alpha")
        summary = {l.split(",")[0]: l.split(",")[1:] for l in lines[summary_at + 1 :]}
        alphas = [float(v[1]) for v in summary.values()]
        assert sum(alphas) == pytest.approx(1.0, abs=1e-9)
        # the scenario links momentum to forward returns, so its IR leads
        irs = {f: float(v[0]) for f, v in summary.items()}
        assert irs["MOM"] == max(irs.values())
        diag_rows = read_rows(out / "factor_diagnostics.csv")[1:]
        kinds = {r[0] for r in diag_rows}
        assert kinds == {"correlation", "marginal_sharpe"}

    def test_runs_without_calibration_flag(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path, synth_dir)
        out = tmp_path / "diag2"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "ic_ir.csv").exists() and (out / "factor_diagnostics.csv").exists()


class TestSynthCommand:
    def test_manifest_records_generator_and_seed(self, synth_dir):
        manifest = (synth_dir / "manifest.txt").read_text()
        assert "PCG64" in manifest and "seed = 11" in manifest

    def test_seed_override(self, tmp_path):
        scenario = tmp_path / "s.ini"
        scenario.write_text("n_assets = 4\nn_days = 30\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["synth", str(scenario), "--out", str(out_a), "--seed", "99"]) == 0
        assert main(["synth", str(scenario), "--out", str(out_b), "--seed", "99"]) == 0
        assert (out_a / "prices.csv").read_bytes() == (out_b / "prices.csv").read_bytes()
        assert "seed = 99" in (out_a / "manifest.txt").read_text()


@pytest.mark.parametrize("content, message", [
    (b"seed = 1\nn_assets = 4\nseed = 2\n",
     "While reading from '{path}' [line  3]: option 'seed' in section 'scenario' already exists"),
    (b"[scenario]\nseed = 1\nseed = 2\n",
     "While reading from '{path}' [line  3]: option 'seed' in section 'scenario' already exists"),
    (b"n_assets = 4\nn_days = \xff30\n",
     "cannot read scenario file {path}: 'utf-8' codec can't decode byte 0xff in position 22"),
], ids=["repeated-key", "repeated-key-with-header", "not-utf8"])
def test_bad_scenario_file_is_one_line(tmp_path, capsys, content, message):
    scenario = tmp_path / "s.ini"
    scenario.write_bytes(content)
    message = message.format(path=scenario)
    with pytest.raises(ConfigError, match=re.escape(message)):
        cli.cmd_synth(scenario, tmp_path / "direct")
    assert main(["synth", str(scenario), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content, message", [
    ("n_assets = abc\nn_days = 30\n", "[scenario] n_assets: cannot parse 'abc'"),
    ("n_assets = 4\nliquidity_tiers = 1,x\n", "[scenario] liquidity_tiers: cannot parse '1,x'"),
    ("n_assets = 4\nn_asset = 5\n",
     "unknown scenario keys: ['n_asset']; valid keys: seed, n_assets, n_days, vol, dispersion, ic_target, "
     "liquidity_tiers, missing_rate"),
    ("n_assets = 4\nic_target = nan\n", "ic_target must be finite, got nan"),
    ("n_assets = 4\nliquidity_tiers = 1,inf\n", "liquidity_tiers must be finite, got (1.0, inf)"),
], ids=["not-an-int", "not-a-float-list", "unknown-key", "nan-ic-target", "inf-tier"])
def test_bad_scenario_value_is_one_line(tmp_path, capsys, content, message):
    scenario = tmp_path / "s.ini"
    scenario.write_text(content)
    assert main(["synth", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.ini"]  # nothing written


def _tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir()} if path.exists() else None


@pytest.mark.parametrize("command", ["backtest", "diagnose"])
@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_failed_run_leaves_out_as_it_was(tmp_path, synth_dir, capsys, command, existing):
    text = CONFIG_TEMPLATE.format(data=synth_dir, start="2020-06-01", end="2022-06-30", lam="0.3")
    cfg = tmp_path / "run.ini"
    out = tmp_path / "results" / "deep" / "out"
    if existing:  # a finished run's artifacts plus a file of the user's own
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("mine\n")
    before = _tree(out)
    cfg.write_text(text.replace("adv_min = 1000.0", "adv_min = 1e15"))  # fails after its first artifacts
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.count("error: ") == 1
    assert _tree(out) == before
    if existing:
        assert sorted(p.name for p in out.parent.iterdir()) == ["out"]  # no staging left
    else:  # nor the parent directories made for the run
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


@pytest.mark.parametrize("command", ["backtest", "diagnose"])
def test_out_that_is_a_file_is_one_line(tmp_path, synth_dir, capsys, command):
    cfg = write_config(tmp_path, synth_dir)
    (tmp_path / "out").write_text("mine\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: output path {tmp_path / 'out'} exists and is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "run.ini"]


@pytest.mark.parametrize("command, out", [
    ("backtest", "afile/out"),
    ("diagnose", "afile/x/out"),
    ("synth", "afile/syn"),
])
def test_out_below_a_file_is_one_line(tmp_path, synth_dir, capsys, command, out):
    cfg = write_config(tmp_path, synth_dir)
    scenario = tmp_path / "s.ini"
    scenario.write_text("n_assets = 4\nn_days = 40\n")
    (tmp_path / "afile").write_text("mine\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    source = [str(scenario)] if command == "synth" else ["--config", str(cfg)]
    assert main([command, *source, "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: output path {tmp_path / out} cannot be made: {tmp_path / 'afile'} is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert (tmp_path / "afile").read_text() == "mine\n"


def test_synth_into_a_file_is_one_line(tmp_path, capsys):
    scenario = tmp_path / "s.ini"
    scenario.write_text("n_assets = 4\nn_days = 40\n")
    (tmp_path / "out").write_text("mine\n")
    assert main(["synth", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: output path {tmp_path / 'out'} exists and is not a directory\n"
    assert (tmp_path / "out").read_text() == "mine\n"


@pytest.mark.parametrize("command", ["backtest", "diagnose"])
def test_run_into_existing_out_keeps_other_files(tmp_path, synth_dir, command):
    cfg = write_config(tmp_path, synth_dir)
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.mkdir()
    (reused / "notes.txt").write_text("mine\n")
    (reused / "manifest.txt").write_text("stale\n")
    assert main([command, "--config", str(cfg), "--out", str(fresh)]) == 0
    assert main([command, "--config", str(cfg), "--out", str(reused)]) == 0
    expected = _tree(fresh)
    expected["notes.txt"] = b"mine\n"
    if command == "diagnose":  # diagnose writes no manifest
        expected["manifest.txt"] = b"stale\n"
    assert _tree(reused) == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "reused", "run.ini"]


def test_diagnose_with_every_universe_empty_names_the_cause(tmp_path, synth_dir, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEMPLATE.format(data=synth_dir, start="2020-06-01", end="2022-06-30", lam="0.3")
                   .replace("adv_min = 1000.0", "adv_min = 1e15"))
    assert main(["diagnose", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    lines = [line for line in capsys.readouterr().err.splitlines() if not line.startswith(("INFO ", "WARNING "))]
    assert lines == ["error: no rebalance date has a non-empty universe, so there are no factor correlations"]


def test_load_config_defaults_materialize(tmp_path, synth_dir):
    cfg_path = write_config(tmp_path, synth_dir)
    cfg = load_config(cfg_path)
    assert cfg.factors.l_fund == 400
    assert cfg.caps is None
    assert cfg.tilt.alpha["MOM"] == pytest.approx(1 / 3)
    assert cfg.n_trials == 5
    assert cfg.calibration.horizon == 60


@pytest.mark.parametrize("key", ["start", "end"])
def test_config_dates_must_be_yyyy_mm_dd(tmp_path, synth_dir, capsys, key):
    # 20200102 is an ISO 8601 form, but it does not sort in date order beside 2020-01-03
    dates = {"start": "2020-06-01", "end": "2022-06-30", key: "20200102"}
    cfg_path = write_config(tmp_path, synth_dir, **dates)
    with pytest.raises(ConfigError, match=rf"\[run\] {key}: cannot parse '20200102'"):
        load_config(cfg_path)
    assert main(["validate", "--config", str(cfg_path)]) == 1
    assert f"[run] {key}: cannot parse '20200102'" in capsys.readouterr().err


@pytest.mark.parametrize("command, calibrate", [("backtest", False), ("backtest", True), ("diagnose", False)])
def test_one_snapshot_per_rebalance_date(tmp_path, synth_dir, monkeypatch, command, calibrate):
    built = Counter()
    real = backtest.snapshot

    def counting(panel, t, config):
        built[t] += 1
        return real(panel, t, config)

    monkeypatch.setattr(backtest, "snapshot", counting)
    monkeypatch.setattr(cli, "snapshot", counting)
    matrices = Counter()
    real_select = backtest.select_factor_matrix

    def counting_select(snap, positions, params):
        matrices[snap.t] += 1
        return real_select(snap, positions, params)

    for module in (backtest, cli):  # each binding a command could call it through
        monkeypatch.setattr(module, "select_factor_matrix", counting_select, raising=False)
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEMPLATE.format(data=synth_dir, start="2020-06-01", end="2022-06-30", lam="0.3")
                   + f"apply = {calibrate}\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    _, schedule = cli._load_inputs(load_config(cfg))
    assert len(schedule) >= 4
    assert built == Counter(schedule.dates)
    # one factor matrix per date and pool: the screened pool, plus fixed_universe in backtest
    assert matrices == Counter({t: 2 if command == "backtest" else 1 for t in schedule.dates})


@pytest.mark.parametrize("make, name", [
    (lambda v: TiltParams(lam=v), "lam"),
    (lambda v: TiltParams(alpha={"MOM": v, "VAL": 0.5, "QUAL": 0.5}), "alpha[MOM]"),
    (lambda v: BacktestConfig(cost_rate=v), "cost_rate"),
    (lambda v: EligibilityParams(adv_min=v), "adv_min"),
    (lambda v: CapParams(kappa=v), "kappa"),
    (lambda v: CapParams(epsilon=v), "epsilon"),
    (lambda v: ScenarioSpec(vol=v), "vol"),
    (lambda v: ScenarioSpec(dispersion=v), "dispersion"),
    (lambda v: ScenarioSpec(ic_target=v), "ic_target"),
    (lambda v: ScenarioSpec(liquidity_tiers=(1.0, v)), "liquidity_tiers"),
], ids=["lam", "alpha", "cost_rate", "adv_min", "kappa", "epsilon", "vol", "dispersion", "ic_target", "tiers"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_parameters_are_rejected(make, name, value):
    with pytest.raises(ConfigError, match=re.escape(f"{name} must be finite, got ")):
        make(value)


def test_non_finite_weights_are_rejected():
    # NaN weights sum to NaN, which the sum check alone lets through
    for w in ([math.nan, math.nan], [0.5, math.inf]):
        with pytest.raises(ConfigError, match="weights must be finite"):
            WeightVector(t="2020-01-06", assets=("A", "B"), w=w)


@pytest.mark.parametrize("old, new, message", [
    ("lambda = 0.3", "lambda = nan", "lam must be finite, got nan"),
    ("cost_rate = 0.0005", "cost_rate = nan", "cost_rate must be finite, got nan"),
    ("[tilt]\n", "[tilt]\nalpha_mom = nan\nalpha_val = 0.5\nalpha_qual = 0.5\n", "alpha[MOM] must be finite, got nan"),
    ("adv_min = 1000.0", "adv_min = inf", "adv_min must be finite, got inf"),
], ids=["lambda", "cost_rate", "alpha_mom", "adv_min"])
@pytest.mark.parametrize("command", ["backtest", "diagnose"])
def test_non_finite_config_values_are_one_line(tmp_path, synth_dir, capsys, command, old, new, message):
    text = CONFIG_TEMPLATE.format(data=synth_dir, start="2020-06-01", end="2022-06-30", lam="0.3")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace(old, new, 1))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]  # nothing written


@pytest.mark.parametrize("command", ["validate", "backtest", "diagnose"])
def test_missing_input_file_is_one_line(tmp_path, synth_dir, capsys, command):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEMPLATE.format(data=synth_dir, start="2020-06-01", end="2022-06-30", lam="0.3")
                   .replace("volumes.csv", "no_such_volumes.csv"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    text = captured.out if command == "validate" else captured.err
    expected = "INVALID: " if command == "validate" else "error: "
    assert text == f"{expected}cannot read {synth_dir / 'no_such_volumes.csv'}: No such file or directory\n"


def test_input_that_is_not_utf8_is_one_line(tmp_path, synth_dir, capsys):
    for name in ("prices", "volumes", "mktcap", "fundamentals"):
        (tmp_path / f"{name}.csv").write_bytes((synth_dir / f"{name}.csv").read_bytes())
    with (tmp_path / "mktcap.csv").open("ab") as fh:
        fh.write(b"2020-01-06,\xff\xfe,1.0\r\n")
    cfg = write_config(tmp_path, tmp_path)
    assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'mktcap.csv'}: not UTF-8 text (byte ")


def test_every_package_error_is_a_factortilt_error():
    for cls, base in ((errors.DataError, ValueError), (errors.ConfigError, ValueError),
                      (errors.InfeasibleCapsError, ValueError), (errors.StatsError, ValueError)):
        assert issubclass(cls, errors.FactortiltError) and issubclass(cls, base)


@pytest.mark.parametrize("command", ["backtest", "diagnose"])
@pytest.mark.parametrize("extra, raised", [
    ("\n[caps]\nenabled = true\nc_max = 0.001\n", errors.InfeasibleCapsError),
    ("", errors.StatsError),
], ids=["c_max-0.001", "adv_min-1e15"])
def test_engine_errors_are_one_line(tmp_path, synth_dir, capsys, command, extra, raised):
    text = CONFIG_TEMPLATE.format(data=synth_dir, start="2020-06-01", end="2022-06-30", lam="0.3") + extra
    if raised is errors.StatsError:
        text = text.replace("adv_min = 1000.0", "adv_min = 1e15")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    with pytest.raises(raised):  # the engine really raises it ...
        getattr(cli, f"cmd_{command}")(load_config(cfg, out_override=tmp_path / "direct"))
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1  # ... main reports it
    lines = [line for line in capsys.readouterr().err.splitlines() if not line.startswith(("INFO ", "WARNING "))]
    assert len(lines) == 1 and lines[0].startswith("error: ")  # no traceback


@pytest.mark.parametrize("old, new, message", [
    ("[tilt]\n", "[tilt]\nlamda = 0.9\n",
     "unknown key 'lamda' in [tilt]; valid keys: alpha_mom, alpha_val, alpha_qual, lambda, m_min, m_max"),
    ("[tilt]\n", "[capz]\nenabled = true\n\n[tilt]\n",
     "unknown section [capz]; valid sections: [data], [run], [eligibility], [factors], [tilt], [caps], "
     "[calibration]"),
    ("[run]\n", "[run]\nthread = 4\n", "unknown key 'thread' in [run]"),
    ("[data]\n", "[DEFAULT]\nlambda = 0.9\n\n[data]\n", "unknown section [DEFAULT]"),
], ids=["misspelled-key", "misspelled-section", "run-key", "default-section"])
def test_unknown_config_sections_and_keys_rejected(tmp_path, synth_dir, capsys, old, new, message):
    text = CONFIG_TEMPLATE.format(data=synth_dir, start="2020-06-01", end="2022-06-30", lam="0.3")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace(old, new, 1))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(cfg)
    assert main(["validate", "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err


def test_malformed_config_is_a_config_error(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[data]\nprices = a.csv\nprices = b.csv\n")
    with pytest.raises(ConfigError, match=re.escape(f"While reading from '{cfg}' [line  3]: option 'prices'")):
        load_config(cfg)


def test_compatibility_keys_still_load(tmp_path, synth_dir, capsys):
    # [run] threads and out are accepted; perfbench's generated run.ini is
    # loaded by the benchmark smoke test. [caps] max_iterations, the bound of
    # the iterative projection the closed form replaced, is rejected
    cfg = tmp_path / "run.ini"
    text = (CONFIG_TEMPLATE.format(data=synth_dir, start="2020-06-01", end="2022-06-30", lam="0.3")
            .replace("[run]\n", "[run]\nthreads = 4\nout = elsewhere\n")
            + "\n[caps]\nenabled = true\nepsilon = 1e-12\n")
    cfg.write_text(text)
    loaded = load_config(cfg)
    assert loaded.out_dir == Path("elsewhere") and loaded.caps.epsilon == 1e-12
    cfg.write_text(text + "max_iterations = 50\n")
    message = "unknown key 'max_iterations' in [caps]; valid keys: enabled, c_max, kappa, gamma, epsilon"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(cfg)
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = tmp_path / "run.ini"
    cfg.write_text(example)
    loaded = load_config(cfg)
    assert loaded.tilt.lam == 0.25 and loaded.caps is None and loaded.calibration.horizon == 126
