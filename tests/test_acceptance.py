"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s); a [FAIL]
line re-raises, so plain pytest output still reports the failure.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import norm

from factortilt.backtest import BacktestConfig, run_baselines
from factortilt.calibration import CalibrationParams, ICSeries, build_ic_series, ir_to_alpha
from factortilt.cli import cmd_synth, main
from factortilt.eligibility import EligibilityParams, compute_eligibility
from factortilt.errors import InfeasibleCapsError
from factortilt.factors import FactorParams, build_factor_matrix
from factortilt.market_data import build_schedule, censor_panel
from factortilt.stats import (
    deflated_sharpe,
    effective_n,
    expected_max_sharpe,
    max_drawdown,
    newey_west_tstat,
    top_k_concentration,
)
from factortilt.synthetic import ScenarioSpec, generate
from factortilt.weighting import WEIGHT_SUM_TOL, CapParams, TiltParams, cap_values, project_onto_caps, tilted_weights

from test_weighting import project_oracle


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


CONFIG = """
[data]
prices = {data}/prices.csv
volumes = {data}/volumes.csv
mktcap = {data}/mktcap.csv
fundamentals = {data}/fundamentals.csv

[run]
start = {start}
end = {end}
cost_rate = 0.0005

[eligibility]
h_min = 252
adv_min = 1000.0
l_adv = 63

[tilt]
lambda = {lam}
"""


def synth(tmp, name, **kw):
    scenario = tmp / f"{name}.ini"
    scenario.write_text("".join(f"{k} = {v}\n" for k, v in kw.items()))
    out = tmp / name
    assert cmd_synth(scenario, out) == 0
    return out


def test_criterion_1_degeneracy_identity(tmp_path):
    with criterion(1, "lambda = 0 reproduces the equal-weight baseline bitwise, < 5 s at 50x5y"):
        data = synth(
            tmp_path, "c1",
            seed=101, n_assets=50, n_days=1260, vol=0.01,
            dispersion=0.8, missing_rate=0.02,
        )
        cfg = tmp_path / "c1.run.ini"
        cfg.write_text(CONFIG.format(data=data, start="2021-01-01", end="2024-12-31", lam="0.0"))
        out = tmp_path / "c1.out"
        started = time.perf_counter()
        assert main(["backtest", "--config", str(cfg), "--out", str(out)]) == 0
        elapsed = time.perf_counter() - started
        for kind in ("weights", "returns", "turnover"):
            lhs = (out / f"{kind}_dmft.csv").read_bytes()
            rhs = (out / f"{kind}_ew_eligible.csv").read_bytes()
            assert lhs == rhs, f"{kind} files differ"
        assert elapsed < 5.0, f"backtest took {elapsed:.2f}s"


def _same_with_nans(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def test_criterion_2_lookahead_invariance():
    with criterion(2, "censoring the panel from t onward reproduces universe, z, and weights exactly"):
        panel = generate(
            ScenarioSpec(seed=102, n_assets=20, n_days=756, vol=0.012, dispersion=0.7,
                         ic_target=0.3, liquidity_tiers=(1.0, 3.0, 9.0), missing_rate=0.05)
        )
        cal = panel.calendar
        schedule = build_schedule(cal, cal.days[280], cal.days[-1])
        assert len(schedule.dates) >= 3
        elig = EligibilityParams(h_min=252, adv_min=1000.0, l_adv=63)
        fparams = FactorParams()
        tilt = TiltParams(lam=0.3)
        caps = CapParams(c_max=0.15, kappa=0.1, gamma=0.5)
        for t in schedule.dates:
            censored = censor_panel(panel, t)
            uni_f = compute_eligibility(panel, t, elig)
            uni_c = compute_eligibility(censored, t, elig)
            assert uni_f.members == uni_c.members
            for a in panel.assets:
                sf, sc = uni_f.screen_values[a], uni_c.screen_values[a]
                assert sf.history == sc.history
                assert (math.isnan(sf.adv) and math.isnan(sc.adv)) or sf.adv == sc.adv
            m_f = build_factor_matrix(panel, uni_f, t, fparams)
            m_c = build_factor_matrix(censored, uni_c, t, fparams)
            assert _same_with_nans(m_f.raw, m_c.raw)
            assert np.array_equal(m_f.z, m_c.z)
            adv_f, adv_c = (np.array([u.screen_values[a].adv for a in u.members]) for u in (uni_f, uni_c))
            w_f = tilted_weights(m_f, tilt, cap_values(adv_f, caps))
            w_c = tilted_weights(m_c, tilt, cap_values(adv_c, caps))
            assert np.array_equal(w_f.w, w_c.w)


def test_criterion_3_bound_containment():
    with criterion(3, "1,000 random tilt configs: max w <= (m_max/m_min)/|U| + 1e-9; capped w <= c + eps"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            n = int(rng.integers(1, 31))
            m_min = float(rng.uniform(0.05, 1.0))
            m_max = float(rng.uniform(1.0, 4.0))
            lam = float(rng.uniform(0.0, 3.0))
            scores = rng.normal(scale=2.0, size=n)
            mults = np.clip(1.0 + lam * scores, m_min, m_max)
            base = np.full(n, 1.0 / n)
            raw = base * mults
            w = raw / raw.sum() if not np.all(mults == mults[0]) else base
            assert w.max() <= (m_max / m_min) / n + 1e-9
            assert abs(w.sum() - 1.0) <= 1e-9
            caps = rng.uniform(1.0 / n, 1.0, size=n)  # sum >= 1 by construction
            capped = project_onto_caps(w, caps)
            assert np.all(capped <= caps + 1e-12)


def test_criterion_4_projection_oracle_equivalence():
    with criterion(4, "cap-and-redistribute matches the naive oracle on 10,000 instances (<= 1e-9)"):
        rng = np.random.default_rng(104)
        feasible = infeasible = 0
        for _ in range(10000):
            n = int(rng.integers(1, 9))
            raw = rng.dirichlet(np.full(n, 0.7))
            caps = rng.uniform(0.04, 1.0, size=n)
            if caps.sum() < 1.0 - WEIGHT_SUM_TOL:
                infeasible += 1
                with pytest.raises(InfeasibleCapsError):
                    project_onto_caps(raw, caps)
                with pytest.raises(InfeasibleCapsError):
                    project_oracle(raw, caps)
                continue
            feasible += 1
            mine = project_onto_caps(raw, caps)
            ref = project_oracle(raw, caps)
            assert np.max(np.abs(mine - np.asarray(ref))) <= 1e-9
        assert feasible >= 5000 and infeasible >= 500


def test_criterion_5_statistics_oracles():
    with criterion(5, "NW(L=0) == classical t; drawdown/effective-N fixtures; DSR matches MC within 0.02"):
        rng = np.random.default_rng(105)
        x = rng.normal(0.0005, 0.01, 350)
        t_nw, lag = newey_west_tstat(x, lag=0)
        sigma_pop = math.sqrt(np.mean((x - x.mean()) ** 2))
        assert lag == 0
        assert abs(t_nw - x.mean() / (sigma_pop / math.sqrt(len(x)))) <= 1e-12

        assert max_drawdown([1.0, 1.2, 0.9, 1.1]) == -0.25

        for n in (1, 2, 3, 4, 7, 8, 16, 32, 64):
            assert effective_n(np.full(n, 1.0 / n)) == n

        flat = np.tile([0.01, -0.01], 4)
        assert deflated_sharpe(flat, n_trials=1) == 0.5

        started = time.perf_counter()
        t_obs, n_trials, reps = 252, 10, 1000  # reps * n_trials = 10,000 null paths
        mc_rng = np.random.default_rng(2024)
        series = mc_rng.normal(0.0016, 0.01, t_obs)
        paths = mc_rng.standard_normal((reps, n_trials, t_obs))
        null_srs = paths.mean(axis=2) / paths.std(axis=2)
        sr_star_mc = float(null_srs.max(axis=1).mean())
        xc = series - series.mean()
        m2 = float(np.mean(xc**2))
        sr = float(series.mean()) / math.sqrt(m2)
        g3 = float(np.mean(xc**3)) / m2**1.5
        g4 = float(np.mean(xc**4)) / m2**2
        denom = math.sqrt(1.0 - g3 * sr + (g4 - 1.0) / 4.0 * sr**2)
        dsr_mc = float(norm.cdf((sr - sr_star_mc) * math.sqrt(t_obs - 1.0) / denom))
        dsr = deflated_sharpe(series, n_trials)
        assert abs(dsr - dsr_mc) <= 0.02, f"DSR {dsr:.4f} vs MC {dsr_mc:.4f}"
        assert expected_max_sharpe(n_trials, t_obs) == pytest.approx(sr_star_mc, abs=0.01)
        assert time.perf_counter() - started < 60.0


def test_criterion_6_ic_construction():
    with criterion(6, "monotone scenario yields IC = 1.0 at every valid date; uniform IR fallback exact"):
        panel = generate(
            ScenarioSpec(seed=106, n_assets=20, n_days=900, vol=0.0, dispersion=0.8, ic_target=1.0)
        )
        cal = panel.calendar
        schedule = build_schedule(cal, cal.days[300], cal.days[-1])
        elig = EligibilityParams(h_min=252, adv_min=0.0, l_adv=63)
        universes = {t: compute_eligibility(panel, t, elig) for t in schedule.dates}
        matrices = {
            t: build_factor_matrix(panel, u, t, FactorParams()) for t, u in universes.items() if u.members
        }
        params = CalibrationParams(horizon=126, m_min=2, min_universe=5)
        series = build_ic_series(panel, schedule, matrices, params)
        assert len(series["MOM"]) >= 3
        assert np.all(series["MOM"].values == 1.0)
        n_skipped = len(schedule.dates) - len(series["MOM"])
        assert n_skipped >= 1  # dates lacking t+H data are absent

        losing = {
            f: ICSeries(dates=("2020-01-01", "2020-07-01"), values=np.array([-0.2, -0.1]))
            for f in ("MOM", "VAL", "QUAL")
        }
        alpha = ir_to_alpha(losing, m_min=2)
        assert alpha == {"MOM": 1 / 3, "VAL": 1 / 3, "QUAL": 1 / 3}


def test_criterion_7_behavioral_claims():
    with criterion(7, "scenario-conditional: tilted top-5 < cap-weighted top-5 per rebalance; "
                      "tilted turnover <= unscreened equal weight (drift accounting)"):
        panel = generate(
            ScenarioSpec(seed=30, n_assets=30, n_days=1300, vol=0.012, dispersion=0.9,
                         ic_target=0.8, liquidity_tiers=(1, 2, 4, 8, 16, 64))
        )
        cal = panel.calendar
        schedule = build_schedule(cal, cal.days[280], cal.days[-1])
        config = BacktestConfig(
            weight_mode="drift",
            eligibility=EligibilityParams(h_min=252, adv_min=0.0, l_adv=63),
            factors=FactorParams(),
            tilt=TiltParams(alpha={"MOM": 0.6, "VAL": 0.2, "QUAL": 0.2}, lam=0.25),
        )
        results = run_baselines(panel, schedule, config)
        assert len(results["dmft"].weights) >= 6
        for w_tilt, w_cap in zip(results["dmft"].weights, results["cap_weighted"].weights):
            assert top_k_concentration(w_tilt, 5) < top_k_concentration(w_cap, 5)
        # the two books share their dates, so their turnover sums compare as
        # their annualized turnover does
        assert results["dmft"].turnover.sum() <= results["ew_all"].turnover.sum()


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "identical configs produce byte-identical artifacts"):
        data = synth(
            tmp_path, "c8",
            seed=108, n_assets=20, n_days=700, vol=0.01,
            dispersion=0.7, missing_rate=0.03, liquidity_tiers="1,4",
        )
        cfg = tmp_path / "c8.run.ini"
        cfg.write_text(CONFIG.format(data=data, start="2021-01-04", end="2022-09-30", lam="0.3"))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["backtest", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names, "no artifacts written"
        for other in outs[1:]:
            assert sorted(p.name for p in other.iterdir()) == names
            for name in names:
                assert (other / name).read_bytes() == (outs[0] / name).read_bytes(), name
