"""Each error branch of a public call that no other test reaches: one row
per branch, giving the call, the exception type and the whole message.

A row's call takes the test's temporary directory; `{tmp}` in a message
stands for it."""

from __future__ import annotations

import numpy as np
import pytest

from factortilt.backtest import BacktestConfig, BacktestResult, pool_positions
from factortilt.calibration import CalibrationParams, ICSeries, forward_returns, ir_to_alpha
from factortilt.cli import cmd_synth, load_config
from factortilt.eligibility import EligibilityParams, EligibilitySet
from factortilt.errors import ConfigError, DataError, StatsError
from factortilt.factors import FactorMatrix, FactorParams, stored_matrices
from factortilt.market_data import AsOf, MarketPanel, TradingCalendar, build_schedule
from factortilt.stats import (
    annualized_return,
    annualized_vol,
    deflated_sharpe,
    expected_max_sharpe,
    factor_correlations,
    factor_redundancy,
    max_drawdown,
    newey_west_tstat,
)
from factortilt.synthetic import ScenarioSpec, trading_days
from factortilt.weighting import CapParams, Targets, TiltParams

from conftest import make_panel

DATA = "[data]\nprices = p.csv\nvolumes = v.csv\nmktcap = m.csv\nfundamentals = f.csv\n"
RUN = "[run]\nstart = 2020-01-06\nend = 2020-06-30\n"


def ini(tmp, text: str, name: str = "run.ini"):
    path = tmp / name
    path.write_text(text, encoding="utf-8")
    return path


def panel_of(shape=(2, 1), assets=("A",), price=1.0, volume=1.0, mktcap=1.0) -> MarketPanel:
    """A panel over the first shape[0] trading days whose grids are filled
    with the given values (each grid of `shape`)."""
    return MarketPanel(list(assets), trading_days(2), *(np.full(shape, v) for v in (price, volume, mktcap)))


def matrix(t: str) -> FactorMatrix:
    z = np.arange(12.0).reshape(4, 3) % 5
    return FactorMatrix(t=t, positions=np.arange(4), panel_assets=("A", "B", "C", "D"), raw=z, z=z)


def snapshot_under_other_windows():
    """The matrix store asked for l_mom = 1 with a snapshot built under l_mom = 2."""
    panel = panel_of()
    snap = AsOf(panel, "2020-01-02", l_mom=2, skip=1, l_fund=30)
    return stored_matrices(panel, ["2020-01-02"], [np.array([0])], FactorParams(l_mom=1, skip=1, l_fund=30), [snap])


def result(returns) -> BacktestResult:
    returns = np.asarray(returns, dtype=float)
    return BacktestResult(strategy="dmft", dates=[f"2020-01-{d + 6:02d}" for d in range(len(returns))],
                          daily_returns=returns, equity_curve=np.cumprod(1 + returns), turnover=np.zeros(0),
                          costs=np.zeros(0), weights=Targets(dates=(), assets=(), w=np.zeros((0, 0))))


SERIES = [0.01, -0.02, 0.03, 0.0, 0.01, -0.01, 0.02, 0.005]

BRANCHES = {
    # backtest
    "pool-strategy": (lambda tmp: pool_positions(AsOf(panel_of(), "2020-01-02"), "screened", BacktestConfig()),
                      ConfigError, "unknown strategy 'screened'; expected one of "
                      "('dmft', 'fixed_universe', 'ew_eligible', 'ew_all', 'cap_weighted')"),
    # calibration
    "calibration-horizon": (lambda tmp: CalibrationParams(horizon=0), ConfigError, "horizon must be >= 1, got 0"),
    "calibration-m_min": (lambda tmp: CalibrationParams(m_min=0), ConfigError, "m_min must be >= 1, got 0"),
    "calibration-min_universe": (lambda tmp: CalibrationParams(min_universe=2), ConfigError,
                                 "min_universe must be >= 3, got 2"),
    "calibration-integer": (lambda tmp: CalibrationParams(horizon=126.0), ConfigError,
                            "horizon must be an integer, got 126.0"),
    "ic-length": (lambda tmp: ICSeries(dates=("2020-01-06",), values=np.zeros(2)), ConfigError,
                  "IC dates and values length mismatch"),
    "ic-order": (lambda tmp: ICSeries(dates=("2020-01-07", "2020-01-06"), values=np.zeros(2)), ConfigError,
                 "IC dates not strictly increasing"),
    "ic-range": (lambda tmp: ICSeries(dates=("2020-01-06",), values=np.array([1.5])), ConfigError,
                 "IC values outside [-1, 1]"),
    "forward-horizon": (lambda tmp: forward_returns(make_panel(3, ["A"], price=1.0), "2020-01-06", 0), ConfigError,
                        "horizon must be >= 1, got 0"),
    "alpha-no-series": (lambda tmp: ir_to_alpha({}, 3), ConfigError, "no IC series supplied"),
    # cli
    "config-missing": (lambda tmp: load_config(tmp / "absent.ini"), ConfigError,
                       "config file {tmp}/absent.ini does not exist"),
    "config-no-data": (lambda tmp: load_config(ini(tmp, RUN)), ConfigError, "{tmp}/run.ini: missing [data] section"),
    "config-no-run": (lambda tmp: load_config(ini(tmp, DATA)), ConfigError, "{tmp}/run.ini: missing [run] section"),
    "config-data-key": (lambda tmp: load_config(ini(tmp, DATA.replace("volumes = v.csv\n", "") + RUN)), ConfigError,
                        "{tmp}/run.ini: missing [data] volumes"),
    "config-run-start": (lambda tmp: load_config(ini(tmp, DATA + "[run]\nend = 2020-06-30\n")), ConfigError,
                         "{tmp}/run.ini: [run] start and end are required"),
    "config-run-end": (lambda tmp: load_config(ini(tmp, DATA + "[run]\nstart = 2020-01-06\n")), ConfigError,
                       "{tmp}/run.ini: [run] start and end are required"),
    "scenario-empty": (lambda tmp: cmd_synth(ini(tmp, "# nothing\n", "s.ini"), tmp / "out"), ConfigError,
                       "{tmp}/s.ini: empty scenario file"),
    # eligibility
    "eligibility-h_min": (lambda tmp: EligibilityParams(h_min=-1), ConfigError, "h_min must be >= 0, got -1"),
    "eligibility-adv_min": (lambda tmp: EligibilityParams(adv_min=-1.0), ConfigError,
                            "adv_min must be >= 0, got -1.0"),
    "eligibility-l_adv": (lambda tmp: EligibilityParams(l_adv=0), ConfigError, "l_adv must be >= 1, got 0"),
    "eligibility-integer": (lambda tmp: EligibilityParams(l_adv=2.5), ConfigError,
                            "l_adv must be an integer, got 2.5"),
    "eligibility-members": (lambda tmp: EligibilitySet(t="2020-01-06", members=("X",), assets=("A",)), ConfigError,
                            "universe members not a subset of panel assets"),
    "eligibility-rows": (lambda tmp: EligibilitySet(t="2020-01-06", members=("A",), assets=("A", "B"),
                                                    history=np.array([300, 300, 300]), adv=np.ones(2)), ConfigError,
                         "history row needs 2 entries, got shape (3,)"),
    "eligibility-rows-paired": (lambda tmp: EligibilitySet(t="2020-01-06", members=("A",), assets=("A", "B"),
                                                           history=np.array([300, 300])), ConfigError,
                                "adv row needs 2 entries, got shape ()"),
    # factors
    "factors-l_mom": (lambda tmp: FactorParams(l_mom=0), ConfigError, "l_mom must be >= 1, got 0"),
    "factors-l_fund": (lambda tmp: FactorParams(l_fund=0), ConfigError, "l_fund must be >= 1, got 0"),
    "factors-integer": (lambda tmp: FactorParams(l_mom=True), ConfigError, "l_mom must be an integer, got True"),
    "factors-winsor_p": (lambda tmp: FactorParams(winsor_p=0.5), ConfigError,
                         "winsor_p must be in [0, 0.5), got 0.5"),
    "factors-snapshot-windows": (lambda tmp: snapshot_under_other_windows(), ConfigError,
                                 "the snapshot given for 2020-01-02 is not AsOf(panel, 2020-01-02) of this panel "
                                 "under the factor windows (l_mom, skip, l_fund) = (1, 1, 30)"),
    # market_data
    "calendar-order": (lambda tmp: TradingCalendar(days=("2020-01-07", "2020-01-06")), DataError,
                       "calendar not strictly increasing at '2020-01-07' >= '2020-01-06'"),
    "panel-shape": (lambda tmp: panel_of(shape=(3, 1)), DataError, "price grid has shape (3, 1), expected (2, 1)"),
    "panel-duplicate-ids": (lambda tmp: panel_of(shape=(2, 2), assets=("A", "A")), DataError, "duplicate asset ids"),
    "panel-price": (lambda tmp: panel_of(price=0.0), DataError, "non-positive price cell"),
    "panel-volume": (lambda tmp: panel_of(volume=-1.0), DataError, "negative volume cell"),
    "panel-mktcap": (lambda tmp: panel_of(mktcap=0.0), DataError, "non-positive market cap cell"),
    "schedule-start-after-end": (lambda tmp: build_schedule(trading_days(5), "2020-02-01", "2020-01-01"),
                                 ConfigError, "start 2020-02-01 after end 2020-01-01"),
    "schedule-no-anchors": (lambda tmp: build_schedule(trading_days(5), "2020-01-01", "2020-02-01", anchors=()),
                            ConfigError, "anchor list is empty"),
    "schedule-bad-anchor": (lambda tmp: build_schedule(trading_days(5), "2020-01-01", "2020-02-01",
                                                       anchors=((2, 30),)), ConfigError, "invalid anchor (2,30)"),
    # stats
    "series-2d": (lambda tmp: annualized_return([[0.01, 0.02]]), StatsError, "expected a one-dimensional series"),
    "return-empty": (lambda tmp: annualized_return([]), StatsError, "empty return series"),
    "vol-empty": (lambda tmp: annualized_vol([]), StatsError, "empty return series"),
    "equity-non-positive": (lambda tmp: annualized_return([0.5, -1.0]), StatsError,
                            "equity non-positive; annualized return undefined"),
    "nw-negative-lag": (lambda tmp: newey_west_tstat(SERIES, lag=-1), StatsError, "lag must be >= 0, got -1"),
    "max-sharpe-trials": (lambda tmp: expected_max_sharpe(0, 100), StatsError, "n_trials must be >= 1, got 0"),
    "deflated-trials": (lambda tmp: deflated_sharpe(SERIES, 0), StatsError, "n_trials must be >= 1, got 0"),
    # a two-point sample with skewness times Sharpe equal to 2 puts the
    # denominator exactly at 0: kurtosis >= skewness^2 + 1 keeps it >= 0
    "deflated-moments": (lambda tmp: deflated_sharpe([1.5] * 5 + [2.5] * 3, 1), StatsError,
                         "moment condition violated"),
    "drawdown-empty": (lambda tmp: max_drawdown([]), StatsError, "equity curve must be non-empty and positive"),
    "drawdown-non-positive": (lambda tmp: max_drawdown([1.0, 0.0]), StatsError,
                              "equity curve must be non-empty and positive"),
    "correlations-one-date": (lambda tmp: factor_correlations([matrix("2020-01-06")]), StatsError,
                              "factor correlations need at least 2 rebalance dates with a non-empty universe, got 1"),
    "redundancy-no-full": (lambda tmp: factor_redundancy([matrix("2020-01-06"), matrix("2020-01-07")], {}),
                           StatsError, "results must contain a 'full' backtest"),
    "redundancy-no-removal": (lambda tmp: factor_redundancy([matrix("2020-01-06"), matrix("2020-01-07")],
                                                            {"full": result(SERIES)}),
                              StatsError, "results missing removal run 'drop_MOM'"),
    # synthetic
    "scenario-vol": (lambda tmp: ScenarioSpec(vol=-0.01), ConfigError, "vol and dispersion must be >= 0"),
    "scenario-dispersion": (lambda tmp: ScenarioSpec(dispersion=-1.0), ConfigError,
                            "vol and dispersion must be >= 0"),
    # weighting
    "tilt-negative-alpha": (lambda tmp: TiltParams(alpha={"MOM": -0.5, "VAL": 1.0, "QUAL": 0.5}), ConfigError,
                            "mixture weights must be non-negative"),
    "tilt-alpha-sum": (lambda tmp: TiltParams(alpha={"MOM": 0.5, "VAL": 0.25, "QUAL": 0.125}), ConfigError,
                       "mixture weights must sum to 1, got 0.875"),
    "tilt-lambda": (lambda tmp: TiltParams(lam=-0.1), ConfigError, "tilt strength must be >= 0, got -0.1"),
    "tilt-bounds": (lambda tmp: TiltParams(m_min=1.2), ConfigError, "need 0 < m_min <= 1 <= m_max, got [1.2, 1.5]"),
    "caps-c_max": (lambda tmp: CapParams(c_max=0.0), ConfigError, "c_max must be in (0, 1], got 0.0"),
    "caps-kappa": (lambda tmp: CapParams(kappa=0.0), ConfigError, "kappa must be > 0, got 0.0"),
}


@pytest.mark.parametrize("call, error, message", BRANCHES.values(), ids=BRANCHES.keys())
def test_error_branch(tmp_path, call, error, message):
    with pytest.raises(error) as raised:
        call(tmp_path)
    assert type(raised.value) is error and str(raised.value) == message.format(tmp=tmp_path)


def test_integer_parameters_accept_numpy_integers():
    n = np.int64(5)
    assert EligibilityParams(h_min=n, l_adv=n).l_adv == 5
    assert FactorParams(l_mom=n, skip=n, l_fund=n).skip == 5
    assert CalibrationParams(horizon=n, m_min=n, min_universe=n).horizon == 5
