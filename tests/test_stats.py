import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from factortilt.backtest import BacktestResult
from factortilt.errors import StatsError
from factortilt.factors import FactorMatrix
from factortilt.stats import (
    _effective_ns,
    _top_k_sums,
    annualized_return,
    annualized_vol,
    deflated_sharpe,
    expected_max_sharpe,
    factor_correlations,
    factor_redundancy,
    max_drawdown,
    newey_west_tstat,
    sharpe_ratio,
    summarize,
    turnover_adjusted_alpha,
)
from factortilt.synthetic import trading_days
from factortilt.weighting import Targets


def result_from(returns, turnover=(), strategy="x", start_idx=0, n_total=None, traded=None):
    """A result over `returns` whose targets (over no assets) are dated at
    the slice `traded` of its dates, by default the first len(turnover)."""
    returns = np.asarray(returns, dtype=float)
    n_total = n_total or (start_idx + len(returns))
    days = trading_days(n_total).days
    dates = list(days[start_idx : start_idx + len(returns)])
    turnover = np.asarray(turnover if len(turnover) else [0.0], dtype=float)
    reb = dates[traded or slice(len(turnover))]
    return BacktestResult(
        strategy=strategy,
        dates=dates,
        daily_returns=returns,
        equity_curve=np.cumprod(1 + returns),
        turnover=turnover,
        costs=np.zeros_like(turnover),
        weights=Targets(dates=reb, assets=(), w=np.zeros((len(reb), 0))),
    )


class TestNeweyWest:
    def test_lag_zero_equals_classical_t(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0.001, 0.01, 300)
        t, lag = newey_west_tstat(x, lag=0)
        sigma_pop = math.sqrt(np.mean((x - x.mean()) ** 2))
        classical = x.mean() / (sigma_pop / math.sqrt(len(x)))
        assert lag == 0
        assert t == pytest.approx(classical, abs=1e-12)

    def test_hand_series_against_direct_formula(self):
        x = np.array([0.01, -0.01, 0.02, 0.00, 0.01, -0.02, 0.01, 0.02])
        t, _ = newey_west_tstat(x, lag=1)
        n = len(x)
        xc = x - x.mean()
        gamma0 = float(np.sum(xc * xc)) / n
        gamma1 = float(np.sum(xc[1:] * xc[:-1])) / n
        lrv = gamma0 + 2.0 * (1.0 - 1.0 / 2.0) * gamma1
        expected = x.mean() / math.sqrt(lrv / n)
        assert t == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0.0005, 0.01, 120)
        t1, _ = newey_west_tstat(x)
        t2, _ = newey_west_tstat(100.0 * x)
        assert t1 == pytest.approx(t2, abs=1e-10)

    def test_automatic_lag_rule(self):
        x = np.random.default_rng(12).normal(size=300)
        _, lag = newey_west_tstat(x)
        assert lag == math.floor(4 * (300 / 100) ** (2 / 9))

    def test_short_series_errors(self):
        with pytest.raises(StatsError):
            newey_west_tstat(np.ones(5) * 0.01 * np.arange(5))

    def test_zero_variance_errors(self):
        with pytest.raises(StatsError):
            newey_west_tstat(np.full(50, 0.01))


class TestDeflatedSharpe:
    def test_zero_sharpe_single_trial_is_half(self):
        x = np.tile([0.01, -0.01], 4)
        assert deflated_sharpe(x, n_trials=1) == 0.5

    def test_non_increasing_in_trials(self):
        rng = np.random.default_rng(13)
        x = rng.normal(0.0005, 0.01, 500)
        values = [deflated_sharpe(x, n) for n in (1, 2, 5, 20, 100, 1000)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bounded_probability(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.normal(rng.uniform(-0.001, 0.002), 0.01, 250)
            assert 0.0 <= deflated_sharpe(x, 10) <= 1.0

    def test_monotone_in_observed_sharpe(self):
        rng = np.random.default_rng(15)
        noise = rng.normal(0, 0.01, 400)
        values = [deflated_sharpe(noise + mu, 10) for mu in (0.0, 0.0002, 0.0005, 0.001)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_benchmark_shifts_single_trial(self):
        rng = np.random.default_rng(16)
        x = rng.normal(0.0008, 0.01, 300)
        assert deflated_sharpe(x, 1, benchmark_sr=0.0) > deflated_sharpe(x, 1, benchmark_sr=0.05)

    def test_expected_max_monotone(self):
        vals = [expected_max_sharpe(n, 252) for n in (1, 2, 5, 20, 100)]
        assert vals[0] == 0.0
        assert all(a < b for a, b in zip(vals, vals[1:]))


def expected_max_sharpe_oracle(n_trials, t_obs):
    """expected_max_sharpe written with scipy.stats.norm."""
    if n_trials == 1:
        return 0.0
    scale = 1.0 / math.sqrt(t_obs)
    hi = norm.ppf(1.0 - 1.0 / n_trials)
    lo = norm.ppf(1.0 - 1.0 / (n_trials * math.e))
    return float(scale * ((1.0 - 0.5772156649015329) * hi + 0.5772156649015329 * lo))


def deflated_sharpe_oracle(x, n_trials):
    """deflated_sharpe written with scipy.stats.norm."""
    xc = x - np.mean(x)
    m2 = float(np.mean(xc**2))
    sr = float(np.mean(x)) / math.sqrt(m2)
    g3 = float(np.mean(xc**3)) / m2**1.5
    g4 = float(np.mean(xc**4)) / m2**2
    sr_star = 0.0 if n_trials == 1 else expected_max_sharpe_oracle(n_trials, len(x))
    denom_sq = 1.0 - g3 * sr + (g4 - 1.0) / 4.0 * sr**2
    z = (sr - sr_star) * math.sqrt(len(x) - 1.0) / math.sqrt(denom_sq)
    return float(norm.cdf(z))


@pytest.mark.parametrize("n_trials", [1, 2, 5, 10, 100, 1000])
@pytest.mark.parametrize("t_obs", [8, 252, 2520])
def test_expected_max_sharpe_equals_norm_ppf_formula(n_trials, t_obs):
    assert expected_max_sharpe(n_trials, t_obs) == expected_max_sharpe_oracle(n_trials, t_obs)


def test_deflated_sharpe_equals_norm_cdf_formula():
    rng = np.random.default_rng(21)
    for _ in range(300):
        x = rng.standard_t(rng.uniform(3, 30), int(rng.integers(8, 600))) * 0.01 + rng.uniform(-0.002, 0.003)
        for n_trials in (1, 2, 5, 100):
            assert deflated_sharpe(x, n_trials) == deflated_sharpe_oracle(x, n_trials)


class TestTurnoverAdjustedAlpha:
    def test_hand_division(self):
        n = 252
        r_s = np.full(n, (1.07) ** (1 / 252) - 1)   # ~7%/yr
        r_b = np.full(n, (1.05) ** (1 / 252) - 1)   # ~5%/yr
        strat = result_from(r_s, turnover=[0.25, 0.25])
        bench = result_from(r_b)
        taa = turnover_adjusted_alpha(strat, bench)
        assert taa == pytest.approx(0.02 / 0.5, rel=1e-9)

    def test_strategy_equals_benchmark(self):
        r = np.random.default_rng(17).normal(0.0005, 0.01, 100)
        a = result_from(r, turnover=[0.3])
        b = result_from(r.copy())
        assert turnover_adjusted_alpha(a, b) == 0.0

    def test_zero_turnover_positive_excess_is_inf(self):
        r_s = np.full(50, 0.001)
        r_b = np.full(50, 0.0005)
        strat = result_from(r_s, turnover=[0.0])
        bench = result_from(r_b)
        assert turnover_adjusted_alpha(strat, bench) == math.inf

    def test_partly_overlapping_ranges(self):
        # the strategy covers days 0-79 and trades on days 0, 20, 40, 60;
        # the benchmark covers days 30-119, so only days 30-79 and the
        # trades on days 40 and 60 count
        rng = np.random.default_rng(23)
        strat = result_from(rng.normal(0.001, 0.01, 80), turnover=[0.5, 0.1, 0.2, 0.4], n_total=120,
                            traded=slice(0, 80, 20))
        bench = result_from(rng.normal(0.0005, 0.01, 90), start_idx=30, n_total=120)
        excess = annualized_return(strat.daily_returns[30:]) - annualized_return(bench.daily_returns[:50])
        assert turnover_adjusted_alpha(strat, bench) == excess / ((0.2 + 0.4) * 252 / 50)
        assert turnover_adjusted_alpha(bench, strat) == math.copysign(math.inf, -excess)  # no turnover

    def test_disjoint_ranges_error(self):
        a = result_from(np.full(20, 0.001), n_total=100)
        b = result_from(np.full(20, 0.001), start_idx=50, n_total=100)
        with pytest.raises(StatsError, match="disjoint"):
            turnover_adjusted_alpha(a, b)

    @pytest.mark.parametrize("strat_span, bench_span", [
        ((0, 80), (30, 120)),  # the benchmark starts later and ends later
        ((30, 120), (0, 80)),
        ((0, 120), (40, 60)),  # one range inside the other
        ((40, 60), (0, 120)),
        ((0, 50), (49, 90)),  # one common day
        ((0, 80), (30, 61)),  # the last common day is a trade
        ((10, 90), (10, 90)),  # the same range
    ])
    def test_overlaps_equal_the_intersect1d_form(self, strat_span, bench_span):
        """Partly overlapping results give the bits of the np.intersect1d
        form this replaced, the turnover counted on the trades in the
        common range."""
        rng = np.random.default_rng(29)
        (a0, a1), (b0, b1) = strat_span, bench_span
        strat = result_from(rng.normal(0.001, 0.01, a1 - a0), turnover=rng.uniform(0.1, 0.5, 4), start_idx=a0,
                            n_total=120, traded=slice(None, None, -(-(a1 - a0) // 4)))
        bench = result_from(rng.normal(0.0005, 0.01, b1 - b0), start_idx=b0, n_total=120)
        for result, benchmark in ((strat, bench), (bench, strat)):
            got, want = turnover_adjusted_alpha(result, benchmark), turnover_adjusted_alpha_oracle(result, benchmark)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_other_trading_days_in_the_common_range_error(self):
        a = result_from(np.full(40, 0.001), n_total=100)
        b = result_from(np.full(39, 0.0005), start_idx=10, n_total=100)
        b.dates = a.dates[10:20] + a.dates[21:] + [result_from(np.zeros(1), start_idx=40, n_total=100).dates[0]]
        with pytest.raises(StatsError, match="different trading days"):
            turnover_adjusted_alpha(a, b)


def turnover_adjusted_alpha_oracle(result, benchmark) -> float:
    """turnover_adjusted_alpha over the np.intersect1d of the two date lists."""
    common, at_r, at_b = np.intersect1d(result.dates, benchmark.dates, assume_unique=True, return_indices=True)
    excess = annualized_return(result.daily_returns[at_r]) - annualized_return(benchmark.daily_returns[at_b])
    first, last = str(common[0]), str(common[-1])
    in_window = [i for i, d in enumerate(result.rebalance_dates) if first <= d <= last]
    ann_turnover = float(result.turnover[in_window].sum()) * 252 / len(common)
    if ann_turnover == 0:
        return 0.0 if excess == 0 else math.copysign(math.inf, excess)
    return excess / ann_turnover


def test_summarize_annualizes_turnover_over_the_days_covered():
    r = np.random.default_rng(19).normal(0.0005, 0.01, 126)
    report = summarize(result_from(r, turnover=[1.0, 0.25, 0.5]))
    assert report.ann_turnover_oneway == 1.75 * 252 / 126 == 3.5
    assert dict(report.rows())["ann_turnover_oneway"] == 3.5


def test_summarize_blanks_what_is_undefined():
    # five days: too few for the t-statistic and the deflated Sharpe ratio
    r = np.array([0.01, -0.02, 0.005, 0.0, 0.01])
    report = summarize(result_from(r, turnover=[1.0]), n_trials=3)
    assert math.isnan(report.nw_tstat) and math.isnan(report.deflated_sharpe)
    assert report.undefined == {"nw_tstat": "need at least 8 observations, got 5",
                                "deflated_sharpe": "need at least 8 observations, got 5",
                                "effective_n_mean": "no rebalance date holds any weight",
                                "top5_concentration_mean": "no rebalance date holds any weight"}
    assert report.sharpe == sharpe_ratio(r) and report.nw_lag == 2  # floor(4 * 0.05^(2/9))
    assert math.isnan(report.turnover_adjusted_alpha_oneway)  # no benchmark given, so nothing to explain


class TestMaxDrawdown:
    def test_monotone_increasing(self):
        assert max_drawdown([1.0, 1.1, 1.2, 1.3]) == 0.0

    def test_hand_case(self):
        assert max_drawdown([1.0, 1.2, 0.9, 1.1]) == pytest.approx(0.9 / 1.2 - 1)
        assert max_drawdown([1.0, 1.2, 0.9, 1.1]) == pytest.approx(-0.25)

    def test_second_trough_dominates(self):
        assert max_drawdown([1.0, 0.5, 1.0, 0.4]) == pytest.approx(-0.6)


class TestConcentration:
    """The concentration kernels on blocks of weight rows."""

    def test_effective_n_pairs(self):
        e = _effective_ns(np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.5, 0.25, 0.25]]))
        assert e[:2].tolist() == [2.0, 1.0]
        assert e[2] == pytest.approx(1 / 0.375)

    def test_effective_n_exact_for_uniform(self):
        for n in (1, 2, 4, 8, 16, 32, 64):
            assert _effective_ns(np.full((1, n), 1.0 / n))[0] == n

    def test_effective_n_range(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            w = rng.dirichlet(np.ones(int(rng.integers(2, 12))))
            e = _effective_ns(w[None])[0]
            assert 1.0 - 1e-12 <= e <= len(w) + 1e-9

    def test_top_k(self):
        assert _top_k_sums(np.full((1, 10), 0.1), 5)[0] == pytest.approx(0.5)
        assert _top_k_sums(np.array([[0.6, 0.3, 0.1]]), 5)[0] == pytest.approx(1.0)
        assert _top_k_sums(np.array([[0.4, 0.3, 0.2, 0.05, 0.03, 0.02]]), 5)[0] == pytest.approx(0.98)


def effective_n_oracle(w) -> float:
    return 1.0 / float(np.sum(w * w))


def top_k_oracle(w, k) -> float:
    return float(np.sort(w)[::-1][:k].sum())


weight_rows = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.one_of(st.just([0.0] * n), st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=n, max_size=n)),
    min_size=1, max_size=30))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(rows=weight_rows)
def test_summarize_concentration_equals_the_mean_over_held_vectors(rows):
    # each held row (sum > 0) scaled to sum to 1, as a book's targets are
    rows = [np.asarray(r) / sum(r) if sum(r) > 0 else np.asarray(r) for r in rows]
    result = result_from(np.zeros(len(rows)), turnover=np.zeros(len(rows)))
    result.weights = Targets(dates=result.dates, assets=tuple(f"A{i}" for i in range(len(rows[0]))), w=rows)
    report = summarize(result)
    held = [r for r in rows if r.sum() > 0]
    if not held:
        assert math.isnan(report.effective_n_mean) and math.isnan(report.top5_concentration_mean)
        return
    assert report.effective_n_mean == float(np.mean([effective_n_oracle(r) for r in held]))
    assert report.top5_concentration_mean == float(np.mean([top_k_oracle(r, 5) for r in held]))
    block = np.array(held)
    for r, e, top in zip(held, _effective_ns(block), _top_k_sums(block, 3)):
        assert e == effective_n_oracle(r) and top == top_k_oracle(r, 3)


def matrix(t, z):
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    return FactorMatrix(t=t, positions=np.arange(n), panel_assets=[f"A{i}" for i in range(n)], raw=z.copy(), z=z)


class TestFactorRedundancy:
    def test_duplicated_factor_has_unit_correlation(self):
        rng = np.random.default_rng(18)
        mats = []
        for i in range(4):
            col = rng.normal(size=12)
            z = np.column_stack([col, col, rng.normal(size=12)])
            mats.append(matrix(f"2020-0{i + 1}-01", z))
        factors, corr = factor_correlations(mats)
        i, j = factors.index("MOM"), factors.index("VAL")
        assert corr[i, j] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diag(corr) == 1.0)

    def test_independent_columns_have_small_average(self):
        rng = np.random.default_rng(19)
        mats = [matrix(f"2020-{m:02d}-01", rng.normal(size=(100, 3))) for m in range(1, 13)]
        _, corr = factor_correlations(mats)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.1)

    def test_constant_columns_give_nan(self):
        mats = [
            matrix("2020-01-01", np.column_stack([np.zeros(6), np.arange(6.0), np.arange(6.0) ** 2])),
            matrix("2020-07-01", np.column_stack([np.zeros(6), np.ones(6), np.arange(6.0)])),
        ]
        factors, corr = factor_correlations(mats)
        i, j = factors.index("MOM"), factors.index("VAL")
        assert math.isnan(corr[i, j])

    def test_a_column_of_one_value_is_not_computed(self):
        """0.1 repeated has an inexact mean, so z.std(axis=0) calls the
        column varying; its pairs are NaN without a RuntimeWarning, and the
        other pair is still the average of np.corrcoef over the dates."""
        x = np.arange(8.0)
        other = [x**2, np.random.default_rng(24).normal(size=8)]
        mats = [matrix(f"2020-0{k + 1}-01", np.column_stack([x, np.full(8, 0.1), y])) for k, y in enumerate(other)]
        assert mats[0].z.std(axis=0)[1] > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors, corr = factor_correlations(mats)
        mom, val, qual = (factors.index(f) for f in ("MOM", "VAL", "QUAL"))
        assert math.isnan(corr[mom, val]) and math.isnan(corr[val, qual]) and math.isnan(corr[qual, val])
        want = (0.0 + float(np.corrcoef(x, other[0])[0, 1]) + float(np.corrcoef(x, other[1])[0, 1])) / 2
        assert corr[mom, qual] == corr[qual, mom] == want

    def test_average_of_corrcoef_bit_for_bit(self):
        """Each date's correlations are np.corrcoef's bits, ties, a column
        constant on some dates and a column of one value mean included; a
        pair with a constant column (all its values equal) on a date is not
        averaged there."""
        rng = np.random.default_rng(21)
        mats, sums, counts = [], np.zeros((3, 3)), np.zeros((3, 3))
        for k in range(12):
            n = int(rng.integers(3, 80))
            z = rng.normal(size=(n, 3))
            z[:, 1] = np.round(z[:, 1])  # ties
            if k % 4 == 0:
                z[:, 2] = 0.1  # constant, its mean not exactly 0.1
            mats.append(matrix(f"2020-{k + 1:02d}-01", z))
            varied = ~(z == z[0]).all(axis=0)
            for i in range(3):
                for j in range(i + 1, 3):
                    if varied[i] and varied[j]:  # the oracle: one np.corrcoef per date and pair
                        sums[i, j] += float(np.corrcoef(z[:, i], z[:, j])[0, 1])
                        counts[i, j] += 1
        _, corr = factor_correlations(mats)
        for i in range(3):
            for j in range(i + 1, 3):
                assert counts[i, j] and corr[i, j] == corr[j, i] == sums[i, j] / counts[i, j]

    def test_marginal_sharpe_from_results(self):
        rng = np.random.default_rng(20)
        mats = [matrix(f"2020-0{i + 1}-01", rng.normal(size=(8, 3))) for i in range(3)]
        full = result_from(rng.normal(0.001, 0.01, 200))
        drops = {f"drop_{f}": result_from(rng.normal(0.0005, 0.01, 200)) for f in ("MOM", "VAL", "QUAL")}
        factors, _, marginal = factor_redundancy(mats, {"full": full, **drops})
        for f in factors:
            expected = sharpe_ratio(full.daily_returns) - sharpe_ratio(drops[f"drop_{f}"].daily_returns)
            assert marginal[f] == pytest.approx(expected, abs=1e-12)


def test_annualization_consistency():
    rng = np.random.default_rng(21)
    r = rng.normal(0.0004, 0.012, 756)
    vol = annualized_vol(r)
    ret = annualized_return(r)
    sigma_pop = math.sqrt(np.mean((r - r.mean()) ** 2))
    assert vol == pytest.approx(sigma_pop * math.sqrt(252), abs=1e-12)
    assert ret == pytest.approx(float(np.prod(1 + r)) ** (252 / len(r)) - 1, abs=1e-12)
    assert sharpe_ratio(r) == pytest.approx(r.mean() / sigma_pop * math.sqrt(252), abs=1e-12)
