import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import rankdata

from factortilt.calibration import (
    CalibrationParams,
    ICSeries,
    average_ranks_rows,
    build_ic_series,
    forward_returns,
    ir_to_alpha,
    spearman,
)
from factortilt.eligibility import EligibilityParams, compute_eligibility
from factortilt.factors import FACTORS, FactorParams, build_factor_matrix
from factortilt.market_data import RebalanceSchedule, build_schedule
from factortilt.stats import factor_correlations
from factortilt.synthetic import ScenarioSpec, generate

from conftest import make_panel


def pearson(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    xc, yc = x - x.mean(), y - y.mean()
    return float((xc * yc).sum() / math.sqrt((xc * xc).sum() * (yc * yc).sum()))


def ranks_oracle(values):
    """Average ranks, brute force over the sorted order."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


class TestForwardReturn:
    def test_ten_percent(self):
        panel = make_panel(6, ["A"], price={"A": [100, 101, 102, 103, 104, 110]})
        assert forward_returns(panel, panel.calendar.days[0], 5)[0] == pytest.approx(0.10)

    def test_beyond_calendar_is_missing(self):
        panel = make_panel(5, ["A"], price=100.0)
        assert math.isnan(forward_returns(panel, panel.calendar.days[3], 5)[0])

    def test_flat_prices(self):
        panel = make_panel(5, ["A"], price=100.0)
        assert forward_returns(panel, panel.calendar.days[0], 4)[0] == 0.0


class TestSpearman:
    def test_monotone_increasing(self):
        assert spearman([1, 2, 3, 5], [10, 20, 21, 40]) == 1.0

    def test_monotone_decreasing(self):
        assert spearman([1, 2, 3, 5], [9, 7, 3, 1]) == -1.0

    def test_hand_case_with_oracle(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 3.0, 2.0, 4.0]
        assert spearman(x, y) == pytest.approx(0.8)
        assert spearman(x, y) == pytest.approx(pearson(ranks_oracle(x), ranks_oracle(y)))

    def test_missing_pairs_dropped(self):
        x = [1.0, 2.0, math.nan, 3.0, 4.0]
        y = [1.0, 3.0, 5.0, 2.0, 4.0]
        assert spearman(x, y) == pytest.approx(0.8)

    def test_too_few_pairs_is_nan(self):
        assert math.isnan(spearman([1.0, 2.0], [2.0, 1.0]))
        assert math.isnan(spearman([1, 2, 3, 4], [1, 2, 3, 4], min_pairs=5))

    def test_tied_everything_is_nan(self):
        assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_ties_use_average_ranks(self):
        x = [1.0, 2.0, 2.0, 3.0]
        y = [4.0, 5.0, 6.0, 7.0]
        assert spearman(x, y) == pytest.approx(pearson(ranks_oracle(x), ranks_oracle(y)))


# a small pool makes ties common; -0.0 ties with 0.0 and each infinity with itself
RANK_POOL = [0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, math.inf, -math.inf]


def rank_stack(k: int, n: int, seed: int, kind: str) -> np.ndarray:
    """A (k, n) stack of rows: tie-heavy (drawn from RANK_POOL), floats
    of any magnitude, or each entry either."""
    rng = np.random.default_rng(seed)
    ties = rng.choice(RANK_POOL, size=(k, n))
    floats = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-300, 300, size=(k, n))
    return {"ties": ties, "floats": floats, "mixed": np.where(rng.random((k, n)) < 0.5, ties, floats)}[kind]


# short rows entry by entry, and stacks of rows up to 3,000 long: a SIMD
# sort sorts a short row in registers and partitions a long one
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(st.sampled_from(RANK_POOL), st.floats(allow_nan=False)), min_size=1, max_size=200)
    .map(lambda values: np.array(values)[None]),
    st.builds(rank_stack, k=st.integers(1, 4), n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1),
              kind=st.sampled_from(("ties", "floats", "mixed")))))
@example(np.array([[0.0, -0.0, math.inf, -math.inf, math.inf, -0.0, 1.0]]))
@example(np.array([[7.0]]))
@example(rank_stack(k=1, n=3000, seed=0, kind="ties"))
@example(rank_stack(k=4, n=256, seed=1, kind="ties"))
@example(rank_stack(k=3, n=257, seed=2, kind="mixed"))
def test_average_ranks_equal_rankdata(x):
    """Ranks are >= 1, so np.array_equal with the oracle compares bits:
    each row of a (k, n) stack ranks as rankdata ranks it alone."""
    expected = rankdata(x, method="average", axis=1)  # the oracle
    ranks = average_ranks_rows(x)
    assert ranks.dtype == expected.dtype and np.array_equal(ranks, expected)


def monotone_scenario():
    """Deterministic drifts: forward returns strictly monotone in momentum."""
    return generate(
        ScenarioSpec(seed=1, n_assets=12, n_days=420, vol=0.0, dispersion=0.8, ic_target=1.0)
    )


def matrices_for(panel, schedule, universes, params=None):
    params = params or FactorParams(l_mom=60, skip=5, winsor_p=0.0)
    return {
        t: build_factor_matrix(panel, u, t, params)
        for t, u in universes.items()
        if u.members
    }


class TestBuildICSeries:
    def setup_run(self, panel, h=40):
        cal = panel.calendar
        schedule = build_schedule(cal, cal.days[70], cal.days[-1], anchors=((1, 1), (4, 1), (7, 1), (10, 1)))
        universes = {
            t: compute_eligibility(panel, t, EligibilityParams(h_min=65, adv_min=0.0, l_adv=10))
            for t in schedule.dates
        }
        matrices = matrices_for(panel, schedule, universes)
        return schedule, matrices, CalibrationParams(horizon=h, m_min=2, min_universe=5)

    def test_monotone_link_gives_unit_ic(self):
        panel = monotone_scenario()
        schedule, matrices, params = self.setup_run(panel)
        series = build_ic_series(panel, schedule, matrices, params)
        assert len(series["MOM"]) >= 3
        assert np.all(series["MOM"].values == 1.0)

    def test_final_dates_without_horizon_are_absent(self):
        panel = monotone_scenario()
        schedule, matrices, params = self.setup_run(panel, h=40)
        series = build_ic_series(panel, schedule, matrices, params)
        last_valid = panel.calendar.days[-41]
        assert all(d <= last_valid for d in series["MOM"].dates)
        skipped = [t for t in schedule.dates if t > last_valid]
        assert skipped, "fixture should have at least one too-late rebalance"

    def test_permutation_null_has_small_mean_ic(self):
        # Noise-dominated cross-section: momentum carries no forward information.
        panel = generate(
            ScenarioSpec(seed=21, n_assets=50, n_days=1100, vol=0.02, dispersion=0.3, ic_target=0.0)
        )
        cal = panel.calendar
        anchors = tuple((m, 1) for m in range(1, 13))
        schedule = build_schedule(cal, cal.days[280], cal.days[-1], anchors=anchors)
        universes = {
            t: compute_eligibility(panel, t, EligibilityParams(h_min=250, adv_min=0.0, l_adv=10))
            for t in schedule.dates
        }
        matrices = matrices_for(panel, schedule, universes, FactorParams(l_mom=252, skip=21))
        series = build_ic_series(panel, schedule, matrices, CalibrationParams(horizon=21, m_min=2))
        assert len(series["MOM"]) >= 30
        assert abs(float(series["MOM"].values.mean())) < 0.1


    def test_each_ic_is_spearman_of_its_column(self):
        """The series ranks each date's forward returns once for all factors:
        every IC is still spearman(z column, forward returns) bit for bit,
        with gaps in the prices and ties in the z-scores."""
        panel = generate(ScenarioSpec(seed=4, n_assets=30, n_days=700, missing_rate=0.2))
        cal = panel.calendar
        schedule = build_schedule(cal, cal.days[300], cal.days[-1], anchors=tuple((m, 1) for m in range(1, 13)))
        universes = {t: compute_eligibility(panel, t, EligibilityParams(h_min=120, adv_min=0.0, l_adv=10))
                     for t in schedule.dates}
        matrices = matrices_for(panel, schedule, universes, FactorParams(l_mom=120, skip=5))
        params = CalibrationParams(horizon=21, m_min=2, min_universe=8)
        expected = {f: ([], []) for f in FACTORS}
        for t, m in matrices.items():
            fwd = forward_returns(panel, t, params.horizon)[panel.positions(m.assets)]
            for f in FACTORS:
                ic = spearman(m.z[:, FACTORS.index(f)], fwd, min_pairs=params.min_universe)
                if not math.isnan(ic):
                    expected[f][0].append(t)
                    expected[f][1].append(ic)
        series = build_ic_series(panel, schedule, matrices, params)
        assert any(len(dates) < len(matrices) for dates, _ in expected.values())  # some dates are skipped
        for f, (dates, values) in expected.items():
            assert series[f].dates == tuple(dates)
            assert series[f].values.tobytes() == np.array(values).tobytes()


    def test_a_cut_schedule_gives_a_prefix_of_the_series(self):
        """The series over the schedule cut at any date is a bitwise prefix
        of the whole series, for every factor: a date's IC reads no other
        date, however the stacked kernel groups and chunks the dates. A
        walk-forward alpha reads one such prefix per date."""
        panel = generate(ScenarioSpec(seed=4, n_assets=30, n_days=700, missing_rate=0.2))
        cal = panel.calendar
        schedule = build_schedule(cal, cal.days[300], cal.days[-1], anchors=tuple((m, 1) for m in range(1, 13)))
        universes = {t: compute_eligibility(panel, t, EligibilityParams(h_min=120, adv_min=0.0, l_adv=10))
                     for t in schedule.dates}
        matrices = matrices_for(panel, schedule, universes, FactorParams(l_mom=120, skip=5))
        params = CalibrationParams(horizon=21, m_min=2, min_universe=8)
        whole = build_ic_series(panel, schedule, matrices, params)
        assert all(len(s) > 5 for s in whole.values())
        for cut in (1, 2, 5, len(schedule) // 2, len(schedule) - 1):
            part = build_ic_series(panel, RebalanceSchedule(schedule.dates[:cut]), matrices, params)
            for f in FACTORS:
                n = sum(t <= schedule.dates[cut - 1] for t in whole[f].dates)
                assert part[f].dates == whole[f].dates[:n], (cut, f)
                assert part[f].values.tobytes() == whole[f].values[:n].tobytes(), (cut, f)


def test_diagnostics_never_call_corrcoef(monkeypatch):
    """spearman, the IC series and the factor correlations all correlate
    through the one Pearson kernel."""
    panel = generate(ScenarioSpec(seed=4, n_assets=30, n_days=700, missing_rate=0.2))
    cal = panel.calendar
    schedule = build_schedule(cal, cal.days[300], cal.days[-1], anchors=tuple((m, 1) for m in range(1, 13)))
    universes = {t: compute_eligibility(panel, t, EligibilityParams(h_min=120, adv_min=0.0, l_adv=10))
                 for t in schedule.dates}
    matrices = matrices_for(panel, schedule, universes, FactorParams(l_mom=120, skip=5))

    def refuse(*args, **kwargs):
        raise AssertionError("np.corrcoef called")

    monkeypatch.setattr(np, "corrcoef", refuse)
    assert spearman([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) == pytest.approx(0.8)
    series = build_ic_series(panel, schedule, matrices, CalibrationParams(horizon=21, m_min=2))
    assert all(len(s) for s in series.values())
    _, corr = factor_correlations(matrices.values())
    assert np.isfinite(corr).all()


class TestIrToAlpha:
    def series(self, values):
        dates = [f"2020-01-{i + 1:02d}" for i in range(len(values))]
        return ICSeries(dates=tuple(dates), values=np.asarray(values, float))

    def test_all_non_positive_falls_back_to_uniform(self):
        s = {
            "MOM": self.series([-0.2, -0.1, -0.3]),
            "VAL": self.series([0.0, 0.0, 0.0]),
            "QUAL": self.series([-0.5, 0.1, -0.5]),
        }
        alpha = ir_to_alpha(s, m_min=2)
        assert alpha == {"MOM": 1 / 3, "VAL": 1 / 3, "QUAL": 1 / 3}

    def test_hand_normalization(self):
        # IRs engineered to 0.5, 0.25, -0.1 up to scaling
        s = {
            "MOM": self.series([0.2, 0.1, 0.2, 0.1]),   # mean .15 / std .05 = 3
            "VAL": self.series([0.3, 0.0, 0.3, 0.0]),   # mean .15 / std .15 = 1.5... scaled below
            "QUAL": self.series([-0.2, 0.0, -0.2, 0.0]),
        }
        alpha = ir_to_alpha(s, m_min=2)
        irs = {}
        for f, ser in s.items():
            v = ser.values
            irs[f] = v.mean() / math.sqrt(np.mean((v - v.mean()) ** 2))
        clipped = {f: max(ir, 0.0) for f, ir in irs.items()}
        total = sum(clipped.values())
        for f in s:
            assert alpha[f] == pytest.approx(clipped[f] / total)
        assert alpha["QUAL"] == 0.0

    def test_singleton_positive(self):
        alpha = ir_to_alpha({"MOM": self.series([0.3, 0.1, 0.2])}, m_min=2)
        assert alpha == {"MOM": 1.0}

    def test_short_series_scores_zero(self):
        s = {
            "MOM": self.series([0.9]),
            "VAL": self.series([0.1, 0.2, 0.1, 0.2]),
        }
        alpha = ir_to_alpha(s, m_min=3)
        assert alpha["MOM"] == 0.0 and alpha["VAL"] == 1.0

    def test_convex_mixture_always(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = {
                f: self.series(rng.uniform(-0.5, 0.5, rng.integers(1, 12)))
                for f in ("MOM", "VAL", "QUAL")
            }
            alpha = ir_to_alpha(s, m_min=3)
            assert all(a >= 0 for a in alpha.values())
            assert sum(alpha.values()) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        s = {f: self.series(rng.uniform(-0.3, 0.6, 10)) for f in ("MOM", "VAL", "QUAL")}
        base = ir_to_alpha(s, m_min=3)
        scaled = {
            f: self.series(0.5 * ser.values) for f, ser in s.items()
        }
        again = ir_to_alpha(scaled, m_min=3)
        for f in s:
            assert again[f] == pytest.approx(base[f], abs=1e-12)
