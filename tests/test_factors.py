import math

import numpy as np
import pytest

from factortilt.eligibility import EligibilityParams, compute_eligibility
from factortilt.errors import ConfigError
from factortilt.factors import FACTORS, FactorParams, build_factor_matrix, standardize, winsorize
from factortilt.market_data import AsOf, censor_panel

from conftest import fundamental, make_panel


def pop_std(x):
    x = np.asarray(x, dtype=float)
    return math.sqrt(np.mean((x - x.mean()) ** 2))


def quantile_oracle(values, q):
    """Linear-interpolation quantile, written out longhand."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


class TestMomentum:
    def test_price_doubles(self):
        panel = make_panel(4, ["A"], price={"A": [100, 150, 200, 999]})
        t = panel.calendar.days[3]
        assert AsOf(panel, t, l_mom=2, skip=1).momentum[0] == 1.0

    def test_flat_prices(self):
        panel = make_panel(6, ["A"], price=100.0)
        assert AsOf(panel, panel.calendar.days[5], l_mom=3, skip=1).momentum[0] == 0.0

    def test_missing_anchor(self):
        panel = make_panel(4, ["A"], price={"A": [None, 150, 200, 999]})
        t = panel.calendar.days[3]
        assert math.isnan(AsOf(panel, t, l_mom=2, skip=1).momentum[0])

    def test_insufficient_history(self):
        panel = make_panel(4, ["A"], price=100.0)
        assert math.isnan(AsOf(panel, panel.calendar.days[3], l_mom=10, skip=1).momentum[0])

    def test_uses_only_prices_up_to_t_minus_skip(self):
        panel = make_panel(10, ["A"], price={"A": [100.0 + i for i in range(10)]})
        t = panel.calendar.days[9]
        full = AsOf(panel, t, l_mom=5, skip=2).momentum[0]
        censored = AsOf(censor_panel(panel, panel.calendar.days[8]), t, l_mom=5, skip=2).momentum[0]
        assert full == censored

    def test_skip_zero_rejected(self):
        # skip = 0 would read the price at t itself
        with pytest.raises(ConfigError, match="skip must be >= 1"):
            FactorParams(skip=0)
        assert FactorParams(skip=1).skip == 1

    def test_skip_zero_rejected_wherever_momentum_is_read(self):
        # on this ramp skip = 0 gave 109/106 - 1 from the price at t, and NaN once t is censored
        panel = make_panel(10, ["A"], price={"A": [100.0 + i for i in range(10)]})
        t = panel.calendar.days[9]
        with pytest.raises(ConfigError) as params_error:
            FactorParams(skip=0)
        for read in (lambda: AsOf(panel, t, l_mom=3, skip=0),
                     lambda: AsOf(panel, t, l_adv=2, l_mom=3, skip=0, l_fund=400)):
            with pytest.raises(ConfigError) as exc:
                read()
            assert str(exc.value) == str(params_error.value)
        with pytest.raises(ConfigError, match="skip must be >= 1, got -1"):
            AsOf(panel, t, l_mom=3, skip=-1)
        assert AsOf(panel, t, l_mom=3, skip=1).momentum[0] == 108.0 / 105.0 - 1.0
        assert AsOf(panel, t, l_mom=3).momentum[0] == 108.0 / 105.0 - 1.0  # skip defaults to 1
        assert AsOf(panel, t, l_adv=2).momentum is None  # no momentum read, no skip needed


class TestValue:
    def test_book_to_market(self):
        fr = {"A": [fundamental("2020-01-06", book=50.0)]}
        panel = make_panel(5, ["A"], price=10.0, mktcap=200.0, fundamentals=fr)
        assert AsOf(panel, panel.calendar.days[3], l_fund=400).value[0] == 0.25

    def test_stale_record_is_missing(self):
        fr = {"A": [fundamental("2020-01-06", book=50.0)]}
        panel = make_panel(40, ["A"], price=10.0, mktcap=200.0, fundamentals=fr)
        assert math.isnan(AsOf(panel, panel.calendar.days[35], l_fund=20).value[0])

    def test_negative_book_is_missing(self):
        fr = {"A": [fundamental("2020-01-06", book=-5.0)]}
        panel = make_panel(5, ["A"], price=10.0, mktcap=200.0, fundamentals=fr)
        assert math.isnan(AsOf(panel, panel.calendar.days[3], l_fund=400).value[0])

    def test_report_on_t_is_not_used(self):
        t_day = "2020-01-09"
        fr = {"A": [fundamental(t_day, book=50.0)]}
        panel = make_panel(5, ["A"], price=10.0, mktcap=200.0, fundamentals=fr)
        assert math.isnan(AsOf(panel, t_day, l_fund=400).value[0])


def raw_quality(panel, universe, t):
    """The raw quality composite of each member: the QUAL column of its
    factor matrix, whose l_fund is 400 calendar days."""
    m = build_factor_matrix(panel, universe, t, FactorParams(l_fund=400))
    return dict(zip(m.assets, m.raw[:, FACTORS.index("QUAL")].tolist()))


def quality_panel(roes, margins, leverages):
    assets = [f"A{i}" for i in range(len(roes))]
    fr = {
        a: [fundamental("2020-01-06", book=50.0, roe=r, margin=m, leverage=l)]
        for a, r, m, l in zip(assets, roes, margins, leverages)
    }
    return make_panel(6, assets, price=10.0, mktcap=200.0, fundamentals=fr)


class TestQuality:
    def test_identical_fundamentals_neutral(self):
        panel = quality_panel([0.2, 0.2], [0.5, 0.5], [0.3, 0.3])
        uni = compute_eligibility(panel, panel.calendar.days[5], EligibilityParams(0, 0.0, 5))
        comp = raw_quality(panel, uni, panel.calendar.days[5])
        assert comp == {"A0": 0.0, "A1": 0.0}

    def test_single_spread_component(self):
        roes = [0.1, 0.2, 0.3]
        panel = quality_panel(roes, [0.5] * 3, [0.3] * 3)
        uni = compute_eligibility(panel, panel.calendar.days[5], EligibilityParams(0, 0.0, 5))
        comp = raw_quality(panel, uni, panel.calendar.days[5])
        expected = [(r - np.mean(roes)) / pop_std(roes) for r in roes]
        assert comp["A0"] == pytest.approx(expected[0])
        assert comp["A1"] == pytest.approx(0.0)
        assert comp["A2"] == pytest.approx(expected[2])
        assert comp["A2"] == pytest.approx(1.224744871391589)

    def test_missing_component_blocks_composite(self):
        panel = quality_panel([0.1, 0.2, 0.3], [0.5] * 3, [0.3, 0.3, math.nan])
        uni = compute_eligibility(panel, panel.calendar.days[5], EligibilityParams(0, 0.0, 5))
        comp = raw_quality(panel, uni, panel.calendar.days[5])
        assert math.isnan(comp["A2"])
        assert not math.isnan(comp["A0"])


class TestWinsorize:
    def test_p_zero_is_identity(self):
        x = np.array([5.0, -2.0, np.nan, 7.0])
        out = winsorize(x, 0.0)
        np.testing.assert_array_equal(out, x)

    def test_hundred_points_against_oracle(self):
        x = np.arange(1.0, 101.0)
        out = winsorize(x, 0.01)
        lo = quantile_oracle(x, 0.01)
        hi = quantile_oracle(x, 0.99)
        assert (lo, hi) == (1.99, 99.01)
        assert out.min() == lo and out.max() == hi
        inner = (x > lo) & (x < hi)
        np.testing.assert_array_equal(out[inner], x[inner])

    def test_constant_vector_unchanged(self):
        x = np.full(7, 3.0)
        np.testing.assert_array_equal(winsorize(x, 0.1), x)

    def test_preserves_weak_order(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=rng.integers(3, 40))
            out = winsorize(x, float(rng.uniform(0, 0.4)))
            order = np.argsort(x, kind="stable")
            assert np.all(np.diff(out[order]) >= -1e-15)


class TestStandardize:
    def test_three_points(self):
        z = standardize([1.0, 2.0, 3.0])
        expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / pop_std([1, 2, 3])
        np.testing.assert_allclose(z, expected, rtol=0, atol=1e-15)
        assert z[2] == pytest.approx(1.224744871391589)

    def test_zero_variance_neutral(self):
        np.testing.assert_array_equal(standardize([5.0, 5.0, 5.0]), np.zeros(3))

    def test_missing_maps_to_zero(self):
        z = standardize([1.0, np.nan, 3.0])
        np.testing.assert_array_equal(z, [-1.0, 0.0, 1.0])

    def test_moments_over_contributors(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=25)
        x[rng.random(25) < 0.3] = np.nan
        z = standardize(x)
        contrib = z[np.isfinite(x)]
        if len(contrib) >= 2 and pop_std(x[np.isfinite(x)]) > 0:
            assert abs(contrib.mean()) < 1e-9
            assert abs(pop_std(contrib) - 1.0) < 1e-9

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=30)
        for a, b in [(2.0, 5.0), (0.3, -1.0), (1e4, 0.0)]:
            np.testing.assert_allclose(standardize(a * x + b), standardize(x), atol=1e-9)


class TestFactorMatrix:
    def build(self, panel, t, **kw):
        uni = compute_eligibility(panel, t, EligibilityParams(0, 0.0, 5))
        return build_factor_matrix(panel, uni, t, FactorParams(**kw))

    def test_single_asset_all_neutral(self):
        fr = {"A": [fundamental("2020-01-06", book=50.0, roe=0.1, margin=0.4, leverage=0.3)]}
        panel = make_panel(10, ["A"], price=100.0, fundamentals=fr)
        m = self.build(panel, panel.calendar.days[9], l_mom=3, skip=1)
        np.testing.assert_array_equal(m.z, np.zeros((1, 3)))

    def test_z_ordering_matches_raw(self):
        price = {f"A{i}": [100.0 * (1 + 0.01 * i) ** d for d in range(12)] for i in range(5)}
        panel = make_panel(12, list(price), price=price)
        m = self.build(panel, panel.calendar.days[11], l_mom=5, skip=1, winsor_p=0.0)
        mom_raw = m.raw[:, FACTORS.index("MOM")]
        mom_z = m.z[:, FACTORS.index("MOM")]
        assert np.all(np.diff(mom_raw[np.argsort(mom_raw)]) >= 0)
        np.testing.assert_array_equal(np.argsort(mom_raw), np.argsort(mom_z))

    def test_all_missing_row_is_neutral(self):
        # B trades just long enough to pass the screens but has no signal inputs
        price = {"A": 100.0, "B": [None] * 6 + [100.0, 100.0, 100.0, 100.0]}
        panel = make_panel(10, list(price), price=price)
        m = self.build(panel, panel.calendar.days[9], l_mom=3, skip=1)
        row = list(m.assets).index("B")
        np.testing.assert_array_equal(m.z[row], np.zeros(3))
        assert np.all(np.isnan(m.raw[row]))

    def test_lookahead_truncation(self):
        rng = np.random.default_rng(9)
        price = {f"A{i}": [float(x) for x in 100 * np.cumprod(1 + rng.normal(0, 0.01, 30))] for i in range(4)}
        fr = {
            f"A{i}": [fundamental("2020-01-10", book=40.0 + i, roe=0.1 * i, margin=0.4, leverage=0.2)]
            for i in range(4)
        }
        panel = make_panel(30, list(price), price=price, mktcap=500.0, fundamentals=fr)
        t = panel.calendar.days[25]
        uni = compute_eligibility(panel, t, EligibilityParams(0, 0.0, 5))
        params = FactorParams(l_mom=10, skip=2)
        full = build_factor_matrix(panel, uni, t, params)
        cens = build_factor_matrix(censor_panel(panel, t), uni, t, params)
        np.testing.assert_array_equal(full.raw, cens.raw)
        np.testing.assert_array_equal(full.z, cens.z)
