import numpy as np
import pytest

from factortilt.backtest import BacktestConfig, target_weights
from factortilt.eligibility import EligibilityParams
from factortilt.errors import ConfigError, InfeasibleCapsError
from factortilt.factors import FactorMatrix
from factortilt.weighting import (
    CapParams,
    TiltParams,
    bounded_multiplier,
    cap_values,
    composite_score,
    normalize_tilt,
    project_onto_caps,
    tilted_weights,
)

from conftest import make_panel

T = "2020-01-06"


def matrix_for(members, z):
    z = np.asarray(z, dtype=float)
    return FactorMatrix(t=T, assets=tuple(members), raw=z.copy(), z=z)


def weights(members, z, tilt, caps=None, adv=None, assets=None):
    """tilted_weights over `assets` (the members by default) for the members
    with factor rows z and, when capped, ADV array adv."""
    assets = tuple(assets or members)
    positions = np.array([assets.index(a) for a in members], dtype=np.intp)
    return tilted_weights(T, assets, positions, matrix_for(members, z), adv, tilt, caps)


def empty_universe_weights(strategy):
    """The targets at a date where no asset of ("A", "B") passes the screens."""
    panel = make_panel(3, ["A", "B"], price=10.0)
    config = BacktestConfig(strategy=strategy, eligibility=EligibilityParams(h_min=1000))
    return target_weights(panel, panel.calendar.days[2], config)


def project_oracle(w, caps, eps=1e-12, max_iter=100000):
    """Naive pure-python cap-and-redistribute, kept independent of the
    vectorized implementation."""
    w = [float(x) for x in w]
    c = [min(float(x), 1.0) for x in caps]
    if sum(c) < 1.0 - eps:
        raise InfeasibleCapsError("caps sum below 1")
    for _ in range(max_iter):
        breaching = [i for i in range(len(w)) if w[i] > c[i]]
        if not breaching:
            break
        excess = sum(w[i] - c[i] for i in breaching)
        for i in breaching:
            w[i] = c[i]
        free = [i for i in range(len(w)) if i not in breaching]
        mass = sum(w[i] for i in free)
        for i in free:
            w[i] += excess * w[i] / mass
        if excess < eps:
            break
    return w


class TestEqualWeight:
    # lambda = 0 gives every member multiplier 1, so the weights are the baseline's
    def test_four_members(self):
        out = weights(["A", "B", "C", "D"], np.zeros((4, 3)), TiltParams(lam=0.0))
        np.testing.assert_array_equal(out.w, np.full(4, 0.25))

    def test_singleton(self):
        out = weights(["A"], np.zeros((1, 3)), TiltParams(lam=0.0), assets=["A", "B"])
        np.testing.assert_array_equal(out.w, [1.0, 0.0])

    def test_empty_universe(self):
        out = empty_universe_weights("ew_eligible")
        np.testing.assert_array_equal(out.w, [0.0, 0.0])


class TestCompositeScore:
    def test_degenerate_mixture_selects_column(self):
        m = matrix_for(["A", "B"], [[1.0, -5.0, 2.0], [0.5, 9.0, -3.0]])
        score = composite_score(m, TiltParams(alpha={"MOM": 1.0, "VAL": 0.0, "QUAL": 0.0}))
        np.testing.assert_array_equal(score, [1.0, 0.5])

    def test_hand_dot_product(self):
        m = matrix_for(["A"], [[1.0, -1.0, 0.0]])
        score = composite_score(m, TiltParams())
        assert score[0] == pytest.approx(0.0, abs=1e-15)

    def test_neutral_row(self):
        m = matrix_for(["A"], [[0.0, 0.0, 0.0]])
        assert composite_score(m, TiltParams())[0] == 0.0

    def test_factor_mismatch_errors(self):
        m = matrix_for(["A"], [[0.0, 0.0, 0.0]])
        with pytest.raises(ConfigError, match="mixture factors"):
            composite_score(m, TiltParams(alpha={"MOM": 0.5, "VAL": 0.5}))


class TestBoundedMultiplier:
    def test_lambda_zero_is_identity(self):
        params = TiltParams(lam=0.0)
        for z in (-10.0, 0.0, 3.7):
            assert bounded_multiplier(z, params) == 1.0

    def test_upper_clip(self):
        params = TiltParams(lam=0.5, m_min=0.5, m_max=1.5)
        assert bounded_multiplier(2.0, params) == 1.5

    def test_lower_clip(self):
        params = TiltParams(lam=0.2, m_min=0.5, m_max=1.5)
        assert bounded_multiplier(-10.0, params) == 0.5


class TestTiltAndNormalize:
    """normalize_tilt, the tilt stage."""

    def test_equal_multipliers_return_baseline_bitwise(self):
        base = np.full(3, 1.0 / 3)
        out = normalize_tilt(base, np.array([1.3, 1.3, 1.3]))
        np.testing.assert_array_equal(out, base)

    def test_two_asset_hand_case(self):
        out = normalize_tilt(np.full(2, 0.5), np.array([1.5, 0.5]))
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-15)

    def test_bound_ratio_identity(self):
        mults = np.array([1.5 if i < 3 else 0.5 for i in range(6)])
        out = normalize_tilt(np.full(6, 1.0 / 6), mults)
        assert out[0] / out[5] == pytest.approx(1.5 / 0.5, rel=1e-12)

    def test_order_preserved(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=10)
        params = TiltParams(lam=0.4)
        mults = np.array([bounded_multiplier(zi, params) for zi in z])
        out = normalize_tilt(np.full(10, 1.0 / 10), mults)
        for i in range(10):
            for j in range(10):
                if z[i] > z[j]:
                    assert out[i] >= out[j]


class TestLiquidityCaps:
    """cap_values, the liquidity caps."""

    def test_gamma_zero(self):
        caps = cap_values(np.array([10.0, 99999.0]), CapParams(c_max=0.3, kappa=0.2, gamma=0.0))
        assert caps.tolist() == [0.2, 0.2]

    def test_hand_formula(self):
        caps = cap_values(np.array([100.0, 200.0, 400.0]), CapParams(c_max=0.3, kappa=0.1, gamma=1.0))
        assert caps[2] == pytest.approx(0.2)  # ADV twice the median of 200

    def test_huge_kappa_saturates(self):
        caps = cap_values(np.array([100.0, 300.0]), CapParams(c_max=0.25, kappa=1e9, gamma=0.5))
        assert set(caps.tolist()) == {0.25}

    def test_even_median_is_midpoint(self):
        caps = cap_values(np.array([100.0, 300.0]), CapParams(c_max=1.0, kappa=1.0, gamma=1.0))
        assert caps[0] == pytest.approx(0.5)  # 100/200


class TestCapAndRedistribute:
    """project_onto_caps, the capped projection: the closed form gives what
    cap-and-redistribute converges to."""

    def test_one_pass_hand_case(self):
        out = project_onto_caps(np.array([0.6, 0.3, 0.1]), np.array([0.4, 1.0, 1.0]), CapParams())
        np.testing.assert_allclose(out, [0.4, 0.45, 0.15], atol=1e-12)

    def test_no_breach_is_fixed_point(self):
        start = np.array([0.5, 0.3, 0.2])
        out = project_onto_caps(start, np.array([0.6, 0.6, 0.6]), CapParams())
        np.testing.assert_array_equal(out, start)

    def test_two_cap_hand_case(self):
        out = project_onto_caps(np.array([0.5, 0.45, 0.05]), np.array([0.4, 0.4, 1.0]), CapParams())
        np.testing.assert_allclose(out, [0.4, 0.4, 0.2], atol=1e-12)

    def test_infeasible_caps_error(self):
        with pytest.raises(InfeasibleCapsError):
            project_onto_caps(np.array([0.6, 0.4]), np.array([0.5, 0.3]), CapParams())

    def test_room_is_measured_on_members_that_hold_weight(self):
        # the caps sum to 1.8, but the zero-weight member cannot take any of
        # the 0.2 the other two must shed
        with pytest.raises(InfeasibleCapsError, match="sum to 0.8 < 1"):
            project_onto_caps(np.array([0.6, 0.4, 0.0]), np.array([0.5, 0.3, 1.0]), CapParams())

    def test_zero_weight_member_stays_at_zero(self):
        out = project_onto_caps(np.array([0.6, 0.0, 0.4]), np.array([0.5, 1.0, 1.0]), CapParams())
        np.testing.assert_allclose(out, [0.5, 0.0, 0.5], atol=1e-15)
        assert out[1] == 0.0

    def test_every_member_capped(self):
        # caps summing to exactly 1, and to 1 less a shortfall below epsilon,
        # where no scale fits and every member gets its cap
        for w, caps in (([0.7, 0.2, 0.1], [0.5, 0.25, 0.25]), ([0.6, 0.4], [0.5, 0.5 - 1e-13])):
            out = project_onto_caps(np.array(w), np.array(caps), CapParams())
            np.testing.assert_array_equal(out, caps)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            raw = rng.dirichlet(np.ones(n))
            caps = rng.uniform(0.3, 1.0, n)
            if caps.sum() < 1:
                continue
            once = project_onto_caps(raw, caps, CapParams())
            twice = project_onto_caps(once, caps, CapParams())
            np.testing.assert_array_equal(once, twice)

    def test_never_capped_keep_relative_proportions(self):
        raw = np.array([0.40, 0.30, 0.18, 0.12])
        out = project_onto_caps(raw, np.array([0.25, 0.25, 1.0, 1.0]), CapParams())
        assert out[2] / out[3] == pytest.approx(0.18 / 0.12, rel=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        params = CapParams()
        for _ in range(300):
            n = int(rng.integers(2, 9))
            raw = rng.dirichlet(np.full(n, 0.7))
            caps_arr = rng.uniform(0.05, 1.0, n)
            feasible = caps_arr.sum() >= 1 - params.epsilon
            if feasible:
                mine = project_onto_caps(raw, caps_arr, params)
                ref = project_oracle(raw, caps_arr, params.epsilon)
                np.testing.assert_allclose(mine, ref, atol=1e-9)
                assert np.all(mine <= caps_arr + params.epsilon)
                assert mine.sum() == pytest.approx(1.0, abs=1e-9)
            else:
                with pytest.raises(InfeasibleCapsError):
                    project_onto_caps(raw, caps_arr, params)
                with pytest.raises(InfeasibleCapsError):
                    project_oracle(raw, caps_arr, params.epsilon)


class TestBuildWeights:
    """tilted_weights, every stage composed."""

    def members(self, n):
        return [f"A{i}" for i in range(n)]

    def test_lambda_zero_degenerates_to_equal_weight(self):
        members = self.members(5)
        out = weights(members, np.random.default_rng(3).normal(size=(5, 3)), TiltParams(lam=0.0))
        np.testing.assert_array_equal(out.w, np.full(5, 1.0 / 5))

    def test_zero_dispersion_degenerates_to_equal_weight(self):
        out = weights(self.members(4), np.zeros((4, 3)), TiltParams(lam=0.8))
        np.testing.assert_array_equal(out.w, np.full(4, 1.0 / 4))

    def test_with_caps_matches_manual_composition(self):
        members = self.members(3)
        z = np.array([[2.0, 2.0, 2.0], [0.0, 0.0, 0.0], [-2.0, -2.0, -2.0]])
        tilt = TiltParams(lam=0.5, m_min=0.2, m_max=2.0)
        cap_params = CapParams(c_max=0.45, kappa=0.4, gamma=1.0)
        out = weights(members, z, tilt, cap_params, adv=np.array([400.0, 200.0, 100.0]))
        mults = np.clip(1 + 0.5 * z[:, 0], 0.2, 2.0)
        raw = mults / mults.sum()
        caps = np.minimum(0.45, 0.4 * np.array([400, 200, 100]) / 200.0)
        ref = project_oracle(raw, caps)
        np.testing.assert_allclose(out.w, ref, atol=1e-9)
        assert np.all(out.w <= caps + cap_params.epsilon)

    def test_max_weight_closed_form_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            z = rng.normal(scale=2.0, size=(n, 3))
            m_min = float(rng.uniform(0.1, 1.0))
            m_max = float(rng.uniform(1.0, 3.0))
            tilt = TiltParams(lam=float(rng.uniform(0, 2)), m_min=m_min, m_max=m_max)
            out = weights(self.members(n), z, tilt)
            assert out.w.max() <= (m_max / m_min) / n + 1e-9
            assert abs(out.w.sum() - 1.0) <= 1e-9
            assert out.w.min() >= 0.0

    def test_continuity_at_lambda_zero(self):
        members = self.members(6)
        z = np.random.default_rng(5).normal(size=(6, 3))
        w0 = weights(members, z, TiltParams(lam=0.0))
        for lam in (1e-8, 1e-10):
            w_eps = weights(members, z, TiltParams(lam=lam))
            assert np.max(np.abs(w_eps.w - w0.w)) < 1e-6

    def test_factor_matrix_must_cover_the_members(self):
        assets = tuple(self.members(3))
        for matrix in (None, matrix_for(self.members(2), np.zeros((2, 3)))):
            with pytest.raises(ConfigError, match="factor matrix over its members"):
                tilted_weights(T, assets, np.arange(3), matrix, None, TiltParams(), None)

    def test_empty_universe_all_zero(self):
        out = empty_universe_weights("dmft")
        np.testing.assert_array_equal(out.w, [0.0, 0.0])
