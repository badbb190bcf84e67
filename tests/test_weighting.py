import numpy as np
import pytest

from factortilt.eligibility import EligibilitySet, ScreenValues
from factortilt.errors import ConfigError, InfeasibleCapsError
from factortilt.factors import FactorMatrix
from factortilt.weighting import (
    CapParams,
    TiltParams,
    WeightVector,
    bounded_multiplier,
    build_weights,
    cap_and_redistribute,
    composite_score,
    equal_weight_baseline,
    liquidity_caps,
    tilt_and_normalize,
)


def universe(members, assets=None, adv=None):
    assets = tuple(assets or members)
    screen = {a: ScreenValues(100, float(adv[a]) if adv else 1000.0) for a in assets}
    return EligibilitySet(t="2020-01-06", members=tuple(members), screen_values=screen, assets=assets)


def matrix_for(members, z):
    z = np.asarray(z, dtype=float)
    return FactorMatrix(t="2020-01-06", assets=tuple(members), raw=z.copy(), z=z)


def wv(weights, assets=None):
    weights = np.asarray(weights, dtype=float)
    assets = tuple(assets or [f"A{i}" for i in range(len(weights))])
    return WeightVector(t="2020-01-06", assets=assets, w=weights)


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
    def test_four_members(self):
        out = equal_weight_baseline(universe(["A", "B", "C", "D"]))
        np.testing.assert_array_equal(out.w, np.full(4, 0.25))

    def test_singleton(self):
        out = equal_weight_baseline(universe(["A"], assets=["A", "B"]))
        np.testing.assert_array_equal(out.w, [1.0, 0.0])

    def test_empty_universe(self):
        out = equal_weight_baseline(universe([], assets=["A", "B"]))
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
    def test_equal_multipliers_return_baseline_bitwise(self):
        base = equal_weight_baseline(universe(["A", "B", "C"]))
        out = tilt_and_normalize(base, {"A": 1.3, "B": 1.3, "C": 1.3})
        np.testing.assert_array_equal(out.w, base.w)

    def test_two_asset_hand_case(self):
        base = equal_weight_baseline(universe(["A", "B"]))
        out = tilt_and_normalize(base, {"A": 1.5, "B": 0.5})
        np.testing.assert_allclose(out.w, [0.75, 0.25], atol=1e-15)

    def test_bound_ratio_identity(self):
        members = [f"A{i}" for i in range(6)]
        base = equal_weight_baseline(universe(members))
        mults = {m: (1.5 if i < 3 else 0.5) for i, m in enumerate(members)}
        out = tilt_and_normalize(base, mults)
        assert out.w[0] / out.w[5] == pytest.approx(1.5 / 0.5, rel=1e-12)

    def test_order_preserved(self):
        rng = np.random.default_rng(0)
        members = [f"A{i}" for i in range(10)]
        base = equal_weight_baseline(universe(members))
        z = rng.normal(size=10)
        params = TiltParams(lam=0.4)
        mults = {m: bounded_multiplier(zi, params) for m, zi in zip(members, z)}
        out = tilt_and_normalize(base, mults)
        for i in range(10):
            for j in range(10):
                if z[i] > z[j]:
                    assert out.w[i] >= out.w[j]


class TestLiquidityCaps:
    def test_gamma_zero(self):
        adv = {"A": 10.0, "B": 99999.0}
        caps = liquidity_caps(universe(["A", "B"], adv=adv), adv, CapParams(c_max=0.3, kappa=0.2, gamma=0.0))
        assert caps == {"A": 0.2, "B": 0.2}

    def test_hand_formula(self):
        adv = {"A": 100.0, "B": 200.0, "C": 400.0}
        caps = liquidity_caps(
            universe(["A", "B", "C"], adv=adv), adv, CapParams(c_max=0.3, kappa=0.1, gamma=1.0)
        )
        assert caps["C"] == pytest.approx(0.2)  # ADV twice the median of 200

    def test_huge_kappa_saturates(self):
        adv = {"A": 100.0, "B": 300.0}
        caps = liquidity_caps(universe(["A", "B"], adv=adv), adv, CapParams(c_max=0.25, kappa=1e9, gamma=0.5))
        assert set(caps.values()) == {0.25}

    def test_even_median_is_midpoint(self):
        adv = {"A": 100.0, "B": 300.0}
        caps = liquidity_caps(universe(["A", "B"], adv=adv), adv, CapParams(c_max=1.0, kappa=1.0, gamma=1.0))
        assert caps["A"] == pytest.approx(0.5)  # 100/200


class TestCapAndRedistribute:
    def test_one_pass_hand_case(self):
        out = cap_and_redistribute(wv([0.6, 0.3, 0.1]), {"A0": 0.4, "A1": 1.0, "A2": 1.0}, CapParams())
        np.testing.assert_allclose(out.w, [0.4, 0.45, 0.15], atol=1e-12)

    def test_no_breach_is_fixed_point(self):
        start = wv([0.5, 0.3, 0.2])
        out = cap_and_redistribute(start, {"A0": 0.6, "A1": 0.6, "A2": 0.6}, CapParams())
        np.testing.assert_array_equal(out.w, start.w)

    def test_two_cap_hand_case(self):
        out = cap_and_redistribute(wv([0.5, 0.45, 0.05]), {"A0": 0.4, "A1": 0.4, "A2": 1.0}, CapParams())
        np.testing.assert_allclose(out.w, [0.4, 0.4, 0.2], atol=1e-12)

    def test_infeasible_caps_error(self):
        with pytest.raises(InfeasibleCapsError):
            cap_and_redistribute(wv([0.6, 0.4]), {"A0": 0.5, "A1": 0.3}, CapParams())

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            raw = rng.dirichlet(np.ones(n))
            caps = {f"A{i}": float(c) for i, c in enumerate(rng.uniform(0.3, 1.0, n))}
            if sum(caps.values()) < 1:
                continue
            once = cap_and_redistribute(wv(raw), caps, CapParams())
            twice = cap_and_redistribute(once, caps, CapParams())
            np.testing.assert_array_equal(once.w, twice.w)

    def test_never_capped_keep_relative_proportions(self):
        raw = wv([0.40, 0.30, 0.18, 0.12])
        caps = {"A0": 0.25, "A1": 0.25, "A2": 1.0, "A3": 1.0}
        out = cap_and_redistribute(raw, caps, CapParams())
        assert out.w[2] / out.w[3] == pytest.approx(0.18 / 0.12, rel=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        params = CapParams()
        for _ in range(300):
            n = int(rng.integers(2, 9))
            raw = rng.dirichlet(np.full(n, 0.7))
            caps_arr = rng.uniform(0.05, 1.0, n)
            caps = {f"A{i}": float(c) for i, c in enumerate(caps_arr)}
            feasible = caps_arr.sum() >= 1 - params.epsilon
            if feasible:
                mine = cap_and_redistribute(wv(raw), caps, params)
                ref = project_oracle(raw, caps_arr, params.epsilon)
                np.testing.assert_allclose(mine.w, ref, atol=1e-9)
                assert np.all(mine.w <= caps_arr + params.epsilon)
                assert mine.w.sum() == pytest.approx(1.0, abs=1e-9)
            else:
                with pytest.raises(InfeasibleCapsError):
                    cap_and_redistribute(wv(raw), caps, params)
                with pytest.raises(InfeasibleCapsError):
                    project_oracle(raw, caps_arr, params.epsilon)


class TestBuildWeights:
    def members(self, n):
        return [f"A{i}" for i in range(n)]

    def test_lambda_zero_degenerates_to_equal_weight(self):
        members = self.members(5)
        uni = universe(members)
        m = matrix_for(members, np.random.default_rng(3).normal(size=(5, 3)))
        out = build_weights(None, uni, m, TiltParams(lam=0.0), None, uni.t)
        np.testing.assert_array_equal(out.w, equal_weight_baseline(uni).w)

    def test_zero_dispersion_degenerates_to_equal_weight(self):
        members = self.members(4)
        uni = universe(members)
        m = matrix_for(members, np.zeros((4, 3)))
        out = build_weights(None, uni, m, TiltParams(lam=0.8), None, uni.t)
        np.testing.assert_array_equal(out.w, equal_weight_baseline(uni).w)

    def test_with_caps_matches_manual_composition(self):
        members = self.members(3)
        adv = {"A0": 400.0, "A1": 200.0, "A2": 100.0}
        uni = universe(members, adv=adv)
        z = np.array([[2.0, 2.0, 2.0], [0.0, 0.0, 0.0], [-2.0, -2.0, -2.0]])
        m = matrix_for(members, z)
        tilt = TiltParams(lam=0.5, m_min=0.2, m_max=2.0)
        cap_params = CapParams(c_max=0.45, kappa=0.4, gamma=1.0)
        out = build_weights(None, uni, m, tilt, cap_params, uni.t)
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
            members = self.members(n)
            uni = universe(members)
            m = matrix_for(members, rng.normal(scale=2.0, size=(n, 3)))
            m_min = float(rng.uniform(0.1, 1.0))
            m_max = float(rng.uniform(1.0, 3.0))
            tilt = TiltParams(lam=float(rng.uniform(0, 2)), m_min=m_min, m_max=m_max)
            out = build_weights(None, uni, m, tilt, None, uni.t)
            assert out.w.max() <= (m_max / m_min) / n + 1e-9
            assert abs(out.w.sum() - 1.0) <= 1e-9
            assert out.w.min() >= 0.0

    def test_continuity_at_lambda_zero(self):
        members = self.members(6)
        uni = universe(members)
        z = np.random.default_rng(5).normal(size=(6, 3))
        m = matrix_for(members, z)
        w0 = build_weights(None, uni, m, TiltParams(lam=0.0), None, uni.t)
        for lam in (1e-8, 1e-10):
            w_eps = build_weights(None, uni, m, TiltParams(lam=lam), None, uni.t)
            assert np.max(np.abs(w_eps.w - w0.w)) < 1e-6

    def test_factor_matrix_must_cover_the_members(self):
        uni = universe(self.members(3))
        for matrix in (None, matrix_for(self.members(2), np.zeros((2, 3)))):
            with pytest.raises(ConfigError, match="factor matrix over its members"):
                build_weights(None, uni, matrix, TiltParams(), None, uni.t)

    def test_empty_universe_all_zero(self):
        uni = universe([], assets=["A", "B"])
        out = build_weights(None, uni, None, TiltParams(), None, uni.t)
        np.testing.assert_array_equal(out.w, [0.0, 0.0])
