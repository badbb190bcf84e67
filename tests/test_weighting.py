import numpy as np
import pytest

from factortilt.backtest import BacktestConfig, evolve, run_baselines
from factortilt.eligibility import EligibilityParams
from factortilt.errors import ConfigError, InfeasibleCapsError
from factortilt.factors import FACTORS, FactorMatrix
from factortilt.market_data import build_schedule
from factortilt.synthetic import ScenarioSpec, generate
from factortilt.weighting import (
    WEIGHT_SUM_TOL,
    CapParams,
    Targets,
    TiltParams,
    WeightVector,
    bounded_multiplier,
    composite_score,
    member_caps,
    _normalized_rows,
    project_onto_caps,
    tilted_block,
)

from conftest import make_panel, targets_at

T = "2020-01-06"


def matrix_for(members, z, assets=None):
    """The factor matrix with rows z of the members, positioned in `assets`
    (the members by default)."""
    assets = tuple(assets or members)
    z = np.asarray(z, dtype=float)
    positions = np.array([assets.index(a) for a in members], dtype=np.intp)
    return FactorMatrix(t=T, positions=positions, panel_assets=assets, raw=z.copy(), z=z)


def weights(members, z, tilt, caps=None, adv=None, assets=None):
    """tilted_block's weight row over `assets` (the members by default) for
    the members with factor rows z and, when capped, ADV array adv."""
    matrix = matrix_for(members, z, assets)
    return tilted_block([matrix], [tilt], None if caps is None else member_caps([adv], caps))[0][0]


def empty_universe_weights(strategy):
    """The targets at a date where no asset of ("A", "B") passes the screens."""
    panel = make_panel(3, ["A", "B"], price=10.0)
    config = BacktestConfig(eligibility=EligibilityParams(h_min=1000))
    return targets_at(panel, panel.calendar.days[2], config, strategy)


def project_oracle(w, caps, eps=1e-12, max_iter=100000):
    """Naive pure-python cap-and-redistribute, kept independent of the
    vectorized implementation; it stops once less than eps is moved."""
    w = [float(x) for x in w]
    c = [min(float(x), 1.0) for x in caps]
    if sum(c) < 1.0 - WEIGHT_SUM_TOL:
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
        np.testing.assert_array_equal(out, np.full(4, 0.25))

    def test_singleton(self):
        out = weights(["A"], np.zeros((1, 3)), TiltParams(lam=0.0), assets=["A", "B"])
        np.testing.assert_array_equal(out, [1.0, 0.0])

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
        """A mixture over factors other than FACTORS is refused when the tilt
        is built, so no score reads one."""
        for alpha in ({"MOM": 0.5, "VAL": 0.5}, {"MOM": 0.5, "VAL": 0.3, "SIZE": 0.2},
                      {**dict.fromkeys(FACTORS, 0.25), "SIZE": 0.25}):
            with pytest.raises(ConfigError, match="mixture factors .* do not match the factors"):
                TiltParams(alpha=alpha)


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


def normalized(w, m):
    """The tilt stage's normalization of one row: w * m / sum(w * m)."""
    return _normalized_rows(np.array(w, dtype=float, ndmin=2), np.asarray(m, dtype=float)[None])[0]


class TestTiltAndNormalize:
    """The tilt stage's normalization."""

    def test_equal_multipliers_return_baseline_bitwise(self):
        base = np.full(3, 1.0 / 3)
        out = normalized(base, np.array([1.3, 1.3, 1.3]))
        np.testing.assert_array_equal(out, base)

    def test_two_asset_hand_case(self):
        out = normalized(np.full(2, 0.5), np.array([1.5, 0.5]))
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-15)

    def test_bound_ratio_identity(self):
        mults = np.array([1.5 if i < 3 else 0.5 for i in range(6)])
        out = normalized(np.full(6, 1.0 / 6), mults)
        assert out[0] / out[5] == pytest.approx(1.5 / 0.5, rel=1e-12)

    def test_order_preserved(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=10)
        params = TiltParams(lam=0.4)
        mults = np.array([bounded_multiplier(zi, params) for zi in z])
        out = normalized(np.full(10, 1.0 / 10), mults)
        for i in range(10):
            for j in range(10):
                if z[i] > z[j]:
                    assert out[i] >= out[j]


class TestLiquidityCaps:
    """member_caps, the liquidity caps, of one pool."""

    def test_gamma_zero(self):
        (caps,) = member_caps([np.array([10.0, 99999.0])], CapParams(c_max=0.3, kappa=0.2, gamma=0.0))
        assert caps.tolist() == [0.2, 0.2]

    def test_hand_formula(self):
        (caps,) = member_caps([np.array([100.0, 200.0, 400.0])], CapParams(c_max=0.3, kappa=0.1, gamma=1.0))
        assert caps[2] == pytest.approx(0.2)  # ADV twice the median of 200

    def test_huge_kappa_saturates(self):
        (caps,) = member_caps([np.array([100.0, 300.0])], CapParams(c_max=0.25, kappa=1e9, gamma=0.5))
        assert set(caps.tolist()) == {0.25}

    def test_even_median_is_midpoint(self):
        (caps,) = member_caps([np.array([100.0, 300.0])], CapParams(c_max=1.0, kappa=1.0, gamma=1.0))
        assert caps[0] == pytest.approx(0.5)  # 100/200


class TestCapAndRedistribute:
    """project_onto_caps, the capped projection: the closed form gives what
    cap-and-redistribute converges to."""

    def test_one_pass_hand_case(self):
        out = project_onto_caps(np.array([0.6, 0.3, 0.1]), np.array([0.4, 1.0, 1.0]))
        np.testing.assert_allclose(out, [0.4, 0.45, 0.15], atol=1e-12)

    def test_no_breach_is_fixed_point(self):
        start = np.array([0.5, 0.3, 0.2])
        out = project_onto_caps(start, np.array([0.6, 0.6, 0.6]))
        np.testing.assert_array_equal(out, start)

    def test_two_cap_hand_case(self):
        out = project_onto_caps(np.array([0.5, 0.45, 0.05]), np.array([0.4, 0.4, 1.0]))
        np.testing.assert_allclose(out, [0.4, 0.4, 0.2], atol=1e-12)

    def test_infeasible_caps_error(self):
        with pytest.raises(InfeasibleCapsError):
            project_onto_caps(np.array([0.6, 0.4]), np.array([0.5, 0.3]))

    def test_room_is_measured_on_members_that_hold_weight(self):
        # the caps sum to 1.8, but the zero-weight member cannot take any of
        # the 0.2 the other two must shed
        with pytest.raises(InfeasibleCapsError, match="sum to 0.8 < 1"):
            project_onto_caps(np.array([0.6, 0.4, 0.0]), np.array([0.5, 0.3, 1.0]))

    def test_zero_weight_member_stays_at_zero(self):
        out = project_onto_caps(np.array([0.6, 0.0, 0.4]), np.array([0.5, 1.0, 1.0]))
        np.testing.assert_allclose(out, [0.5, 0.0, 0.5], atol=1e-15)
        assert out[1] == 0.0

    def test_every_member_capped(self):
        # caps summing to exactly 1, and to 1 less a shortfall within the
        # weight-sum tolerance, where no scale fits and every member gets its cap
        for w, caps in (([0.7, 0.2, 0.1], [0.5, 0.25, 0.25]), ([0.6, 0.4], [0.5, 0.5 - 1e-13])):
            out = project_onto_caps(np.array(w), np.array(caps))
            np.testing.assert_array_equal(out, caps)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            raw = rng.dirichlet(np.ones(n))
            caps = rng.uniform(0.3, 1.0, n)
            if caps.sum() < 1:
                continue
            once = project_onto_caps(raw, caps)
            twice = project_onto_caps(once, caps)
            np.testing.assert_array_equal(once, twice)

    def test_never_capped_keep_relative_proportions(self):
        raw = np.array([0.40, 0.30, 0.18, 0.12])
        out = project_onto_caps(raw, np.array([0.25, 0.25, 1.0, 1.0]))
        assert out[2] / out[3] == pytest.approx(0.18 / 0.12, rel=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            raw = rng.dirichlet(np.full(n, 0.7))
            caps_arr = rng.uniform(0.05, 1.0, n)
            feasible = caps_arr.sum() >= 1 - WEIGHT_SUM_TOL
            if feasible:
                mine = project_onto_caps(raw, caps_arr)
                ref = project_oracle(raw, caps_arr)
                np.testing.assert_allclose(mine, ref, atol=1e-9)
                assert np.all(mine <= caps_arr + 1e-12)
                assert mine.sum() == pytest.approx(1.0, abs=1e-9)
            else:
                with pytest.raises(InfeasibleCapsError):
                    project_onto_caps(raw, caps_arr)
                with pytest.raises(InfeasibleCapsError):
                    project_oracle(raw, caps_arr)


class TestBuildWeights:
    """tilted_block on one matrix and tilt, every stage composed."""

    def members(self, n):
        return [f"A{i}" for i in range(n)]

    def test_lambda_zero_degenerates_to_equal_weight(self):
        members = self.members(5)
        out = weights(members, np.random.default_rng(3).normal(size=(5, 3)), TiltParams(lam=0.0))
        np.testing.assert_array_equal(out, np.full(5, 1.0 / 5))

    def test_zero_dispersion_degenerates_to_equal_weight(self):
        out = weights(self.members(4), np.zeros((4, 3)), TiltParams(lam=0.8))
        np.testing.assert_array_equal(out, np.full(4, 1.0 / 4))

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
        np.testing.assert_allclose(out, ref, atol=1e-9)
        assert np.all(out <= caps + 1e-12)

    def test_caps_short_of_one_within_the_weight_sum_tolerance(self):
        # equal ADV gives every member the cap c_max; these sum to 1 - 5e-10
        c_max = (1.0 - 5e-10) / 3
        out = weights(self.members(3), np.zeros((3, 3)), TiltParams(), CapParams(c_max=c_max, kappa=1.0),
                      adv=np.ones(3))
        np.testing.assert_array_equal(out, np.full(3, c_max))

    def test_caps_short_of_one_beyond_the_tolerance_are_infeasible(self):
        # an InfeasibleCapsError, not a WeightVector whose weights sum to 0.99
        with pytest.raises(InfeasibleCapsError, match="sum to 0.99"):
            weights(self.members(3), np.zeros((3, 3)), TiltParams(), CapParams(c_max=0.33, kappa=1.0), adv=np.ones(3))

    def test_max_weight_closed_form_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            z = rng.normal(scale=2.0, size=(n, 3))
            m_min = float(rng.uniform(0.1, 1.0))
            m_max = float(rng.uniform(1.0, 3.0))
            tilt = TiltParams(lam=float(rng.uniform(0, 2)), m_min=m_min, m_max=m_max)
            out = weights(self.members(n), z, tilt)
            assert out.max() <= (m_max / m_min) / n + 1e-9
            assert abs(out.sum() - 1.0) <= 1e-9
            assert out.min() >= 0.0

    def test_continuity_at_lambda_zero(self):
        members = self.members(6)
        z = np.random.default_rng(5).normal(size=(6, 3))
        w0 = weights(members, z, TiltParams(lam=0.0))
        for lam in (1e-8, 1e-10):
            w_eps = weights(members, z, TiltParams(lam=lam))
            assert np.max(np.abs(w_eps - w0)) < 1e-6

    def test_empty_universe_all_zero(self):
        out = empty_universe_weights("dmft")
        np.testing.assert_array_equal(out.w, [0.0, 0.0])


def weight_vector_error(assets, w) -> str:
    with pytest.raises(ConfigError) as exc:
        WeightVector(t=T, assets=assets, w=w)
    return str(exc.value)


def test_weight_vectors_compare_by_identity_without_raising():
    # == on two numpy rows of two or more assets has no single truth value;
    # a WeightVector, like Targets, compares by identity and returns a bool
    a, b = (WeightVector(t=T, assets=("A", "B"), w=[0.5, 0.5]) for _ in range(2))
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True


def test_targets_raise_the_first_bad_rows_weight_vector_error_and_iterate_as_weight_vectors():
    assets, good = ("A", "B", "C"), [0.5, 0.25, 0.25]
    bad = {
        "non-finite": [0.5, np.inf, 0.25],
        "negative": [1.25, -0.25, 0.0],
        "sum off 1": [0.5, 0.5, 2 * WEIGHT_SUM_TOL],
        "all NaN": [np.nan] * 3,
    }
    dates = ("d0", "d1", "d2", "d3")
    for what, row in bad.items():
        for other in bad.values():  # a second bad row after the first keeps the first row's error
            block = [good, [0.0] * 3, row, other]
            with pytest.raises(ConfigError) as exc:
                Targets(dates, assets, block)
            assert str(exc.value) == weight_vector_error(assets, row), what
    # a 2-D block's rows share one length, so a wrong one is wrong in every row
    with pytest.raises(ConfigError) as exc:
        Targets(dates[:2], assets, [good + [0.0], good + [0.0]])
    assert str(exc.value) == weight_vector_error(assets, good + [0.0])
    with pytest.raises(ConfigError, match="2 weight rows for 3 rebalance dates"):
        Targets(dates[:3], assets, [good, good])

    # a walk's targets: read-only blocks whose rows iterate as checked
    # WeightVectors, bit for bit, and that drift evolution leaves as they were
    panel = generate(ScenarioSpec(seed=3, n_assets=12, n_days=400, liquidity_tiers=(1.0, 4.0)))
    days = panel.calendar.days
    config = BacktestConfig(eligibility=EligibilityParams(h_min=60, adv_min=0.0, l_adv=20),
                            caps=CapParams(c_max=0.3, kappa=0.5), weight_mode="drift")
    results = run_baselines(panel, build_schedule(panel.calendar, days[100], days[-1]), config)
    for name, res in results.items():
        targets = res.weights
        before = {attr: None if getattr(targets, attr) is None else getattr(targets, attr).tobytes()
                  for attr in ("w", "multipliers", "caps")}
        assert targets.dates == tuple(res.rebalance_dates) and targets.assets == tuple(panel.assets)
        assert (targets.multipliers is not None, targets.caps is not None) == (name in ("dmft", "fixed_universe"),
                                                                               name == "dmft")
        rows = list(targets)
        assert len(rows) == len(targets) == len(res.rebalance_dates) > 1, name
        for i, wv in enumerate(rows):
            assert isinstance(wv, WeightVector) and wv.t == targets.dates[i] and wv.assets == targets.assets
            assert wv.w.dtype == np.float64 and wv.w.shape == (panel.n_assets,)
            assert wv.w.tobytes() == targets.w[i].tobytes(), (name, wv.t)
        for attr in ("w", "multipliers", "caps"):
            block = getattr(targets, attr)
            assert block is None or not block.flags.writeable, (name, attr)
        evolve(panel, {name: (res.strategy, targets)}, config)
        for attr, bits in before.items():
            assert bits is None or getattr(targets, attr).tobytes() == bits, (name, attr)
