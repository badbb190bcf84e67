"""The per-date kernels against the implementations they replaced, kept here
(and in conftest) as oracles and compared bit for bit: the winsor kernel
with one np.quantile call, z-scores with np.mean, the factor matrices of
many dates against one date's build over those two, the Pearson kernel
with np.corrcoef, stacked average ranks with one argsort per row, the IC
series and factor correlations of every date in one stacked kernel against
one date and one pair at a time, the latest fundamental report with
one bisection per asset, the average dollar volume with a stable argsort
that left-packs each asset's valid days, and the weights of a walk block's
(matrix, tilt) rows against the one-vector tilt, normalization and
projection of each row. Also the synthetic generator
against its expression form, which held about ten grid-sized temporaries at
once and drew the gap mask whole. And the deflated Sharpe's standard normal
CDF and quantile against scipy.special's `ndtr` and `ndtri`, which run the
Cephes routines they port, on every branch of each.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial
from itertools import compress
from operator import attrgetter, getitem
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr, ndtri

from factortilt.backtest import pool_positions, snapshot
from factortilt import calibration
from factortilt.calibration import (
    CalibrationParams,
    average_ranks_rows,
    build_ic_series,
    centered_rows,
    forward_returns,
    pair_correlations,
    stacked_correlations,
)
from factortilt.errors import ConfigError, InfeasibleCapsError
from factortilt.factors import FACTORS, FactorMatrix, FactorParams, _winsorized_rows, _zscores, select_factor_matrices
from factortilt.market_data import (
    _REPORT_FIELDS,
    AsOf,
    MarketPanel,
    RebalanceSchedule,
    _average_dollar_volumes,
    _latest_reports,
)
from factortilt.stats import _ndtr, _ndtri, factor_correlations
from factortilt.weighting import (
    WEIGHT_SUM_TOL,
    CapParams,
    TiltParams,
    WeightVector,
    bounded_multiplier,
    composite_score,
    member_caps,
    _normalized_rows,
    project_onto_caps,
    tilted_block,
)
from factortilt.synthetic import (
    _BASE_DRIFT,
    _BASE_PRICE,
    _BASE_SHARES,
    _BASE_VOLUME,
    _DRIFT_SCALE,
    _FLIP_DAYS,
    _GAP_ROWS,
    _MARKET_BETA,
    _QUARTER_DAYS,
    ScenarioSpec,
    generate,
    trading_days,
)

from conftest import standardize_oracle, winsorize_oracle
from test_asof_properties import SETTINGS, config_for, panels, params, random_panel


def select_factor_matrix_oracle(snapshot, positions: np.ndarray, params: FactorParams) -> FactorMatrix:
    """One date's factor matrix, each column winsorized and standardized on
    its own."""
    raw = np.full((len(positions), len(FACTORS)), np.nan)
    raw[:, 0] = snapshot.momentum[positions]
    raw[:, 1] = snapshot.value[positions]
    roe, margin, neg_dta = snapshot.roe[positions], snapshot.gross_margin[positions], -snapshot.debt_to_assets[positions]
    have_all = np.isfinite(roe) & np.isfinite(margin) & np.isfinite(neg_dta)
    if params.winsorize_quality_components:
        roe, margin, neg_dta = (winsorize_oracle(x, params.winsor_p) for x in (roe, margin, neg_dta))
    composite = standardize_oracle(roe) + standardize_oracle(margin) + standardize_oracle(neg_dta)
    raw[:, 2] = np.where(have_all, composite, np.nan)
    z = np.empty_like(raw)
    for j in range(len(FACTORS)):
        z[:, j] = standardize_oracle(winsorize_oracle(raw[:, j], params.winsor_p))
    return FactorMatrix(t=snapshot.t, positions=positions, panel_assets=snapshot.panel.assets, raw=raw, z=z)


def latest_reports_oracle(panel: MarketPanel, t: str, l_fund: int) -> np.ndarray:
    out = np.full((len(_REPORT_FIELDS), panel.n_assets), np.nan)
    lists = panel.fundamentals.values()
    bisect_t = partial(bisect_left, x=t, key=attrgetter("report_date"))
    n_before = np.fromiter(map(bisect_t, lists), dtype=np.intp, count=len(lists))
    reported = n_before > 0
    latest = list(map(getitem, compress(lists, reported.tolist()), (n_before[reported] - 1).tolist()))
    age = np.datetime64(t, "D") - np.array([r.report_date for r in latest], dtype="datetime64[D]")
    fresh = age.astype(np.int64) <= l_fund
    owner = panel.positions(panel.fundamentals)[reported][fresh]
    for row, name in enumerate(_REPORT_FIELDS):
        out[row, owner] = np.fromiter(map(attrgetter(name), latest), dtype=float, count=len(latest))[fresh]
    return out


def average_dollar_volumes_oracle(panel: MarketPanel, it: int, lookback: int) -> np.ndarray:
    p = panel.price[max(0, it - lookback) : it].T
    v = panel.volume[max(0, it - lookback) : it].T
    valid = np.isfinite(p) & np.isfinite(v)
    counts = valid.sum(axis=1)
    packed = np.take_along_axis(p * v, np.argsort(~valid, axis=1, kind="stable"), axis=1)
    out = np.full(panel.n_assets, np.nan)
    for k in np.unique(counts[counts >= math.ceil(0.5 * lookback)]).tolist():
        rows = counts == k
        out[rows] = np.ascontiguousarray(packed[rows, :k]).sum(axis=1) / k
    return out


def normalize_tilt_oracle(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    support = w > 0
    if not support.any():
        return w.copy()
    m_support = m[support]
    if np.all(m_support == m_support[0]):
        return w.copy()
    raw = w * m
    denom = float(raw.sum())
    if denom <= 0:
        raise ConfigError("tilted weights sum to a non-positive value")
    return raw / denom


def project_onto_caps_oracle(w: np.ndarray, caps: np.ndarray) -> np.ndarray:
    w = np.array(w, dtype=float)
    c = np.minimum(caps, 1.0)
    if np.any(c < 0):
        raise ConfigError("caps must be non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"projection input must sum to 1, got {total!r}")
    held = np.flatnonzero(w > 0)
    room = float(c[held].sum())
    if room < 1.0 - WEIGHT_SUM_TOL:
        raise InfeasibleCapsError(
            f"caps of the members that hold weight sum to {room!r} < 1; no feasible capped allocation"
        )
    if not (w > c).any():
        return w
    order = held[(c[held] / w[held]).argsort(kind="stable")]
    wo, co = w[order], c[order]
    capped_mass = np.zeros(len(order))
    co[:-1].cumsum(out=capped_mass[1:])  # sum(c[:k])
    s = (1.0 - capped_mass) / wo[::-1].cumsum()[::-1]
    fits = s * wo <= co
    # none fits when the caps sum to 1 within WEIGHT_SUM_TOL: every member binds
    k = int(fits.argmax()) if fits.any() else len(order)
    w[order[:k]] = co[:k]
    if k < len(order):
        w[order[k:]] = s[k] * wo[k:]
    return w


def cap_values_oracle(adv: np.ndarray, params: CapParams) -> np.ndarray:
    if not np.all(np.isfinite(adv)):
        raise ConfigError("missing ADV for a universe member")
    med = float(np.median(adv))
    ratio = adv / med if med > 0 else np.ones_like(adv)
    caps = np.minimum(params.c_max, params.kappa * ratio**params.gamma)
    return np.minimum(caps, 1.0)


def tilted_weights_oracle(factor_matrix: FactorMatrix, tilt: TiltParams, caps: np.ndarray | None) -> WeightVector:
    positions = factor_matrix.positions
    n = len(factor_matrix.panel_assets)
    baseline = np.zeros(n)
    baseline[positions] = 1.0 / len(positions)
    multipliers = np.ones(n)
    multipliers[positions] = bounded_multiplier(composite_score(factor_matrix, tilt), tilt)
    w = normalize_tilt_oracle(baseline, multipliers)
    cap_row = None
    if caps is not None:
        projected = project_onto_caps_oracle(w[positions], caps)
        w = np.zeros(n)
        w[positions] = projected
        cap_row = np.full(n, np.nan)
        cap_row[positions] = caps
    return WeightVector(t=factor_matrix.t, assets=tuple(factor_matrix.panel_assets), w=w, multipliers=multipliers,
                        caps=cap_row)


def generate_oracle(spec: ScenarioSpec) -> MarketPanel:
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_assets, spec.n_days
    calendar = trading_days(d)

    spread = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
    s_drift = rng.permutation(spread)
    s_value = rng.permutation(spread)
    s_roe = rng.permutation(spread)
    s_margin = rng.permutation(spread)
    s_lever = rng.permutation(spread)

    n_blocks = d // _QUARTER_DAYS + 1
    transient = np.stack([rng.permutation(spread) for _ in range(n_blocks)])

    eps_market = rng.standard_normal(d)
    eps_idio = rng.standard_normal((d, n))

    persist = abs(spec.ic_target)
    day_idx = np.arange(d)
    sign = np.ones(d) if spec.ic_target >= 0 else np.where((day_idx // _FLIP_DAYS) % 2 == 0, 1.0, -1.0)
    block = np.minimum(day_idx // _QUARTER_DAYS, n_blocks - 1)
    drift = _DRIFT_SCALE * spec.dispersion * (
        persist * sign[:, None] * s_drift[None, :]
        + (1.0 - persist) * transient[block]
    )
    idio_scale = min(spec.dispersion, 1.0)
    returns = (
        _BASE_DRIFT
        + drift
        + spec.vol * (_MARKET_BETA * eps_market[:, None] + idio_scale * eps_idio)
    )
    returns = np.maximum(returns, -0.9)

    price = _BASE_PRICE * np.cumprod(1.0 + returns, axis=0)

    tiers = np.array([spec.liquidity_tiers[i % len(spec.liquidity_tiers)] for i in range(n)])
    volume = np.tile(_BASE_VOLUME * tiers, (d, 1))
    # at dispersion 0 every z input must be bit-identical, so shares ignore tiers
    shares = _BASE_SHARES * (tiers if spec.dispersion > 0 else np.ones(n))
    mktcap = price * shares[None, :]

    quarter_starts = list(range(0, d, _QUARTER_DAYS))
    # one column per quarter: asset i's reports are row i, in date order
    g_book, g_roe, g_margin, g_lever = rng.standard_normal((len(quarter_starts), 4)).T
    bps = 18.0 * (1.0 + 0.25 * spec.dispersion * s_value[:, None] + 0.02 * g_book)
    roe = 0.15 + 0.10 * spec.dispersion * s_roe[:, None] + 0.01 * g_roe
    margin = np.clip(0.40 + 0.20 * spec.dispersion * s_margin[:, None] + 0.01 * g_margin, 0.01, 0.99)
    lever = np.clip(0.35 + 0.20 * spec.dispersion * s_lever[:, None] + 0.01 * g_lever, 0.0, 0.95)
    report_values = np.stack([np.maximum(bps, 0.5) * shares[:, None], roe, margin, lever], axis=-1).reshape(-1, 4)

    # masks drawn unconditionally so other draws do not depend on the rate
    gaps = rng.random((d, n, 3))
    price = np.where(gaps[:, :, 0] < spec.missing_rate, np.nan, price)
    volume = np.where(gaps[:, :, 1] < spec.missing_rate, np.nan, volume)
    mktcap = np.where(gaps[:, :, 2] < spec.missing_rate, np.nan, mktcap)

    return MarketPanel([f"A{i:03d}" for i in range(n)], calendar, price, volume, mktcap,
                       report_asset=np.repeat(np.arange(n), len(quarter_starts)),
                       report_date=np.tile(np.array(calendar.days)[quarter_starts], n), report_values=report_values)


def same_bits(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


# --- the winsor kernel -----------------------------------------------------------

# tied 0.0 and -0.0 at the interpolation points: the sign a bound takes
# depends on where numpy's partition puts them, which a sort, or two
# separate np.quantile calls, do not always reproduce
signed_zeros = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, math.nan]), max_size=80)
# ties, NaN and inf among ordinary values
mixed = st.lists(st.one_of(st.floats(-1e9, 1e9), st.sampled_from([math.nan, math.inf, 0.0, 1.5, -2.0])),
                 max_size=50)


@SETTINGS
@given(values=st.one_of(signed_zeros, mixed, st.lists(st.floats(-1e300, 1e300), max_size=300)),
       p=st.one_of(st.sampled_from([0.0, 0.01, 0.25, 0.4999, 1e-20]), st.floats(0.0, 0.4999)))
@example(values=[1.0, 5.0, -3.0], p=0.0)
@example(values=[math.nan, math.nan], p=0.1)
@example(values=[], p=0.1)
@example(values=[math.nan, 7.0, math.nan], p=0.3)
@example(values=[2.0, 2.0, 2.0, 1.0, 2.0, 9.0, 9.0], p=0.2)
@example(values=[-0.0], p=0.1)
@example(values=[0.0, -0.0, 0.0, -0.0, -1.0, 1.0], p=0.2)
@example(values=[-0.0, -0.0, 1.0], p=1e-20)  # (n-1)(1-p) rounds up to n-1
@example(values=[0.0, 1.0, -0.0, -1.0, -0.0], p=0.3)  # a sort puts the tied zeros elsewhere
@example(values=[0.0, -0.0, -0.0, 0.0, -1.0], p=0.4)
def test_winsorize_equals_one_quantile_call(values, p):
    """The winsor kernel on a row of finite values (`_zscores` never calls it
    at p = 0), and a segment winsorized and z-scored by `_zscores`."""
    x = np.asarray(values, dtype=float)
    finite = x[np.isfinite(x)]
    if p and finite.size:
        same_bits(_winsorized_rows(finite[None], p)[0], winsorize_oracle(finite, p), (values, p))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        same_bits(_zscores(x, [x.size], p), standardize_oracle(winsorize_oracle(x, p)), (values, p))


# --- z-scores ----------------------------------------------------------------------

EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1e308, -1e308, 1.7e308, 5e-324, -5e-324, 1e-300]
cross_sections = st.one_of(
    st.lists(st.one_of(st.floats(), st.sampled_from(EXTREMES)), max_size=60),
    st.lists(st.floats(-1e6, 1e6), max_size=300),
    st.builds(lambda v, n: [v] * n, st.sampled_from([0.0, -0.0, 3.25, 1e308]), st.integers(1, 20)),
)


@SETTINGS
@given(values=cross_sections)
@example(values=[])
@example(values=[math.nan, math.inf, -math.inf])
@example(values=[0.0, -0.0, 0.0, -0.0])
@example(values=[2.5, 2.5, math.nan, 2.5])
@example(values=[1e308, 1.7e308, -1e308])  # the sums overflow
@example(values=[5e-324, -5e-324, 0.0])  # the spread underflows
@example(values=[1e-300, 1e300, -0.0, math.inf])
def test_standardize_equals_mean_formula(values):
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        same_bits(_zscores(np.asarray(values, dtype=float), [len(values)], 0.0), standardize_oracle(values), values)


# --- factor matrices of many dates -----------------------------------------------------

SIGNAL_ROWS = ("momentum", "value", "roe", "gross_margin", "debt_to_assets")
# ties with signed zeros, missing signals, and values whose sums round
signal_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.nan]), st.floats(-1e6, 1e6))
factor_params = st.builds(FactorParams, winsor_p=st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.4999]),
                          winsorize_quality_components=st.booleans())


@st.composite
def signal_dates(draw):
    """1-40 dates of snapshot signal rows over 1-12 assets, each date with
    a non-empty pool of members in any order; a row is arbitrary, one
    constant repeated, or all missing. The values are drawn once, as a
    list of up to 24 signal values, and one byte string places them: per
    date a byte per row for its kind, a byte per cell for its value, a byte
    for the member count and one per asset whose stable argsort orders the
    members. A draw per cell would cost far more than the kernels under
    test."""
    n_assets = draw(st.integers(1, 12))
    n_dates = draw(st.integers(1, 40))
    values = np.array(draw(st.lists(signal_values, min_size=1, max_size=24)), dtype=float)
    width = len(SIGNAL_ROWS) * (1 + n_assets) + 1 + n_assets
    placing = np.frombuffer(draw(st.binary(min_size=n_dates * width, max_size=n_dates * width)), dtype=np.uint8)
    panel = SimpleNamespace(assets=[f"A{i}" for i in range(n_assets)])
    snapshots, positions = [], []
    for k, b in enumerate(placing.reshape(n_dates, width)):
        kinds = b[: len(SIGNAL_ROWS)] % 8  # half arbitrary, 3/8 one constant, 1/8 all missing
        cells = values[b[len(SIGNAL_ROWS): -1 - n_assets] % len(values)].reshape(len(SIGNAL_ROWS), n_assets)
        rows = {}
        for name, kind, row in zip(SIGNAL_ROWS, kinds, cells):
            rows[name] = row if kind < 4 else np.full(n_assets, row[0] if kind < 7 else math.nan)
        snapshots.append(SimpleNamespace(t=f"day{k}", panel=panel, **rows))
        order = b[-n_assets:].argsort(kind="stable")
        positions.append(order[: 1 + b[-1 - n_assets] % n_assets].astype(np.intp))
    return snapshots, positions


def assert_matrices_equal_oracle(snapshots, positions, params):
    got = select_factor_matrices(snapshots, positions, params)
    assert len(got) == len(snapshots)
    for m, snap, pos in zip(got, snapshots, positions):
        want = select_factor_matrix_oracle(snap, pos, params)
        assert m.t == want.t and m.positions.tolist() == pos.tolist()
        assert m.assets == tuple(snap.panel.assets[i] for i in pos)
        same_bits(m.raw, want.raw, (snap.t, "raw"))
        same_bits(m.z, want.z, (snap.t, "z"))
        assert m.raw.flags.c_contiguous and m.z.flags.c_contiguous


def example_dates(*rows):
    """(snapshots, positions) of one date per row over every asset: the
    date's five signal rows are the row times 1, 2, ..., 5."""
    panel = SimpleNamespace(assets=[f"A{i}" for i in range(len(rows[0]))])
    snapshots = [SimpleNamespace(t=f"day{k}", panel=panel,
                                 **{name: (j + 1.0) * np.array(row) for j, name in enumerate(SIGNAL_ROWS)})
                 for k, row in enumerate(rows)]
    return snapshots, [np.arange(len(row)) for row in rows]


@settings(SETTINGS, max_examples=150)
@given(dates=signal_dates(), params=factor_params)
@example(dates=([SimpleNamespace(t="d", panel=SimpleNamespace(assets=["A"]), **dict.fromkeys(SIGNAL_ROWS, np.array([-0.0])))],
                [np.array([0])]), params=FactorParams(winsor_p=0.1, winsorize_quality_components=True))
# every signal finite: _finite_groups reads each group as a slice of the values
@example(dates=example_dates([0.5, -1.0, 2.0, 0.0], [3.0, 1.0, -2.0, 0.25], [1.0, 1.0, -0.0, 4.0]),
         params=FactorParams(winsor_p=0.1, winsorize_quality_components=True))
# the dates with 4 finite entries sit apart, the one with 3 between them: a group of joined positions
@example(dates=example_dates([0.5, -1.0, 2.0, 0.0], [3.0, math.nan, -2.0, 0.25], [1.0, 1.0, -0.0, 4.0]),
         params=FactorParams(winsor_p=0.1, winsorize_quality_components=True))
def test_factor_matrices_of_many_dates_equal_one_date_builds(dates, params):
    snapshots, positions = dates
    assert_matrices_equal_oracle(snapshots, positions, params)


@SETTINGS
@given(panel=panels, p=params, data=st.data())
def test_factor_matrices_of_gappy_panels_equal_one_date_builds(panel, p, data):
    config = config_for(p)
    days = data.draw(st.lists(st.sampled_from(panel.calendar.days), min_size=1, max_size=20, unique=True))
    snaps = [snapshot(panel, t, config) for t in sorted(days)]
    for strategy in ("dmft", "fixed_universe"):
        kept = [(snap, pool_positions(snap, strategy, config)) for snap in snaps]
        kept = [(snap, pos) for snap, pos in kept if pos.size]
        assert_matrices_equal_oracle([snap for snap, _ in kept], [pos for _, pos in kept], config.factors)


@pytest.mark.parametrize("p, big", [
    # the lower bound interpolates -1.7e308 and 1.7e308 with weight 0: inf * 0 is NaN
    (0.25, [-1.7e308, -1.7e308, 1.7e308, 1.7e308, 1.7e308]),
    # the lower bound is -1.7e308 + inf * 0.2, +inf, so every value clamps to the upper, 1.7e308
    (0.3, [-1.7e308, -1.7e308, 1.7e308, 1.7e308, 1.7e308]),
    # the upper bound is 1.7e308 - inf * 0.2, -inf
    (0.3, [-1.7e308, -1.7e308, -1.7e308, 1.7e308, 1.7e308]),
], ids=["nan", "inf", "-inf"])
def test_a_winsor_bound_that_overflows_leaves_its_column_neutral(p, big):
    # every clamped momentum of that date is one value and standardizes
    # to 0, in a block as on its own
    panel = SimpleNamespace(assets=[f"A{i}" for i in range(6)])
    ordinary = np.linspace(0.1, 0.6, 6)
    snaps = [SimpleNamespace(t=t, panel=panel, **{**dict.fromkeys(SIGNAL_ROWS, ordinary), **over})
             for t, over in (("d0", {}), ("d1", {"momentum": np.array([*big, 1.0])}), ("d2", {}))]
    positions = [np.arange(6), np.arange(5), np.arange(5)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert_matrices_equal_oracle(snaps, positions, FactorParams(winsor_p=p))
        m = select_factor_matrices(snaps, positions, FactorParams(winsor_p=p))[1]
        assert np.unique(_winsorized_rows(np.array([big]), p)).size == 1
    assert np.isfinite(m.raw[:, 0]).all() and not m.z[:, 0].any()


def test_factor_matrices_reject_an_empty_pool():
    snap = SimpleNamespace(t="d", panel=SimpleNamespace(assets=["A"]), **dict.fromkeys(SIGNAL_ROWS, np.ones(1)))
    with pytest.raises(ConfigError, match="cannot build factor matrix for empty universe at d"):
        select_factor_matrices([snap, snap], [np.array([0]), np.array([], dtype=np.intp)], FactorParams())
    assert select_factor_matrices([], [], FactorParams()) == []


# --- tilted weights of a block -------------------------------------------------------

def outcome(fn, *args):
    """fn(*args), or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (ConfigError, InfeasibleCapsError) as exc:
        return type(exc), str(exc)


CAP_KINDS = ("none bind", "some bind", "all bind", "short of one", "infeasible")


def caps_of(kind: str, k: int, rng) -> np.ndarray:
    """k members' caps: above every weight, about 1.25/k each, a split of
    exactly 1 or of 1 - 5e-10 (within WEIGHT_SUM_TOL), or a split of less
    than 1 - WEIGHT_SUM_TOL."""
    if kind == "none bind":
        return rng.uniform(0.999999, 3.0, k)  # above 1 counts as 1
    if kind == "some bind":
        return rng.uniform(0.5, 2.0, k) / k
    split = rng.dirichlet(np.ones(k))
    shrink = {"all bind": 1.0, "short of one": 1.0 - 5e-10, "infeasible": rng.uniform(0.5, 0.99)}[kind]
    return split * shrink


MIXTURES = [None, {"MOM": 1.0, "VAL": 0.0, "QUAL": 0.0}, {"MOM": 0.5, "VAL": 0.5, "QUAL": 0.0}]
tilt_params = st.builds(
    lambda alpha, lam, bounds: TiltParams(**({} if alpha is None else {"alpha": alpha}), lam=lam,
                                          m_min=bounds[0], m_max=bounds[1]),
    st.sampled_from(MIXTURES), st.sampled_from([0.0, 0.25, 2.5, 40.0]),
    st.sampled_from([(0.5, 1.5), (1.0, 1.0), (0.1, 3.0), (0.9, 1.0)]))


@st.composite
def weight_blocks(draw):
    """1-8 factor matrices over one panel of 1-40 assets, pools of different
    sizes in any order, and each matrix's caps of a drawn kind (or none):
    z-scores arbitrary, tied, or all zero (every multiplier equal)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_assets = draw(st.integers(1, 40))
    assets = tuple(f"A{i}" for i in range(n_assets))
    matrices, caps = [], []
    for d in range(draw(st.integers(1, 8))):
        k = min(n_assets, draw(st.sampled_from([1, 2, n_assets, draw(st.integers(1, n_assets))])))
        positions = rng.permutation(n_assets)[:k].astype(np.intp)
        kind = draw(st.sampled_from(("normal", "ties", "zeros")))
        z = {"normal": rng.normal(size=(k, 3)) * 2.0, "ties": rng.choice([-1.0, 0.0, 0.0, 1.0], size=(k, 3)),
             "zeros": np.zeros((k, 3))}[kind]
        matrices.append(FactorMatrix(t=f"day{d}", positions=positions, panel_assets=assets, raw=z.copy(), z=z))
        caps.append(caps_of(draw(st.sampled_from(CAP_KINDS)), k, rng))
    return matrices, caps if draw(st.booleans()) else None


def same_vector(got: WeightVector, want: WeightVector, what):
    assert (got.t, got.assets) == (want.t, want.assets), what
    for attr in ("w", "multipliers", "caps"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert (g is None) == (w is None), (what, attr)
        if w is not None:
            same_bits(g, w, (what, attr))


@settings(SETTINGS, max_examples=200)
@given(block=weight_blocks(), tilts=st.lists(tilt_params, min_size=1, max_size=4))
def test_block_weights_equal_one_call_per_row(block, tilts):
    """tilted_block equals tilted_weights_oracle on each (matrix, tilt) row,
    in that order, bit for bit; when a row fails, it raises the error of the
    first failing row, as one call per row in that order does."""
    matrices, caps = block
    want = [outcome(tilted_weights_oracle, m, tilt, None if caps is None else caps[i])
            for i, m in enumerate(matrices) for tilt in tilts]
    got = outcome(tilted_block, matrices, tilts, caps)
    failed = [w for w in want if isinstance(w, tuple)]
    if failed:
        assert got == failed[0]
        return
    w, mult, cap_rows = got
    assert len(w) == len(mult) == len(want)
    for r, want_row in enumerate(want):
        m = matrices[r // len(tilts)]
        row = WeightVector(t=m.t, assets=tuple(m.panel_assets), w=w[r], multipliers=mult[r],
                           caps=None if cap_rows is None else cap_rows[r // len(tilts)])
        same_vector(row, want_row, r)


def test_an_infeasible_row_after_feasible_ones_raises_its_own_error():
    rng = np.random.default_rng(5)
    assets = tuple(f"A{i}" for i in range(6))
    matrices = [FactorMatrix(t=f"day{d}", positions=np.arange(k), panel_assets=assets, raw=z, z=z)
                for d, k in enumerate((6, 4, 6, 4)) for z in [rng.normal(size=(k, 3))]]
    caps = [caps_of("some bind", 6, rng), caps_of("all bind", 4, rng), np.full(6, 0.16), np.full(4, 0.2)]
    want = outcome(tilted_weights_oracle, matrices[2], TiltParams(), caps[2])
    assert want[0] is InfeasibleCapsError and "sum to 0.96" in want[1]
    assert outcome(tilted_block, matrices, [TiltParams(), TiltParams(lam=0.0)], caps) == want


# ADVs a pool's median and ratio meet: ties, zeros of either sign, an
# all-zero pool (a zero median), and, when drawn, a missing one
ADV_KINDS = ("spread", "ties", "signed zeros", "all zero")
cap_params = st.builds(CapParams, c_max=st.sampled_from([0.1, 1.0, 0.03]), kappa=st.sampled_from([0.05, 1.0, 7.5]),
                       gamma=st.sampled_from([0.5, 0.0, 1.0, 0.37]))


def advs_of(kind: str, k: int, rng) -> np.ndarray:
    if kind == "spread":
        return rng.lognormal(10.0, 3.0, k)
    if kind == "ties":
        return rng.choice([0.0, 1e6, 1e6, 3.5e6], k)
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0, -0.0, 2e5, 7e5], k)
    return rng.choice([0.0, -0.0], k)


@settings(SETTINGS, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), kinds=st.lists(st.sampled_from(ADV_KINDS), min_size=1, max_size=40),
       sizes=st.lists(st.sampled_from([1, 2, 3, 4, 7, 8, 59, 60]), min_size=1, max_size=3), params=cap_params,
       missing=st.one_of(st.none(), st.integers(0, 39)))
@example(seed=0, kinds=["signed zeros"] * 4, sizes=[2, 1], params=CapParams(), missing=None)
@example(seed=1, kinds=["all zero", "ties", "spread"], sizes=[4], params=CapParams(), missing=1)
def test_block_caps_equal_one_median_call_per_pool(seed, kinds, sizes, params, missing):
    """member_caps over a walk block's pools, of mixed sizes, gives every
    pool the bits cap_values_oracle gives it alone, signbit included, and
    a missing ADV raises the oracle's error."""
    rng = np.random.default_rng(seed)
    advs = [advs_of(kind, sizes[i % len(sizes)], rng) for i, kind in enumerate(kinds)]
    if missing is not None:
        advs[missing % len(advs)][rng.integers(len(advs[missing % len(advs)]))] = math.nan
    want = [outcome(cap_values_oracle, adv, params) for adv in advs]
    failed = [w for w in want if isinstance(w, tuple)]
    if failed:
        assert outcome(member_caps, advs, params) == failed[0]
        return
    for i, (got, one) in enumerate(zip(member_caps(advs, params), want, strict=True)):
        same_bits(got, one, (i, advs[i]))


zero_weight_cases = [([0.6, 0.4, 0.0], [0.5, 0.3, 1.0]), ([0.6, 0.0, 0.4], [0.5, 1.0, 1.0])]


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 30), zeros=st.integers(0, 5),
       kind=st.sampled_from(CAP_KINDS), scale=st.sampled_from([1.0, 1.0 + 2e-9, 0.5]))
@example(seed=0, k=3, zeros=-1, kind="zero weight", scale=1.0)
@example(seed=1, k=3, zeros=-2, kind="zero weight", scale=1.0)
def test_one_row_kernels_equal_one_vector_code(seed, k, zeros, kind, scale):
    """project_onto_caps and the tilt's normalization of one row equal the
    one-vector code, with members that hold no weight, inputs that do not
    sum to 1, and multipliers equal on the support."""
    rng = np.random.default_rng(seed)
    if kind == "zero weight":  # the zero-weight cases of the projection's unit tests
        w, caps = map(np.array, zero_weight_cases[-1 - zeros])
    else:
        w = rng.dirichlet(np.ones(k))
        w[rng.permutation(k)[: min(zeros, k - 1)]] = 0.0
        w = w / w.sum() * scale
        caps = caps_of(kind, k, rng)
    got, want = outcome(project_onto_caps, w, caps), outcome(project_onto_caps_oracle, w, caps)
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
    else:
        same_bits(got, want, (w, caps))
    for m in (rng.uniform(0.5, 1.5, k), np.where(w > 0, 1.25, rng.uniform(0.5, 1.5, k))):
        same_bits(_normalized_rows(w[None].copy(), m[None])[0], normalize_tilt_oracle(w, m), (w, m))
    same_bits(_normalized_rows(np.zeros((1, k)), np.ones((1, k)))[0], np.zeros(k), "no support")


# --- Pearson correlation and average ranks ---------------------------------------------

def average_ranks_oracle(x) -> np.ndarray:
    """One row's average ranks from its own stable argsort, NaN last and
    each NaN its own run."""
    x = np.asarray(x)
    order = np.argsort(x, kind="stable")
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.arange(len(x))
    ordered = x[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    dense = np.cumsum(first)[inverse]
    count = np.append(np.flatnonzero(first), len(x))
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def correlation_row(kind: str, n: int, rng, other: np.ndarray) -> np.ndarray:
    if kind == "same":
        return other.copy()
    if kind == "reversed ranks":
        return n + 1.0 - other
    if kind == "ranks":  # half-integers, with ties
        return average_ranks_oracle(rng.integers(0, n // 3 + 2, size=n))
    if kind == "constant":  # a value whose mean is not exact
        return np.full(n, 0.1 * rng.integers(1, 9))
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0, 0.0, 1.0, -1.0], size=n)
    scale = {"normal": 1.0, "large": 1e153, "tiny": 1e-160}[kind]  # the squares overflow or underflow
    return rng.normal(size=n) * scale


ROW_KINDS = ("normal", "ranks", "constant", "signed zeros", "large", "tiny")


@settings(SETTINGS, max_examples=300)
@given(n=st.integers(3, 600), seed=st.integers(0, 2**32 - 1), x_kind=st.sampled_from(ROW_KINDS),
       y_kind=st.sampled_from((*ROW_KINDS, "same", "reversed ranks")),
       layout=st.sampled_from(("pair", "F-ordered pair", "rows of a stack", "columns of a matrix")))
@example(n=3, seed=0, x_kind="constant", y_kind="normal", layout="pair")
@example(n=600, seed=1, x_kind="ranks", y_kind="reversed ranks", layout="columns of a matrix")
@example(n=4, seed=2, x_kind="signed zeros", y_kind="signed zeros", layout="F-ordered pair")
@example(n=57, seed=3, x_kind="large", y_kind="tiny", layout="rows of a stack")
def test_pearson_equals_corrcoef(n, seed, x_kind, y_kind, layout):
    """pair_correlations of two rows of centered_rows equals
    np.corrcoef(x, y)[0, 1] bit for bit, whatever the layout of the block
    they are taken from."""
    rng = np.random.default_rng(seed)
    x = correlation_row(x_kind, n, rng, np.zeros(n))
    y = correlation_row(y_kind, n, rng, x)
    i, j = 0, 1
    if layout == "pair":
        block = np.stack((x, y))
    elif layout == "F-ordered pair":
        block = np.asfortranarray(np.stack((x, y)))
    else:
        block = rng.normal(size=(5, n))
        i, j = rng.choice(5, size=2, replace=False).tolist()
        block[i], block[j] = x, y
        if layout == "columns of a matrix":  # as a factor matrix's z.T
            block = np.ascontiguousarray(block.T).T
    # the stacked kernel: the pair as one item of a stack of pairs, and as
    # one date among others with as many members
    others = rng.normal(size=(3, 2, n))
    stack = np.concatenate((others[:1], np.stack((x, y))[None], others[1:]))
    blocks = [others[0].T, np.column_stack((x, y)), others[1].T, others[2].T]
    with np.errstate(all="ignore"):
        want = np.corrcoef(x, y)[0, 1]
        got = pair_correlations(centered_rows(block)[[i, j]][None])[0]
        in_stack = pair_correlations(centered_rows(stack))[1]
        dated = stacked_correlations(blocks, [(0, 1)])
    assert got.tobytes() == want.tobytes() or (math.isnan(got) and math.isnan(want))
    assert in_stack.tobytes() == want.tobytes() or (math.isnan(in_stack) and math.isnan(want))
    if not (blocks[1] == blocks[1][0]).all(axis=0).any():
        assert dated[1, 0].tobytes() == want.tobytes() or (math.isnan(dated[1, 0]) and math.isnan(want))
    else:  # a column of one value on the date is not computed
        assert math.isnan(dated[1, 0])


def test_a_column_whose_squares_underflow_is_not_computed():
    """A column that is not constant but whose squares underflow to a zero
    diagonal entry reads NaN with no division by zero, where np.corrcoef
    divides by the zero and reads +-1: the kernel's one departure from it."""
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=(2, 8))
    x *= 1e-170
    with np.errstate(all="ignore"):
        assert abs(np.corrcoef(x, y)[0, 1]) == 1.0
    assert math.isnan(pair_correlations(centered_rows(np.stack((x, y)))[None])[0])
    assert math.isnan(stacked_correlations([np.column_stack((x, y))], [(0, 1)])[0, 0])
    assert math.isnan(stacked_correlations([np.column_stack((y, x))], [(0, 1)])[0, 0])


rank_values = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, math.nan, math.inf, -math.inf])


@SETTINGS
@given(rows=st.lists(st.lists(st.one_of(rank_values, st.floats(-1e9, 1e9)), min_size=6, max_size=6),
                     min_size=1, max_size=40),
       fortran=st.booleans())
@example(rows=[[0.0, -0.0, 0.0, -0.0, 1.0, 1.0]], fortran=False)
@example(rows=[[math.nan] * 6, [2.0] * 6], fortran=True)
@example(rows=[[math.nan, 1.0, 0.0, -0.0, math.inf, 2.5]] * 20 + [[0.0] * 6] * 20, fortran=False)
def test_stacked_ranks_equal_one_column_at_a_time(rows, fortran):
    """average_ranks_rows of a matrix's columns, stacked (z.T), equals each
    column ranked alone, by the oracle and as a stack of one row."""
    z = np.array(rows)  # n members x 6 columns
    stacked = average_ranks_rows(np.asfortranarray(z.T) if fortran else np.ascontiguousarray(z.T))
    for j in range(z.shape[1]):
        same_bits(stacked[j], average_ranks_oracle(z[:, j]), j)
        same_bits(stacked[j], average_ranks_rows(z[:, j][None])[0], j)


# --- IC series and factor correlations: every date in one stacked kernel ------------

def centered_rows_oracle(x) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=float)
    return x - (np.add.reduce(x, axis=1) / x.shape[1])[:, None]


def pearson_oracle(centered: np.ndarray, i: int, j: int) -> float:
    """The one-pair kernel the stacked one replaced: the 2 x n product
    np.dot(X, X.T) of rows i and j that np.cov makes, scaled by 1 / (n - 1),
    divided by the square roots of its diagonal in turn, clipped."""
    pair = centered[[i, j]]
    (xx, xy), (_, yy) = (np.dot(pair, pair.T) * (1 / (centered.shape[1] - 1))).tolist()
    r = np.float64(xy) / math.sqrt(xx) / math.sqrt(yy)
    return min(max(float(r), -1.0), 1.0)


def rank_correlations_oracle(rows: np.ndarray, pairs) -> list[float]:
    """One date's rank correlations, one pair at a time: NaN when either
    ranking is constant, exactly +-1 when ranking i equals ranking j or its
    reverse."""
    ranks = np.array([average_ranks_oracle(row) for row in rows])
    constant = (ranks == ranks[:, :1]).all(axis=1).tolist()
    i, j = np.array(pairs).T
    same = (ranks[i] == ranks[j]).all(axis=1).tolist()
    reverse = (ranks[i] == ranks.shape[1] + 1.0 - ranks[j]).all(axis=1).tolist()
    centered = centered_rows_oracle(ranks)
    return [math.nan if constant[a] or constant[b] else 1.0 if s else -1.0 if r else pearson_oracle(centered, a, b)
            for (a, b), s, r in zip(pairs, same, reverse)]


def ic_series_oracle(panel, schedule, factor_matrices, params):
    """build_ic_series one date at a time: each date's z columns and forward
    returns ranked and correlated on their own."""
    if not any(t in factor_matrices for t in schedule.dates):
        return {}
    per_factor = {f: ([], []) for f in FACTORS}
    for t in schedule.dates:
        if t not in factor_matrices:
            continue
        matrix = factor_matrices[t]
        fwd = forward_returns(panel, t, params.horizon)[matrix.positions]
        ok = np.isfinite(fwd)
        if int(ok.sum()) < max(params.min_universe, 3):
            continue
        rows = np.vstack((matrix.z[ok].T, fwd[ok]))
        last = len(rows) - 1
        for f, ic in zip(FACTORS, rank_correlations_oracle(rows, [(j, last) for j in range(last)])):
            if not math.isnan(ic):
                per_factor[f][0].append(t)
                per_factor[f][1].append(ic)
    return {f: (tuple(dates), np.array(values)) for f, (dates, values) in per_factor.items()}


def factor_correlations_oracle(matrices) -> np.ndarray:
    """factor_correlations one date and one pair at a time."""
    nf = len(FACTORS)
    sums = np.zeros((nf, nf))
    counts = np.zeros((nf, nf), dtype=int)
    for m in matrices:
        varied = (~(m.z == m.z[0]).all(axis=0)).tolist()  # a column of one value is not computed
        centered = centered_rows_oracle(m.z.T)
        for i in range(nf):
            for j in range(i + 1, nf):
                if varied[i] and varied[j]:
                    sums[i, j] += pearson_oracle(centered, i, j)
                    counts[i, j] += 1
    corr = np.eye(nf)
    for i in range(nf):
        for j in range(i + 1, nf):
            corr[i, j] = corr[j, i] = sums[i, j] / counts[i, j] if counts[i, j] else math.nan
    return corr


def member_column(kind: str, rng, fwd: np.ndarray) -> np.ndarray:
    n = len(fwd)
    if kind == "the forward returns":  # the same ranking
        return fwd.copy()
    if kind == "reversed":
        return -fwd
    if kind == "ties":
        return rng.integers(0, 3, size=n).astype(float)
    if kind == "zero":
        return np.zeros(n)
    if kind == "one inexact value":  # constant, its mean not exactly the value
        return np.full(n, 0.1)
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0, 1.0], size=n)
    return rng.normal(size=n)


MEMBER_KINDS = ("normal", "ties", "zero", "one inexact value", "signed zeros", "the forward returns", "reversed")


@st.composite
def member_dates(draw, min_members=0):
    """Dates of (z, forward returns): mixed member counts, NaN forward
    returns, and z columns that are constant, tied, or the forward returns'
    ranking or its reverse."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dates = []
    for _ in range(draw(st.integers(1, 14))):
        n = draw(st.sampled_from([min_members, 1, 2, 3, 4, 5, 8, 9, 17, 40]))
        n = max(n, min_members)
        fwd = rng.integers(0, 4, size=n) * 0.5 if draw(st.booleans()) else rng.normal(size=n)  # with ties or not
        fwd[rng.random(n) < draw(st.sampled_from([0.0, 0.0, 0.2, 0.6]))] = np.nan
        kinds = draw(st.lists(st.sampled_from(MEMBER_KINDS), min_size=len(FACTORS), max_size=len(FACTORS)))
        z = np.column_stack([member_column(kind, rng, np.nan_to_num(fwd)) for kind in kinds]).reshape(n, len(FACTORS))
        dates.append((z, fwd))
    return dates


chunk_budgets = st.one_of(st.integers(1, 64), st.sampled_from([4096, 10**9]))


def same_values(got, want, what):
    """Equal bits, any NaN equal to any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    same_bits(np.where(np.isnan(got), np.nan, got), np.where(np.isnan(want), np.nan, want), what)


@settings(SETTINGS, max_examples=200)
@given(dates=member_dates(), budget=chunk_budgets, min_members=st.integers(2, 6))
@example(dates=[(np.array([[1.0, 2.0, 0.1]] * 3 + [[2.0, 1.0, 0.1]] * 3), np.arange(6.0))] * 3, budget=1, min_members=3)
def test_stacked_rank_correlations_equal_one_date_at_a_time(dates, budget, min_members):
    """The ranked kernel gives each date's rank correlations of its z columns
    with the forward returns, and of two z columns, with the bits of one
    date at a time, under any chunk budget from one date per chunk up."""
    nf = len(FACTORS)
    pairs = [(j, nf) for j in range(nf)] + [(0, 1)]
    with patch.object(calibration, "_CHUNK_CELLS", budget):
        got = stacked_correlations([z for z, _ in dates], pairs, ranked=True, min_members=min_members,
                                   last=[fwd for _, fwd in dates])
    for d, (z, fwd) in enumerate(dates):
        ok = np.isfinite(fwd)
        want = ([math.nan] * len(pairs) if ok.sum() < min_members
                else rank_correlations_oracle(np.vstack((z[ok].T, fwd[ok])), pairs))
        same_values(got[d], want, (d, z, fwd))


def matrices_of(dates):
    return [FactorMatrix(t=f"2020-01-{d + 1:02d}", positions=np.arange(len(z)),
                         panel_assets=[f"A{i}" for i in range(len(z))], raw=z, z=z) for d, (z, _) in enumerate(dates)]


@settings(SETTINGS, max_examples=200)
@given(dates=member_dates(min_members=1).filter(lambda dates: len(dates) >= 2), budget=chunk_budgets)
@example(dates=[(np.column_stack((np.full(9, 0.1), np.arange(9.0), np.arange(9.0) ** 2)), None)] * 2, budget=1)
def test_factor_correlations_equal_one_pair_at_a_time(dates, budget):
    """factor_correlations, and each date's correlations in its kernel,
    give the bits of one date and one pair at a time: constant columns,
    a column of one value whose mean is not exact, and one-member dates.
    A pair with a constant column divides nothing, so no RuntimeWarning
    is raised."""
    matrices = matrices_of(dates)
    pairs = [(0, 1), (0, 2), (1, 2)]
    with patch.object(calibration, "_CHUNK_CELLS", budget):
        got = factor_correlations(matrices)[1]
        per_date = stacked_correlations([m.z for m in matrices], pairs)
    want = factor_correlations_oracle(matrices)
    for d, m in enumerate(matrices):
        varied = ~(m.z == m.z[0]).all(axis=0)
        centered = centered_rows_oracle(m.z.T)
        for p, (i, j) in enumerate(pairs):
            same_values(per_date[d, p], pearson_oracle(centered, i, j) if varied[i] and varied[j] else math.nan,
                        (d, i, j))
    same_values(got, want, dates)


@settings(SETTINGS, max_examples=60)
@given(panel=st.builds(random_panel, seed=st.integers(0, 2**32 - 1), n_assets=st.integers(4, 30),
                       n_days=st.integers(20, 90), gap=st.sampled_from([0.0, 0.1, 0.3])),
       p=params, data=st.data())
def test_ic_series_of_gappy_panels_equal_one_date_at_a_time(panel, p, data):
    """build_ic_series over gappy panels, any horizon, minimum universe and
    chunk budget, equals the series built one date at a time."""
    config = config_for(p)
    days = sorted(data.draw(st.lists(st.sampled_from(panel.calendar.days), min_size=1, max_size=20, unique=True)))
    snaps = [snapshot(panel, t, config) for t in days]
    kept = [(snap, pool_positions(snap, "fixed_universe", config)) for snap in snaps]
    kept = [(snap, pos) for snap, pos in kept if pos.size]
    matrices = {m.t: m for m in select_factor_matrices([s for s, _ in kept], [pos for _, pos in kept], config.factors)}
    schedule = RebalanceSchedule(tuple(days))
    params_ = CalibrationParams(horizon=data.draw(st.integers(1, 30)), min_universe=data.draw(st.integers(3, 6)))
    with patch.object(calibration, "_CHUNK_CELLS", data.draw(chunk_budgets)):
        got = build_ic_series(panel, schedule, matrices, params_)
    want = ic_series_oracle(panel, schedule, matrices, params_)
    assert got.keys() == want.keys()
    for f in want:
        assert got[f].dates == want[f][0], f
        same_bits(got[f].values, want[f][1], f)


# --- latest fundamental report -----------------------------------------------------


@SETTINGS
@given(panel=panels, l_fund=st.sampled_from([1, 7, 30, 400]))
def test_latest_reports_equal_bisection(panel, l_fund):
    # report dates run from before the calendar to past its end, weekends
    # included; some assets have no records and many reports go stale
    for t in panel.calendar.days:
        same_bits(_latest_reports(panel, t, l_fund), latest_reports_oracle(panel, t, l_fund), (t, l_fund))


def test_latest_reports_without_fundamentals():
    panel = random_panel(3, 4, 20, 0.1)
    bare = MarketPanel(list(panel.assets), panel.calendar, panel.price, panel.volume, panel.mktcap)
    assert [a.shape for a in bare.report_table] == [(4, 0), (4, 4, 0)]
    for t in bare.calendar.days:
        got = _latest_reports(bare, t, 400)
        same_bits(got, latest_reports_oracle(bare, t, 400), t)
        assert np.isnan(got).all()


def test_report_table_is_built_on_first_use_and_read_only():
    panel = random_panel(11, 5, 30, 0.0)
    assert "report_table" not in vars(panel)
    AsOf(panel, panel.calendar.days[10])  # no fundamentals window: no table
    assert "report_table" not in vars(panel)
    AsOf(panel, panel.calendar.days[10], l_fund=60)
    days, values = panel.report_table
    assert panel.report_table is panel.report_table
    width = max(map(len, panel.fundamentals.values()))
    assert days.shape == (5, width) and days.dtype == np.int64
    assert values.shape == (4, 5, width) and values.dtype == np.float64
    for arr in (days, values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    for i, asset in enumerate(panel.assets):
        records = panel.fundamentals.get(asset, [])
        want = [int(np.datetime64(r.report_date, "D").astype(np.int64)) for r in records]
        assert days[i].tolist() == want + [np.iinfo(np.int64).max] * (width - len(records))


# --- average dollar volume -----------------------------------------------------------


@SETTINGS
@given(panel=panels, lookback=st.integers(1, 40))
def test_average_dollar_volumes_equal_argsort_packing(panel, lookback):
    for it in range(panel.n_days + 1):
        same_bits(_average_dollar_volumes(panel, it, lookback),
                  average_dollar_volumes_oracle(panel, it, lookback), (it, lookback))


def test_average_dollar_volume_keeps_an_overflowed_product():
    cal = trading_days(6)
    price = np.full((6, 3), 10.0)
    volume = np.full((6, 3), 100.0)
    price[2, 0], volume[2, 0] = 1e200, 1e200  # p * v overflows to inf, yet both are present
    volume[3, 1] = math.nan
    panel = MarketPanel(["A", "B", "C"], cal, price, volume, np.full((6, 3), 1e6))
    with np.errstate(over="ignore"):
        got = _average_dollar_volumes(panel, 5, 4)
        want = average_dollar_volumes_oracle(panel, 5, 4)
    same_bits(got, want, "overflow")
    assert got.tolist() == [math.inf, 1000.0, 1000.0]


# --- synthetic generator -------------------------------------------------------------

specs = st.builds(
    ScenarioSpec,
    seed=st.integers(0, 2**32 - 1),
    n_assets=st.integers(1, 40),
    n_days=st.integers(1, 400),  # from below one gap block to past several
    vol=st.floats(0.0, 0.05),
    dispersion=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    ic_target=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
    liquidity_tiers=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=4).map(tuple),
    missing_rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)


@settings(SETTINGS, max_examples=80)
@given(spec=specs)
@example(spec=ScenarioSpec(seed=1, n_assets=1, n_days=1, missing_rate=1.0))
@example(spec=ScenarioSpec(seed=2, n_assets=7, n_days=_GAP_ROWS - 1, dispersion=0.0, ic_target=-0.4,
                           missing_rate=0.1))  # below one gap block
@example(spec=ScenarioSpec(seed=3, n_assets=40, n_days=_GAP_ROWS, dispersion=1.7, ic_target=0.6,
                           liquidity_tiers=(1.0, 0.2, 0.05), missing_rate=0.3))  # exactly one block
@example(spec=ScenarioSpec(seed=4, n_assets=13, n_days=3 * _GAP_ROWS + 17, dispersion=2.5, ic_target=-1.0,
                           missing_rate=0.05))  # past several blocks, not a multiple of one
def test_generate_equals_expression_form(spec):
    got, want = generate(spec), generate_oracle(spec)
    assert (got.assets, got.calendar.days) == (want.assets, want.calendar.days)
    for name in ("price", "volume", "mktcap", "report_values"):
        g, w = getattr(got, name), getattr(want, name)
        assert np.array_equal(g, w, equal_nan=True), (name, spec)
        same_bits(g, w, (name, spec))
    for name in ("report_asset", "report_date"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), (name, spec)


# --- the standard normal CDF and quantile -----------------------------------------------

SQRT2 = math.sqrt(2.0)
UNDERFLOW = math.sqrt(2.0 * 7.09782712893383996843e2)  # where erfc(|a| / sqrt 2) is taken as 0
EXP_M2, EXP_M32 = math.exp(-2.0), math.exp(-32.0)
# ndtr's branches by |a|: erf below sqrt 2, erfc's P/Q below 8 sqrt 2 and
# R/S above it, and the underflow to 0 (or 1)
NDTR_BRANCHES = {"erf": (0.0, SQRT2), "erfc P/Q": (SQRT2, 8.0 * SQRT2), "erfc R/S": (8.0 * SQRT2, UNDERFLOW),
                 "underflow": (UNDERFLOW, math.inf)}
# ndtri's branches by p: P0/Q0 in the centre, P1/Q1 in each tail down to
# exp(-32) from its end, P2/Q2 beyond (the upper one is enumerated below)
NDTRI_BRANCHES = {"centre": (EXP_M2, 1.0 - EXP_M2), "lower P1/Q1": (EXP_M32, EXP_M2),
                  "upper P1/Q1": (1.0 - EXP_M2, 1.0 - EXP_M32), "lower P2/Q2": (0.0, EXP_M32)}


def neighbours(x: float, steps: int = 1) -> list[float]:
    """x and the floats up to `steps` ulps either side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def same_float(got, want, what):
    """got is a Python float with want's bits (a NaN matches any NaN)."""
    assert type(got) is float, what
    want = float(want)
    assert np.float64(got).tobytes() == np.float64(want).tobytes() or (math.isnan(got) and math.isnan(want)), \
        (what, got, want)


@pytest.mark.parametrize("branch", NDTR_BRANCHES)
@settings(SETTINGS, max_examples=1000)
@given(data=st.data())
def test_ndtr_equals_cephes(branch, data):
    size = data.draw(st.floats(*NDTR_BRANCHES[branch]))
    for a in (size, -size):
        same_float(_ndtr(a), ndtr(a), a)


@pytest.mark.parametrize("a", [
    *(s * x for s in (1.0, -1.0) for edge in (1.0, SQRT2, 8.0, 8.0 * SQRT2) for x in neighbours(edge)),
    *(s * x for s in (1.0, -1.0) for x in neighbours(UNDERFLOW, 4)),
    0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, math.nan])
def test_ndtr_edges_equal_cephes(a):
    same_float(_ndtr(a), ndtr(a), a)


@pytest.mark.parametrize("branch", NDTRI_BRANCHES)
@settings(SETTINGS, max_examples=1000)
@given(data=st.data())
def test_ndtri_equals_cephes(branch, data):
    p = data.draw(st.floats(*NDTRI_BRANCHES[branch]))
    same_float(_ndtri(p), ndtri(p), p)


@pytest.mark.parametrize("p", [
    *(x for edge in (0.5, EXP_M2, 1.0 - EXP_M2, EXP_M32, 1.0 - EXP_M32) for x in neighbours(edge)),
    0.0, -0.0, 5e-324, 1.0, -1e-300, math.nextafter(1.0, 2.0), math.inf, -math.inf, math.nan])
def test_ndtri_edges_equal_cephes(p):
    same_float(_ndtri(p), ndtri(p), p)


def sweep(lo: float, hi: float) -> np.ndarray:
    return np.random.default_rng(0).uniform(lo, hi, 20_000)


# 20,000 seeded points per branch find the rarer differences, such as a
# coefficient a few ulps off, that a thousand draws can miss. ndtr is swept
# on the lower tail, where the upper tail's 1 - y rounds away most of y
@pytest.mark.parametrize("f, reference, points", [
    (_ndtr, ndtr, sweep(-SQRT2, SQRT2)),
    (_ndtr, ndtr, -sweep(SQRT2, 8.0 * SQRT2)),
    (_ndtr, ndtr, -sweep(8.0 * SQRT2, UNDERFLOW)),
    (_ndtri, ndtri, sweep(EXP_M2, 1.0 - EXP_M2)),
    (_ndtri, ndtri, np.exp(-sweep(2.0, 32.0))),
    (_ndtri, ndtri, 1.0 - np.exp(-sweep(2.0, 32.0))),
    (_ndtri, ndtri, np.exp(-sweep(32.0, 700.0))),
], ids=["erf", "erfc P/Q", "erfc R/S", "centre", "lower P1/Q1", "upper P1/Q1", "lower P2/Q2"])
def test_normal_functions_equal_cephes_on_a_sweep_of_each_branch(f, reference, points):
    same_bits(np.array([f(x) for x in points.tolist()]), reference(points), f.__name__)


def test_ndtri_equals_cephes_on_its_upper_p2_q2_branch_and_the_trial_counts():
    """Every float from 1 - exp(-32) up to 1, and both probabilities that
    expected_max_sharpe asks for at 1 to 199 trials."""
    p, upper = 1.0 - EXP_M32, []
    while p < 1.0:
        upper.append(p)
        p = math.nextafter(p, 2.0)
    trials = [q for n in range(1, 200) for q in (1.0 - 1.0 / n, 1.0 - 1.0 / (n * math.e))]
    for p in upper + trials:
        same_float(_ndtri(p), ndtri(p), p)
