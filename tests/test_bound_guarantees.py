"""What the bounds guarantee, read straight from `tilted_block`'s weight
block and from `_projected_rows`' capped rows. For the uncapped tilt of a
pool of N members with score s = z @ alpha (alpha convex) and multipliers
m = clip(1 + lam * s, m_min, m_max), so that w = m / sum(m):

- concentration: effective N = 1 / sum(w^2) >= N * m_min / m_max, since
  sum(w^2) <= max w <= m_max / (N * m_min);
- stability: on one pool, two z blocks give ||w - w'||_1 <=
  2 * lam * max|z - z'| / m_min, since sum|dw| <= 2 * sum|dm| / sum(m),
  |dm| <= lam * |ds| <= lam * max|dz| and sum(m) >= N * m_min.

The capped projection P(w) = min(c, s * w), s >= 1 the one scale at which
it sums to 1, scales a change by at most s: with feasible caps,
||P(w) - P(w')||_1 <= max(s, s') * ||w - w'||_1. While the binding set B
holds, P's free members are s * w_i with s = (1 - sum(c_B)) / w_F, so a
move d (summing to 0) moves them by s * (d_i - w_i * d_F / w_F), whose L1
norm is at most s * (sum_F |d_i| + |d_F|) <= s * ||d||_1, since
|d_F| = |d_B|. Along the segment from w to w', s is quasi-convex (at a
fixed S, sum(min(c, S * w)) is concave along the segment, so the points
whose s is at most S, where that sum reaches 1, form an interval), so it
stays at most max(s, s') and the bound holds piece by piece.

All three are claims of the code, so the only slack is ROUNDING: the float
arithmetic of the sums and divisions, about 1e-12, stated once here. A
failing case is a finding about the code, not a reason to widen it.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from factortilt.factors import FACTORS, FactorMatrix
from factortilt.weighting import TiltParams, _projected_rows, tilted_block

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)
ROUNDING = 1e-12  # relative for effective N, absolute for the L1 change


@st.composite
def tilts(draw):
    """A tilt with a convex mixture, lam in [0, 5], m_min in [0.05, 1] and
    m_max in [1, 5]."""
    shares = draw(st.lists(st.floats(0.0, 1.0), min_size=len(FACTORS), max_size=len(FACTORS)).filter(sum))
    alpha = {f: x / sum(shares) for f, x in zip(FACTORS, shares)}
    return TiltParams(alpha=alpha, lam=draw(st.floats(0.0, 5.0)), m_min=draw(st.floats(0.05, 1.0)),
                      m_max=draw(st.floats(1.0, 5.0)))


@st.composite
def pools(draw):
    """A pool's member positions among 1-60 panel assets, and a seeded rng
    for its z blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_assets = draw(st.integers(1, 60))
    positions = np.sort(rng.permutation(n_assets)[: draw(st.integers(1, n_assets))]).astype(np.intp)
    return tuple(f"A{i}" for i in range(n_assets)), positions, rng


def matrix(t, assets, positions, z) -> FactorMatrix:
    return FactorMatrix(t=t, positions=positions, panel_assets=assets, raw=z.copy(), z=z)


@SETTINGS
@given(pool=pools(), tilt_list=st.lists(tilts(), min_size=1, max_size=3))
def test_effective_n_is_at_least_n_m_min_over_m_max(pool, tilt_list):
    assets, positions, rng = pool
    z = rng.standard_t(3, size=(len(positions), len(FACTORS))) * rng.choice([0.1, 1.0, 10.0])
    w, _, _ = tilted_block([matrix("d0", assets, positions, z)], tilt_list)
    for row, tilt in zip(w, tilt_list):
        bound = len(positions) * tilt.m_min / tilt.m_max
        assert 1.0 / np.sum(row * row) >= bound * (1.0 - ROUNDING), (tilt, len(positions))


@SETTINGS
@given(pool=pools(), tilt=tilts(), scale=st.sampled_from([1e-3, 1e-2, 0.1, 1.0]), near_floor=st.booleans())
def test_a_score_move_bounds_the_weight_move(pool, tilt, scale, near_floor):
    assets, positions, rng = pool
    z = rng.standard_t(3, size=(len(positions), len(FACTORS)))
    moved = z + scale * rng.uniform(-1.0, 1.0, size=z.shape)
    floor_z = (tilt.m_min + 1.0001 * tilt.lam * scale - 1.0) / tilt.lam if tilt.lam > 0 else math.inf
    if near_floor and math.isfinite(floor_z):
        # where the bound is tightest: every multiplier just above m_min, and
        # half the scores up, half down by the whole move (about half the
        # bound); a subnormal lam overflows that score, and keeps the random z
        z = np.full_like(z, floor_z)
        moved = z + scale * rng.choice([-1.0, 1.0], size=(len(positions), 1))
    w, _, _ = tilted_block([matrix("d0", assets, positions, z), matrix("d1", assets, positions, moved)], [tilt])
    bound = 2.0 * tilt.lam * np.max(np.abs(moved - z)) / tilt.m_min
    assert np.sum(np.abs(w[1] - w[0])) <= bound + ROUNDING, (tilt, len(positions), scale)



def scale_of(p: np.ndarray, w: np.ndarray, caps: np.ndarray) -> float | None:
    """The projection's scale s read from its result p of w: the largest
    p_i / w_i over the members that hold weight (s on a member that does
    not bind, at most s on one that does), or None when every such member
    sits at its cap, where the result does not fix s."""
    held = w > 0
    if np.array_equal(p[held], np.minimum(caps, 1.0)[held]):
        return None
    return float(np.max(p[held] / w[held]))


@st.composite
def capped_moves(draw):
    """Weights w on 2-60 members, some of which may hold none, a move of
    them to w' = (1 - t) * w + t * u toward other weights u on the same
    holders, and caps whose sum over the holders is 1 + margin: from just
    above 1, where s is large, to 3. Caps above 1 count as 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 60))
    held = np.ones(k, dtype=bool)
    held[rng.permutation(k)[: draw(st.integers(0, k - 1))]] = False
    shape = np.ones(held.sum()) * draw(st.sampled_from([0.3, 1.0, 5.0]))
    w, u = np.zeros(k), np.zeros(k)
    w[held], u[held] = rng.dirichlet(shape), rng.dirichlet(shape)
    t = draw(st.sampled_from([1e-4, 1e-2, 0.1, 1.0]))
    caps = rng.uniform(0.0, 1.0, k)
    caps[held] = rng.dirichlet(np.ones(held.sum())) * (1.0 + draw(st.sampled_from([1e-6, 1e-2, 0.3, 2.0])))
    return w, (1.0 - t) * w + t * u, caps


@SETTINGS
@given(move=capped_moves())
def test_the_caps_scale_a_weight_move_by_at_most_s(move):
    w, moved, caps = move
    block = np.array([w, moved])
    change = np.sum(np.abs(moved - w))
    p, errors = _projected_rows(block.copy(), np.array([caps, caps]))
    assert not errors
    scales = [scale_of(p[i], block[i], caps) for i in (0, 1)]
    if None in scales:
        return  # every member binds: the caps are the result, whatever w is
    assert min(scales) >= 1.0 - ROUNDING
    assert np.sum(np.abs(p[1] - p[0])) <= max(scales) * change + ROUNDING, (scales, change)
