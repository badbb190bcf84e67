"""One rebalance date end to end: eligibility screens, factor z-scores,
bounded multiplicative tilts, and the final weight vector.

The weighting never estimates returns or covariances: it perturbs an
equal-weight baseline multiplicatively inside hard bounds, so no asset can
dominate no matter how extreme its signals are.
"""

import numpy as np

from factortilt import (
    BacktestConfig,
    EligibilityParams,
    ScenarioSpec,
    TiltParams,
    build_schedule,
    generate,
)
from factortilt.backtest import pool_matrices, pool_positions, snapshot
from factortilt.weighting import tilted_block

panel = generate(ScenarioSpec(seed=11, n_assets=12, n_days=600, vol=0.01,
                              dispersion=0.9, ic_target=0.4,
                              liquidity_tiers=(1.0, 10.0)))
schedule = build_schedule(panel.calendar, panel.calendar.days[300], panel.calendar.days[-1])
t = schedule.dates[0]
print(f"rebalance date: {t}")

# the as-of snapshot holds every screen and signal row at t, measured before t
config = BacktestConfig(eligibility=EligibilityParams(h_min=252, adv_min=5_000_000.0, l_adv=63))
snap = snapshot(panel, t, config)
positions = pool_positions(snap, "dmft", config)  # the screened members
print(f"\neligible universe ({len(positions)} of {panel.n_assets}):")
for i, asset in enumerate(panel.assets):
    flag = "in " if i in positions else "out"
    print(f"  {flag} {asset}: history={snap.history[i]:4d}  ADV={snap.adv[i]:,.0f}")

matrix = pool_matrices([snap], "dmft", config)[0]  # one row per member, in position order
tilt = TiltParams(alpha={"MOM": 0.5, "VAL": 0.25, "QUAL": 0.25}, lam=0.5,
                  m_min=0.5, m_max=1.5)
# one weight row per (matrix, tilt): this tilt, and lam = 0 for comparison
(weights, flat), _, _ = tilted_block([matrix], [tilt, TiltParams(lam=0.0)])

print("\nasset   z(MOM)  z(VAL) z(QUAL)   weight  vs 1/N")
ew = 1.0 / len(positions)
for i, asset in enumerate(matrix.assets):
    w = weights[positions[i]]
    zs = "  ".join(f"{matrix.z[i, j]:+.2f}" for j in range(3))
    print(f"  {asset}  {zs}   {w:.4f}  {w / ew:+.2f}x")

print(f"\nsum of weights: {weights.sum():.12f}")
print(f"max weight bound (m_max/m_min)/N = {(1.5 / 0.5) / len(positions):.4f}, "
      f"realized max = {weights.max():.4f}")
print("with lam = 0 the tilt disappears and the baseline comes back exactly:")
print(f"  all weights equal 1/N: {np.all(flat[flat > 0] == ew)}")
