"""Liquidity-weighted caps and the capped projection.

Small-cap universes need per-asset weight ceilings tied to tradable volume.
Caps scale with each asset's dollar volume relative to the universe median;
each weight becomes min(cap, s * w), with s the one scale at which the
weights sum to 1 -- where clipping breaching weight and handing it
proportionally to the uncapped rest, until every cap holds, ends.
"""

import numpy as np

from factortilt import CapParams, InfeasibleCapsError
from factortilt.weighting import cap_values, project_onto_caps

assets = ("thin", "small", "mid", "large", "mega")
advs = np.array([0.2e6, 0.8e6, 2e6, 8e6, 40e6])

params = CapParams(c_max=0.35, kappa=0.25, gamma=0.5)
caps = cap_values(advs, params)
print("cap_i = min(c_max, kappa * (ADV_i / median ADV)^gamma):")
for a, adv, cap in zip(assets, advs, caps):
    print(f"  {a:>6}: ADV={adv / 1e6:5.1f}M  cap={cap:.3f}")

raw = np.array([0.30, 0.25, 0.20, 0.15, 0.10])
print(f"\nraw tilted weights:      {np.round(raw, 4)}")
projected = project_onto_caps(raw, caps)
print(f"after the projection:    {np.round(projected, 4)}")
print(f"caps respected: {bool(np.all(projected <= caps + 1e-12))}")
print(f"still fully invested: sum = {projected.sum():.12f}")

ratio_before = raw[3] / raw[4]
ratio_after = projected[3] / projected[4]
print(f"never-capped assets keep proportions: {ratio_before:.4f} -> {ratio_after:.4f}")

print("\ncaps that cannot hold a full allocation are rejected up front:")
tight = np.full(len(assets), 0.15)  # sums to 0.75 < 1
try:
    project_onto_caps(raw, tight)
except InfeasibleCapsError as exc:
    print(f"  InfeasibleCapsError: {exc}")
