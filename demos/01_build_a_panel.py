"""Build a synthetic market panel, save it to CSV, and load it back.

The panel is the engine's only data structure: aligned date x asset grids of
total-return prices, volumes and market caps, plus as-of fundamental records.
Everything downstream (screens, signals, weights, backtests) reads from it.
"""

import tempfile
from pathlib import Path

from factortilt import ScenarioSpec, generate, load_panel, save_panel
from factortilt.market_data import AsOf

spec = ScenarioSpec(
    seed=7,
    n_assets=8,
    n_days=260,            # about one trading year
    vol=0.012,
    dispersion=0.8,        # cross-sectional spread of drifts and fundamentals
    liquidity_tiers=(1.0, 5.0, 25.0),
    missing_rate=0.03,
)
panel = generate(spec)

print(f"panel: {panel.n_days} trading days x {panel.n_assets} assets")
print(f"calendar: {panel.calendar.days[0]} .. {panel.calendar.days[-1]}")
print(f"missing cells: {panel.missing_counts()}")

t = panel.calendar.days[-1]
print(f"\nas-of quantities at {t} (data strictly before t only):")
snap = AsOf(panel, t, l_adv=21)  # one row per asset: history, ADV over 21 days, ...
for asset in panel.assets[:4]:
    i = panel.position(asset)
    hist, adv = snap.history[i], snap.adv[i]
    print(f"  {asset}: history={hist:4d} days  ADV={adv:,.0f}/day")

with tempfile.TemporaryDirectory() as tmp:
    paths = save_panel(panel, tmp)
    print(f"\nwrote {sorted(p.name for p in Path(tmp).iterdir())}")
    again = load_panel(paths["prices"], paths["volumes"], paths["fundamentals"], paths["mktcap"])
    same = (again.calendar.days == panel.calendar.days) and (again.assets == panel.assets)
    print(f"round trip preserves calendar and assets: {same}")
