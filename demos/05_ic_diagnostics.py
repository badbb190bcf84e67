"""Optional IC/IR diagnostics: how predictive is each factor, after the fact?

For each factor and rebalance date, the information coefficient is the
Spearman rank correlation between the factor's z-scores and realized forward
returns. IC series aggregate into information ratios, which map to a convex
factor mixture. This never feeds the headline backtest unless explicitly
applied; it is a lens, not a knob. Note the forward window starts at the
rebalance date, so it overlaps the holding period.
"""

from factortilt import (
    BacktestConfig,
    CalibrationParams,
    EligibilityParams,
    ScenarioSpec,
    build_ic_series,
    build_schedule,
    generate,
    ir_to_alpha,
)
from factortilt.backtest import pool_matrices, pool_positions, snapshot
from factortilt.calibration import information_ratio

# momentum is constructed to predict forward returns; value/quality are noise
panel = generate(ScenarioSpec(seed=11, n_assets=25, n_days=1100, vol=0.01,
                              dispersion=0.9, ic_target=0.7))
cal = panel.calendar
schedule = build_schedule(cal, cal.days[280], cal.days[-1],
                          anchors=((1, 1), (4, 1), (7, 1), (10, 1)))
config = BacktestConfig(eligibility=EligibilityParams(h_min=252, adv_min=0.0, l_adv=63))
snaps = [snapshot(panel, t, config) for t in schedule.dates]
snaps = [snap for snap in snaps if pool_positions(snap, "dmft", config).size]  # dates with members
matrices = {snap.t: m for snap, m in zip(snaps, pool_matrices(snaps, "dmft", config))}

params = CalibrationParams(horizon=63, m_min=3, min_universe=5)
series = build_ic_series(panel, schedule, matrices, params)

print("factor  #ICs   mean IC   IR")
for factor, s in sorted(series.items()):
    ir = information_ratio(s.values, params.m_min)  # mean / population std
    print(f"{factor:<7}{len(s):>5}{s.values.mean():>10.3f}{ir:>7.2f}")

alpha = ir_to_alpha(series, params.m_min)
print("\nIR-implied mixture weights (negative IRs clip to zero):")
for factor in sorted(alpha):
    print(f"  {factor}: {alpha[factor]:.3f}")
print(f"  sum: {sum(alpha.values()):.12f}")
