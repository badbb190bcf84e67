"""factortilt: rule-based portfolio construction and backtesting.

Eligibility-screened universes, an equal-weight baseline with bounded
multi-factor tilts, liquidity-capped weight projection, counterfactual
baselines, IC/IR factor diagnostics, and robustness-oriented statistics.
"""

__version__ = "0.1.0"

from .backtest import (
    STRATEGIES,
    BacktestConfig,
    BacktestResult,
    run_backtest,
    run_baselines,
    run_factor_removals,
    target_weights,
    turnover_series,
)
from .calibration import (
    CalibrationParams,
    ICSeries,
    build_ic_series,
    ir_to_alpha,
    spearman,
)
from .eligibility import EligibilityParams, EligibilitySet, compute_eligibility
from .errors import (
    ConfigError,
    DataError,
    FactortiltError,
    InfeasibleCapsError,
    StatsError,
)
from .factors import (
    FACTORS,
    FactorMatrix,
    FactorParams,
    build_factor_matrix,
    standardize,
    winsorize,
)
from .market_data import (
    FundamentalRecord,
    MarketPanel,
    RebalanceSchedule,
    TradingCalendar,
    build_schedule,
    censor_panel,
    load_panel,
    parse_panel,
    save_panel,
    truncate_calendar,
)
from .stats import (
    StatsReport,
    annualized_return,
    annualized_vol,
    deflated_sharpe,
    effective_n,
    expected_max_sharpe,
    factor_correlations,
    factor_redundancy,
    max_drawdown,
    newey_west_tstat,
    sharpe_ratio,
    summarize,
    top_k_concentration,
    turnover_adjusted_alpha,
)
from .synthetic import ScenarioSpec, generate
from .weighting import (
    CapParams,
    TiltParams,
    WeightVector,
    bounded_multiplier,
    composite_score,
)
