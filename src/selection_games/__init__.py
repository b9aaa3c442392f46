"""Two-player competitive selection games on [0, 1] laws.

Equilibrium payoff computation (with and without recall), exact payoff-set
enumeration for finite-support laws, efficiency ratios, and Monte-Carlo
verification.
"""

from .distributions import (
    DensityPiece,
    ValueDistribution,
    discrete,
    mixture_with_uniform,
    parse_spec,
    piecewise_poly,
    point_mass,
    two_point,
    uniform,
)
from .efficiency import RatioReport, ratios, tightness_family, two_arrival_closed_forms
from .errors import (
    DegenerateDistributionError,
    InconsistencyError,
    ResourceBudgetError,
    SelectionGamesError,
    SpecValidationError,
    UnsupportedDistributionError,
)
from .full_recall import FullRecallBand, GridConfig, band, closed_forms, lh_values
from .no_recall import (
    NoRecallSummary,
    no_recall_sequence,
    no_recall_summary,
    uniform_no_recall_closed,
)
from .oracle import DiscreteSPEPSet, oracle_spep, oracle_summaries
from .prophet import FeasibleSumSequence, ProphetSequence, max_feasible_sum, prophet_values
from .simulate import (
    SimulationReport,
    Strategy,
    StrategyProfile,
    best_response_gap,
    play,
    spe_gap,
    spe_strategy,
)
from .stage_games import (
    StageGameFR,
    StageGameNR,
    StageGameOutcome,
    solve_fr_stage,
    solve_nr_stage,
    stage_value,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
