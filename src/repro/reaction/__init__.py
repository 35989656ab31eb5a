"""Error reaction: strategies, context, and LERT evaluation."""

from .context import (
    RESET_PENALTY_CYCLES,
    ReactionContext,
    build_context,
    manifestation_order,
)
from .lert import StrategyResult, evaluate_strategy, merge_results
from .system_controller import (
    AvailabilityModel,
    DeadlineViolation,
    ReactionLogEntry,
    SystemController,
    SystemState,
)
from .strategies import (
    BaseAscending,
    BaseManifest,
    BaseRandom,
    PredCombined,
    PredLocationOnly,
    Reaction,
    ReactionStrategy,
    baseline_strategies,
)

__all__ = [
    "RESET_PENALTY_CYCLES", "ReactionContext", "build_context", "manifestation_order",
    "StrategyResult", "evaluate_strategy", "merge_results",
    "BaseAscending", "BaseManifest", "BaseRandom", "PredCombined",
    "PredLocationOnly", "Reaction", "ReactionStrategy", "baseline_strategies",
    "AvailabilityModel", "DeadlineViolation", "ReactionLogEntry",
    "SystemController", "SystemState",
]
