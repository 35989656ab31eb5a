"""LERT evaluation: average reaction time per error, per strategy."""

from __future__ import annotations

from dataclasses import dataclass

from ..faults.models import ErrorRecord
from .context import ReactionContext
from .strategies import ReactionStrategy


@dataclass(frozen=True)
class StrategyResult:
    """Aggregate performance of one strategy over a test error set.

    These are the quantities annotated on the paper's Figures 11/14:
    the average LERT per error (bar height and parenthesised number)
    and the average number of tested units (first red number).
    """

    name: str
    mean_lert: float
    mean_tested_units: float
    sbist_invocation_rate: float
    n_errors: int

    def speedup_vs(self, other: "StrategyResult") -> float:
        """Fractional LERT reduction relative to ``other`` (paper's %)."""
        if other.mean_lert == 0:
            return 0.0
        return 1.0 - self.mean_lert / other.mean_lert


def evaluate_strategy(strategy: ReactionStrategy, records: list[ErrorRecord],
                      ctx: ReactionContext) -> StrategyResult:
    """Average a strategy's reaction over a test error dataset."""
    if not records:
        return StrategyResult(strategy.name, 0.0, 0.0, 0.0, 0)
    total_lert = 0
    total_tested = 0
    invoked = 0
    for record in records:
        reaction = strategy.react(record, ctx)
        total_lert += reaction.lert
        total_tested += reaction.tested_units
        invoked += reaction.sbist_invoked
    n = len(records)
    return StrategyResult(
        name=strategy.name,
        mean_lert=total_lert / n,
        mean_tested_units=total_tested / n,
        sbist_invocation_rate=invoked / n,
        n_errors=n,
    )


def merge_results(parts: list[StrategyResult]) -> StrategyResult:
    """Error-count-weighted merge across cross-validation folds."""
    parts = [p for p in parts if p.n_errors]
    if not parts:
        return StrategyResult("empty", 0.0, 0.0, 0.0, 0)
    n = sum(p.n_errors for p in parts)
    return StrategyResult(
        name=parts[0].name,
        mean_lert=sum(p.mean_lert * p.n_errors for p in parts) / n,
        mean_tested_units=sum(p.mean_tested_units * p.n_errors for p in parts) / n,
        sbist_invocation_rate=sum(p.sbist_invocation_rate * p.n_errors for p in parts) / n,
        n_errors=n,
    )
