"""Shared context for error reaction strategies."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bist.stl import StlModel
from ..faults.campaign import CampaignResult
from ..faults.models import ErrorRecord
from ..faults.stats import manifestation_rates

#: Cycles to reset the lockstep CPUs and re-synchronise their state
#: before the real-time task restarts.
RESET_PENALTY_CYCLES = 500


@dataclass
class ReactionContext:
    """Everything a reaction strategy needs besides the error itself.

    Attributes:
        stl: the STL latency model for the active taxonomy.
        fine: taxonomy selector (must match the STL model).
        restart_cycles: per-benchmark restart latency — CPU reset plus
            re-running the task's outer loop (paper Table II, from
            measurement).
        manifest_order: units in descending error manifestation rate,
            for the base-manifest strategy.
        rng: randomness source for base-random and truncated-order
            completion.
    """

    stl: StlModel
    fine: bool
    restart_cycles: dict[str, int]
    manifest_order: tuple[str, ...]
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def restart(self, record: ErrorRecord) -> int:
        """Restart latency for the benchmark the error occurred in."""
        return self.restart_cycles[record.benchmark]


def manifestation_order(result: CampaignResult, fine: bool) -> tuple[str, ...]:
    """Units sorted by descending error manifestation rate.

    The rate is a design-time property of the CPU (measured over the
    whole campaign, every fault class together), which is exactly what
    the paper's base-manifest strategy assumes is known.
    """
    rates = manifestation_rates(result, None, fine)
    return tuple(sorted(rates, key=lambda u: -rates[u]))


def build_context(result: CampaignResult, fine: bool = False,
                  seed: int = 0, coverage: float = 1.0) -> ReactionContext:
    """Construct the standard reaction context from a campaign."""
    return ReactionContext(
        stl=StlModel(fine=fine, coverage=coverage),
        fine=fine,
        restart_cycles={
            bench: RESET_PENALTY_CYCLES + cycles
            for bench, cycles in result.golden_cycles.items()
        },
        manifest_order=manifestation_order(result, fine),
        rng=np.random.default_rng(seed),
    )
