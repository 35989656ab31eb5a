"""Campaign statistics: the material of the paper's Table I.

Manifestation *rate* of a unit = manifested errors / injected faults
in that unit; manifestation *time* = cycles from fault occurrence to
lockstep detection.  Both are reported per fault class with the
[min, mean, max] spread over units, exactly like Table I.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..cpu.units import COARSE_UNITS, FINE_UNITS, coarse_unit
from .campaign import CampaignResult
from .models import ErrorType


@dataclass(frozen=True)
class Spread:
    """A [min, mean, max] summary over units."""

    minimum: float
    mean: float
    maximum: float

    def as_row(self, fmt: str = "{:.1f}") -> str:
        """Render like the paper's Table I cells."""
        return (f"[{fmt.format(self.minimum)}, {fmt.format(self.mean)}, "
                f"{fmt.format(self.maximum)}]")


def _spread(values: list[float]) -> Spread:
    if not values:
        return Spread(0.0, 0.0, 0.0)
    return Spread(min(values), sum(values) / len(values), max(values))


def manifestation_rates(result: CampaignResult, error_type: ErrorType | None,
                        fine: bool = False) -> dict[str, float]:
    """Per-unit manifestation rate (errors / injections) for a class.

    ``error_type=None`` counts every fault, whatever its class.
    """
    units = FINE_UNITS if fine else COARSE_UNITS
    hard = error_type is ErrorType.HARD
    injected = Counter()
    for (unit, kind), count in result.injected.items():
        if error_type is None or (kind != "soft") == hard:
            injected[unit if fine else coarse_unit(unit)] += count
    manifested = Counter(record.unit_for(fine) for record in result.records
                         if error_type is None or record.error_type is error_type)
    return {u: (manifested[u] / injected[u] if injected[u] else 0.0) for u in units}


def rate_spread(result: CampaignResult, error_type: ErrorType,
                fine: bool = False) -> Spread:
    """[min, mean, max] manifestation rate across units."""
    rates = manifestation_rates(result, error_type, fine)
    return _spread([r for r in rates.values() if r > 0] or list(rates.values()))


def time_spread(result: CampaignResult, error_type: ErrorType) -> Spread:
    """[min, mean, max] manifestation time across all errors of a class."""
    latencies = [float(r.latency) for r in result.records if r.error_type is error_type]
    return _spread(latencies)


def mean_detection_time(result: CampaignResult) -> float:
    """Average manifestation time over every error (paper: ~1300 cycles)."""
    if not result.records:
        return 0.0
    return sum(r.latency for r in result.records) / len(result.records)


def diverged_set_size_ratio(result: CampaignResult) -> float:
    """Mean diverged-SC count of hard errors over that of soft errors.

    The paper reports 54% more diverged SCs for hard errors than soft
    errors at detection time (Section III-B); this is that measurement.
    """
    hard = [len(r.diverged) for r in result.records if r.error_type is ErrorType.HARD]
    soft = [len(r.diverged) for r in result.records if r.error_type is ErrorType.SOFT]
    if not hard or not soft:
        return 0.0
    return (sum(hard) / len(hard)) / (sum(soft) / len(soft))


def table1(result: CampaignResult) -> dict[str, Spread]:
    """The four rows of the paper's Table I."""
    return {
        "Soft Error Manifestation Rate": rate_spread(result, ErrorType.SOFT),
        "Hard Error Manifestation Rate": rate_spread(result, ErrorType.HARD),
        "Soft Error Manifestation Time": time_spread(result, ErrorType.SOFT),
        "Hard Error Manifestation Time": time_spread(result, ErrorType.HARD),
    }
