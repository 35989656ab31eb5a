"""Diverged-SC-set signature statistics.

The heart of the paper's observation (Section III-A): for each CPU
unit, the histogram of diverged signal-category sets — collected over
all errors whose fault originated in that unit — forms a *signature*.
If signatures differ between units, the error's origin is predictable
from the DSR alone; if soft and hard signatures differ, so is its type.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from ..faults.models import ErrorRecord, ErrorType

#: A diverged SC set is a frozen set of SC indices (DSR bit positions).
DivergedSet = frozenset


@dataclass
class SignatureStats:
    """Histograms over diverged SC sets, per unit and per error type.

    Every Section III statistic reads these three histograms; none
    needs the records they were counted from.  Keys keep the order in
    which the records first showed them, which breaks ties where a
    figure ranks units or sets.

    Attributes:
        fine: whether units follow the 13-unit taxonomy.
        set_unit_counts: diverged set -> unit -> error count.
        set_type_counts: diverged set -> error type -> count.
        unit_type_sets: (unit, error type) -> diverged set -> error
            count, the per-unit histograms of Figs 4/5.
    """

    fine: bool = False
    set_unit_counts: dict[DivergedSet, Counter] = field(
        default_factory=lambda: defaultdict(Counter))
    set_type_counts: dict[DivergedSet, Counter] = field(
        default_factory=lambda: defaultdict(Counter))
    unit_type_sets: dict[tuple[str, ErrorType], Counter] = field(
        default_factory=lambda: defaultdict(Counter))

    @classmethod
    def from_records(cls, records: list[ErrorRecord], fine: bool = False) -> "SignatureStats":
        """Accumulate signature statistics from an error dataset."""
        stats = cls(fine=fine)
        for record in records:
            stats.add(record)
        return stats

    def add(self, record: ErrorRecord) -> None:
        """Add one error to the histograms."""
        key = record.diverged
        unit = record.unit_for(self.fine)
        etype = record.error_type
        self.set_unit_counts[key][unit] += 1
        self.set_type_counts[key][etype] += 1
        self.unit_type_sets[unit, etype][key] += 1

    # -- distributions --------------------------------------------------------

    @property
    def units(self) -> list[str]:
        """Units with at least one error, in first-seen order."""
        return list(dict.fromkeys(unit for unit, _ in self.unit_type_sets))

    @property
    def diverged_sets(self) -> list[DivergedSet]:
        """All distinct diverged SC sets, in a canonical order."""
        return sorted(self.set_unit_counts, key=lambda s: (len(s), sorted(s)))

    def n_sets(self) -> int:
        """Number of distinct diverged SC sets (paper: ~1200)."""
        return len(self.set_unit_counts)

    def unit_distribution(self, unit: str, error_type: ErrorType | None = None,
                          ) -> dict[DivergedSet, float]:
        """P(diverged set | fault in ``unit`` [, error type]).

        This is the per-unit probability distribution plotted in the
        paper's Figures 4 and 5; ``error_type`` restricts it to that
        class.
        """
        if error_type is None:
            counts = {
                key: units[unit]
                for key, units in self.set_unit_counts.items()
                if units[unit]
            }
        else:
            counts = self.unit_type_sets.get((unit, error_type), {})
        total = sum(counts.values())
        if not total:
            return {}
        return {key: count / total for key, count in counts.items()}

    def set_probabilities(self, key: DivergedSet) -> dict[str, float]:
        """P(unit | diverged set): the per-entry location scores (Fig 10a)."""
        units = self.set_unit_counts.get(key)
        if not units:
            return {}
        total = sum(units.values())
        return {unit: count / total for unit, count in units.items()}

    def type_probabilities(self, key: DivergedSet) -> dict[ErrorType, float]:
        """P(error type | diverged set): the per-entry type scores."""
        types = self.set_type_counts.get(key)
        if not types:
            return {}
        total = sum(types.values())
        return {etype: count / total for etype, count in types.items()}
