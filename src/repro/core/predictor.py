"""The static lockstep error correlation predictor.

Training (paper Section IV-C.2): over the training errors, build per-
diverged-SC-set histograms of originating units and of error types;
normalise into probability scores; populate the prediction table with
units in descending score order plus the majority type bit.

Prediction: on a lockstep error, the DSR value addresses the table via
the PTAR; the entry yields the SBIST unit test order and the type hint.
A never-observed DSR hits the catch-all entry: hard error, default
order — so a cold predictor degrades exactly to the baseline and never
compromises safety.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu.units import COARSE_UNITS, FINE_UNITS
from ..faults.models import ErrorRecord, ErrorType
from .signatures import DivergedSet, SignatureStats
from .table import (
    PredictionTable,
    TableEntry,
    build_default_entry,
    rank_units,
    type_bit,
)


@dataclass(frozen=True)
class Prediction:
    """The predictor's answer for one detected error."""

    units: tuple[str, ...]
    error_type: ErrorType
    #: True when the DSR was never seen in training (catch-all entry).
    from_default: bool


def default_unit_order(fine: bool) -> tuple[str, ...]:
    """The canonical (documentation) order of CPU units."""
    return tuple(FINE_UNITS) if fine else tuple(COARSE_UNITS)


class ErrorCorrelationPredictor:
    """Static predictor over a trained :class:`PredictionTable`."""

    def __init__(self, table: PredictionTable, fine: bool):
        self.table = table
        self.fine = fine

    @property
    def access_cycles(self) -> int:
        """Prediction table access latency (placement-dependent)."""
        return self.table.access_cycles

    def predict(self, diverged: DivergedSet) -> Prediction:
        """Predict unit order and error type from a diverged SC set."""
        entry = self.table.lookup(diverged)
        etype = ErrorType.HARD if entry.predict_hard else ErrorType.SOFT
        return Prediction(units=entry.units, error_type=etype,
                          from_default=entry is self.table.default_entry)

    def predict_record(self, record: ErrorRecord) -> Prediction:
        """Convenience: predict from an error record's DSR."""
        return self.predict(record.diverged)


def train_predictor(records: list[ErrorRecord], fine: bool = False,
                    top_k: int | None = None,
                    stats: SignatureStats | None = None) -> ErrorCorrelationPredictor:
    """Train a static predictor from an error dataset.

    Args:
        records: training errors (from the fault-injection campaign).
        fine: use the 13-unit taxonomy instead of the coarse 7-unit one.
        top_k: store only the K most likely units per entry (paper
            Section V-C); None stores the full unit order.
        stats: pre-computed signature statistics, if available.
    """
    stats = stats if stats is not None else SignatureStats.from_records(records, fine)
    order = default_unit_order(fine)
    entries: list[tuple[DivergedSet, TableEntry]] = []
    for key in stats.diverged_sets:
        scores = stats.set_probabilities(key)
        entry = TableEntry(
            units=rank_units(scores, order, top_k),
            predict_hard=type_bit(stats.type_probabilities(key)),
        )
        entries.append((key, entry))
    table = PredictionTable(
        entries=entries,
        default_entry=build_default_entry(order, top_k),
        n_units=len(order),
    )
    return ErrorCorrelationPredictor(table, fine)


class DynamicPredictor(ErrorCorrelationPredictor):
    """A dynamic variant that updates its table from field feedback.

    The paper's Discussion (Section VII) notes that the table *could*
    be updated with error history, branch-predictor style, but argues
    errors are too rare for history to beat static training.  This
    class implements that variant for the ablation study: after each
    diagnosed error, :meth:`update` folds the confirmed (unit, type)
    back into the histograms and re-ranks the affected entry.
    """

    def __init__(self, table: PredictionTable, fine: bool,
                 stats: SignatureStats, top_k: int | None):
        super().__init__(table, fine)
        self._stats = stats
        self._top_k = top_k

    @classmethod
    def train(cls, records: list[ErrorRecord], fine: bool = False,
              top_k: int | None = None) -> "DynamicPredictor":
        """Train like the static predictor but keep histograms live."""
        stats = SignatureStats.from_records(records, fine)
        static = train_predictor(records, fine, top_k, stats=stats)
        return cls(static.table, fine, stats, top_k)

    def update(self, record: ErrorRecord) -> None:
        """Fold one diagnosed error back into the prediction table."""
        self._stats.add(record)
        key = record.diverged
        order = default_unit_order(self.fine)
        entry = TableEntry(
            units=rank_units(self._stats.set_probabilities(key), order, self._top_k),
            predict_hard=type_bit(self._stats.type_probabilities(key)),
        )
        index = self.table.mapper.map(key)
        if index >= len(self.table.entries):
            # A genuinely new DSR value: grow the table (hardware would
            # need a spare entry pool; the ablation allows it).
            self.table.mapper._index[key] = len(self.table.entries)
            self.table.mapper.default_index += 1
            self.table.entries.append(entry)
        else:
            self.table.entries[index] = entry


def location_accuracy(predictor: ErrorCorrelationPredictor,
                      records: list[ErrorRecord]) -> float:
    """P(faulty unit is in the predicted unit list) over hard errors.

    This is the paper's location prediction accuracy (Figs 12 and 15):
    the probability of finding the faulty unit among the predicted
    units, evaluated on errors whose ground truth is hard (location
    only matters when a stuck-at is actually present).
    """
    hard = [r for r in records if r.error_type is ErrorType.HARD]
    if not hard:
        return 0.0
    hits = sum(
        1 for r in hard
        if r.unit_for(predictor.fine) in predictor.predict_record(r).units
    )
    return hits / len(hard)


def type_accuracy(predictor: ErrorCorrelationPredictor,
                  records: list[ErrorRecord]) -> dict[str, float]:
    """Soft/hard/overall type prediction accuracy (paper Table III)."""
    correct = {ErrorType.SOFT: 0, ErrorType.HARD: 0}
    totals = {ErrorType.SOFT: 0, ErrorType.HARD: 0}
    for record in records:
        truth = record.error_type
        totals[truth] += 1
        if predictor.predict_record(record).error_type is truth:
            correct[truth] += 1
    overall_total = sum(totals.values())
    overall_correct = sum(correct.values())
    return {
        "soft": correct[ErrorType.SOFT] / totals[ErrorType.SOFT] if totals[ErrorType.SOFT] else 0.0,
        "hard": correct[ErrorType.HARD] / totals[ErrorType.HARD] if totals[ErrorType.HARD] else 0.0,
        "overall": overall_correct / overall_total if overall_total else 0.0,
    }
