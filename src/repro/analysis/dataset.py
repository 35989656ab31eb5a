"""Columnar error dataset: a campaign's errors encoded once as arrays.

Cross-validated evaluation (Figure 7) trains a predictor per fold and
replays every test error through five reaction strategies.  Done one
:class:`ErrorRecord` at a time that is most of a paper regeneration, so
:class:`ErrorDataset` encodes the records once per taxonomy as integer
columns and :meth:`ErrorDataset.train` trains a fold with one
``np.bincount`` over (diverged set, unit).

The record-at-a-time functions stay the specification:
:func:`~repro.core.predictor.train_predictor` is what
:meth:`ErrorDataset.train` must equal, entry for entry, and
:func:`~repro.reaction.context.manifestation_order` what
:meth:`ErrorDataset.manifestation_order` must equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, is_not

import numpy as np

from ..core.predictor import default_unit_order
from ..core.signatures import DivergedSet
from ..cpu.units import coarse_unit
from ..faults.models import ErrorRecord, FaultKind


@dataclass(frozen=True)
class FoldTable:
    """One fold's trained prediction table, one row per diverged set.

    A set never seen in training keeps an all-zero histogram, which
    ranks to the default unit order and predicts hard: exactly the
    catch-all entry.

    Attributes:
        ranking: ``(n_sets, n_units)`` unit ids, most likely first (the
            full order; a top-K table is its first K columns).
        hard: the entry's error type bit.
        present: whether the set was seen in training (has an entry).
    """

    ranking: np.ndarray
    hard: np.ndarray
    present: np.ndarray


@dataclass(frozen=True)
class ErrorDataset:
    """An error dataset as columns, one row per record.

    Attributes:
        fine: taxonomy of ``unit_id``.
        sets: the distinct diverged SC sets, in the canonical
            ``(len, sorted)`` order of ``SignatureStats.diverged_sets``.
        set_id: index into ``sets`` of each record's diverged set.
        unit_id: index of the originating unit in
            :func:`~repro.core.predictor.default_unit_order`.
        hard: ground-truth hard (stuck-at) error.
        latency: error manifestation time in cycles.
        restart: restart cycles of the record's benchmark.
    """

    fine: bool
    sets: tuple[DivergedSet, ...]
    set_id: np.ndarray
    unit_id: np.ndarray
    hard: np.ndarray
    latency: np.ndarray
    restart: np.ndarray

    @classmethod
    def encode(cls, records: list[ErrorRecord], fine: bool,
               restart_cycles: dict[str, int]) -> "ErrorDataset":
        """Encode ``records``; ``restart_cycles`` maps benchmark -> cycles.

        Each column is one pass of C-level iterators over the records
        (an ``attrgetter`` mapped through a dict lookup into
        ``np.fromiter``): no per-record Python frame and no row tuples.
        """
        n = len(records)

        def column(field: str, lookup=None, dtype=np.int64) -> np.ndarray:
            values = map(attrgetter(field), records)
            if lookup is not None:
                values = map(lookup, values)
            return np.fromiter(values, dtype=dtype, count=n)

        sets = tuple(sorted(set(map(attrgetter("diverged"), records)),
                            key=lambda s: (len(s), sorted(s))))
        set_index = {key: i for i, key in enumerate(sets)}
        unit_index = {u: i for i, u in enumerate(default_unit_order(fine))}
        # A hard error is a fault kind that is not SOFT (FaultKind.is_hard).
        hard = np.fromiter(map(is_not, map(attrgetter("kind"), records),
                               repeat(FaultKind.SOFT)), dtype=bool, count=n)
        return cls(
            fine=fine,
            sets=sets,
            set_id=column("diverged", set_index.__getitem__),
            unit_id=column("flop.unit" if fine else "flop.coarse",
                           unit_index.__getitem__),
            hard=hard,
            latency=column("detect_cycle") - column("inject_cycle"),
            restart=column("benchmark", restart_cycles.__getitem__),
        )

    def __len__(self) -> int:
        return len(self.set_id)

    @property
    def n_units(self) -> int:
        """Units in this taxonomy."""
        return len(default_unit_order(self.fine))

    def manifestation_order(self, injected: dict[tuple[str, str], int]
                            ) -> tuple[str, ...]:
        """Units by descending manifestation rate, ties in default order.

        ``injected`` is ``CampaignResult.injected`` ((fine unit, kind) ->
        faults).  This is :func:`~repro.reaction.context.manifestation_order`
        with the errors per unit counted by one ``bincount`` of
        ``unit_id`` instead of a walk over the records: the same
        quotients (0 for a unit with no injections), sorted the same way.
        """
        units = default_unit_order(self.fine)
        tried = dict.fromkeys(units, 0)
        for (unit, _kind), count in injected.items():
            tried[unit if self.fine else coarse_unit(unit)] += count
        errors = np.bincount(self.unit_id, minlength=len(units)).tolist()
        rates = {u: e / tried[u] if tried[u] else 0.0 for u, e in zip(units, errors)}
        return tuple(sorted(rates, key=lambda u: -rates[u]))

    def train(self, index: np.ndarray) -> FoldTable:
        """Train the full-order table on the records at ``index``.

        Units rank by descending count, ties in default order: a stable
        argsort of the negated counts is ``rank_units``' rule, because
        every unit's score in a set shares one denominator.  The type
        bit is ``hard >= soft``, ``type_bit``'s tie rule.
        """
        n_sets, n_units = len(self.sets), self.n_units
        sets = self.set_id[index]
        counts = np.bincount(sets * n_units + self.unit_id[index],
                             minlength=n_sets * n_units).reshape(n_sets, n_units)
        totals = counts.sum(axis=1)
        n_hard = np.bincount(sets[self.hard[index]], minlength=n_sets)
        return FoldTable(
            ranking=np.argsort(-counts, axis=1, kind="stable"),
            hard=n_hard >= totals - n_hard,
            present=totals > 0,
        )
