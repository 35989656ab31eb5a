"""End-to-end evaluation orchestration (the paper's Figure 7 pipeline).

Given a fault-injection campaign, this module performs the 5-fold
cross-validated training/evaluation of the baselines and prediction
models and aggregates the quantities reported in the paper's figures:
average LERT per error, average tested units, prediction accuracies,
and SBIST invocation reductions.

The evaluation is columnar (DESIGN.md §5.19): the campaign is encoded
once as an :class:`~repro.analysis.dataset.ErrorDataset`, each fold
trains with one ``bincount`` and the five strategies run as array
operations.  Each fold's work that no top-K width changes is done once
(:class:`_CrossValidation`), so a Top-K sweep pays per K only for the
random draws and the SBIST runs that use them.  The record-at-a-time
functions remain the specification it equals bit for bit, random draws
included: ``kfold``, ``train_predictor``, ``ReactionStrategy.react``,
``evaluate_strategy``, ``location_accuracy``, ``type_accuracy`` and
``manifestation_order``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..bist.stl import StlModel
from ..core.predictor import default_unit_order
from ..core.table import (
    OFF_CHIP_ACCESS_CYCLES,
    ON_CHIP_ACCESS_CYCLES,
    PredictionTable,
    build_default_entry,
    check_top_k,
)
from ..faults.campaign import CampaignResult
from ..reaction.context import restart_cycles
from ..reaction.lert import StrategyResult, merge_results
from .crossval import fold_indices
from .dataset import ErrorDataset, FoldTable

BASELINE_NAMES = ("base-random", "base-ascending", "base-manifest")
MODEL_NAMES = BASELINE_NAMES + ("pred-location-only", "pred-comb")


@dataclass
class EvaluationResult:
    """Cross-validated evaluation of all five models.

    Attributes:
        strategies: model name -> aggregated LERT statistics.
        location_accuracy: P(faulty unit in predicted list), hard errors.
        type_accuracy: soft/hard/overall type prediction accuracy.
        n_diverged_sets: distinct diverged SC sets in the full dataset.
        table_bytes: prediction table storage (worst-case entry width).
        sbist_reduction: fraction of SBIST invocations avoided by
            pred-comb relative to pred-location-only.
    """

    strategies: dict[str, StrategyResult] = field(default_factory=dict)
    location_accuracy: float = 0.0
    type_accuracy: dict[str, float] = field(default_factory=dict)
    n_diverged_sets: int = 0
    table_bytes: float = 0.0
    sbist_reduction: float = 0.0

    def speedup(self, model: str, reference: str) -> float:
        """Fractional LERT reduction of ``model`` vs ``reference``."""
        return self.strategies[model].speedup_vs(self.strategies[reference])


def evaluate_campaign(result: CampaignResult, fine: bool = False,
                      top_k: int | None = None, k_folds: int = 5,
                      seed: int = 0, off_chip: bool = False,
                      coverage: float = 1.0) -> EvaluationResult:
    """Run the full cross-validated evaluation on a campaign.

    Args:
        result: the fault-injection campaign output.
        fine: evaluate on the 13-unit taxonomy (paper Section V-D).
        top_k: truncate predictions to the top-K units (Section V-C);
            None predicts the full order (Figure 11 configuration).  A
            K below 1 raises ``ValueError``.
        k_folds: cross-validation folds (paper: 5).
        seed: fold shuffling and random-order seed.
        off_chip: place the prediction table off-chip (Section V-B).
        coverage: STL stuck-at coverage (1.0 = the paper's assumption).
    """
    check_top_k(top_k)
    return _CrossValidation(result, fine, k_folds, seed, coverage).evaluate(
        top_k, off_chip)


def topk_sweep(result: CampaignResult, fine: bool = False,
               k_folds: int = 5, seed: int = 0,
               ks: list[int] | None = None) -> dict[int, EvaluationResult]:
    """Evaluate pred-comb for every top-K width (Figures 12/13/15/16).

    The folds are split, trained and scored once: each K does only the
    work that depends on it.  The random stream restarts from ``seed``
    for every K, as a separate :func:`evaluate_campaign` call would.
    Every K must be at least 1.
    """
    ks = ks if ks is not None else list(range(1, len(default_unit_order(fine)) + 1))
    for k in ks:
        check_top_k(k)
    folds = _CrossValidation(result, fine, k_folds, seed)
    return {k: folds.evaluate(k) for k in ks}


@dataclass(frozen=True)
class _Fold:
    """One fold: its test record indices, the table trained on the rest,
    and, at full STL coverage, its base-ascending and base-manifest
    results (which draw nothing there, so every K shares them)."""

    test: np.ndarray
    table: FoldTable
    fixed: list[StrategyResult]


class _CrossValidation:
    """A campaign encoded, split, trained and scored once for any top-K.

    What no top-K width changes is computed here: the encoded dataset,
    the manifestation order, every fold's table, the fixed-order
    baselines at full coverage, the type-accuracy counts, the most
    table entries a fold has, and how many hard errors rank their
    faulty unit at each position of the full ranking (a top-K table
    locates those ranked below K).  :meth:`evaluate` does the rest.
    """

    def __init__(self, result: CampaignResult, fine: bool, k_folds: int,
                 seed: int, coverage: float = 1.0):
        self.data = data = ErrorDataset.encode(result.records, fine,
                                               restart_cycles(result))
        self.seed = seed
        self.stl = stl = StlModel(fine=fine, coverage=coverage)
        self.fixed_orders = {
            "base-ascending": _FixedOrder(stl, stl.ascending_order()),
            "base-manifest": _FixedOrder(
                stl, data.manifestation_order(result.injected)),
        }
        n_units = data.n_units
        hard_at = np.zeros(n_units, dtype=np.int64)
        self.folds: list[_Fold] = []
        #: the most entries (sets seen in training) a fold's table has.
        self.max_entries = 0
        pooled: Counter = Counter()
        for train, test in fold_indices(len(data), k_folds, seed):
            table = data.train(train)
            unit, hard, sets = data.unit_id[test], data.hard[test], data.set_id[test]
            pred_hard = table.hard[sets]
            rank = np.argmax(table.ranking[sets] == unit[:, None], axis=1)
            hard_at += np.bincount(rank[hard], minlength=n_units)
            pooled.update(hard=np.count_nonzero(hard),
                          soft=np.count_nonzero(~hard),
                          hard_right=np.count_nonzero(hard & pred_hard),
                          soft_right=np.count_nonzero(~hard & ~pred_hard))
            self.max_entries = max(self.max_entries, int(np.count_nonzero(table.present)))
            fixed = self._fixed(test, [hard] * len(self.fixed_orders)) \
                if stl.coverage >= 1.0 else []
            self.folds.append(_Fold(test, table, fixed))
        #: hard errors located by a table of width w: ``located[w - 1]``.
        self.located = np.cumsum(hard_at)
        self.n_hard = pooled["hard"]
        right = pooled["soft_right"] + pooled["hard_right"]
        self.type_accuracy = {
            "soft": _ratio(pooled["soft_right"], pooled["soft"]),
            "hard": _ratio(pooled["hard_right"], pooled["hard"]),
            "overall": _ratio(right, pooled["soft"] + pooled["hard"])}

    def _fixed(self, test: np.ndarray, found: list[np.ndarray]) -> list[StrategyResult]:
        """The fixed-order baselines on one test slice; ``found[i]``
        says which errors the i-th order's STLs catch."""
        unit, restart = self.data.unit_id[test], self.data.restart[test]
        everyone = np.ones(len(test), dtype=bool)
        return [_means(name, *order.run(caught, unit, restart), everyone)
                for (name, order), caught in zip(self.fixed_orders.items(), found)]

    def evaluate(self, top_k: int | None, off_chip: bool = False) -> EvaluationResult:
        """All five models at one top-K width.

        Consumes a fresh ``default_rng(seed)`` as the specification
        does: fold by fold, then model by model in
        :data:`MODEL_NAMES` order, then record by record.
        """
        data = self.data
        n_units = data.n_units
        default_entry = build_default_entry(default_unit_order(data.fine), top_k)
        width = len(default_entry.units)
        entry_bits = PredictionTable([], default_entry, n_units).entry_bits
        access = OFF_CHIP_ACCESS_CYCLES if off_chip else ON_CHIP_ACCESS_CYCLES
        sbist = _Sbist(self.stl, np.random.default_rng(self.seed))

        per_model: dict[str, list[StrategyResult]] = {name: [] for name in MODEL_NAMES}
        invocations = {"pred-location-only": 0.0, "pred-comb": 0.0}

        for fold in self.folds:
            test = fold.test
            n = len(test)
            unit, hard = data.unit_id[test], data.hard[test]
            latency, restart = data.latency[test], data.restart[test]
            sets = data.set_id[test]
            ranking, pred_hard = fold.table.ranking[sets], fold.table.hard[sets]
            everyone = np.ones(n, dtype=bool)

            # base-random: a fresh permutation of every unit per error.
            perms, found = sbist.draw(n, n_units, hard)
            results = [_means("base-random", *sbist.run(perms, found, unit, restart), everyone)]
            # base-ascending, base-manifest: one fixed order, nothing
            # permuted; below full coverage each draws its STL escapes.
            results += fold.fixed or self._fixed(
                test, [sbist.draw(n, 0, hard)[1] for _ in self.fixed_orders])
            # pred-location-only: the predicted units, then the rest at random.
            orders, found = sbist.complete(ranking, width, hard)
            lert, tested = sbist.run(orders, found, unit, restart)
            results.append(_means("pred-location-only", access + lert, tested, everyone))
            # pred-comb: a predicted-soft error restarts; a truly hard one
            # recurs (its latency and a second table read) and then runs
            # SBIST like a predicted-hard one.  Only the SBIST runs draw.
            runs = pred_hard | hard
            orders, found = sbist.complete(ranking[runs], width, hard[runs])
            lert_runs, tested_runs = sbist.run(orders, found, unit[runs], restart[runs])
            lert = access + np.where(pred_hard, 0, restart + np.where(hard, latency + access, 0))
            lert[runs] += lert_runs
            tested = np.zeros(n, dtype=np.int64)
            tested[runs] = tested_runs
            results.append(_means("pred-comb", lert, tested, runs))

            for part in results:
                per_model[part.name].append(part)
                if part.name in invocations:
                    invocations[part.name] += part.sbist_invocation_rate * part.n_errors

        loc_inv = invocations["pred-location-only"]
        reduction = 1.0 - invocations["pred-comb"] / loc_inv if loc_inv else 0.0

        return EvaluationResult(
            strategies={name: merge_results(parts) for name, parts in per_model.items()},
            location_accuracy=_ratio(self.located[width - 1], self.n_hard),
            type_accuracy=dict(self.type_accuracy),
            n_diverged_sets=len(data.sets),
            table_bytes=(self.max_entries + 1) * entry_bits / 8,  # + catch-all
            sbist_reduction=reduction,
        )


def _means(name: str, lert: np.ndarray, tested: np.ndarray,
           invoked: np.ndarray) -> StrategyResult:
    """``evaluate_strategy``'s averages over one fold's errors."""
    n = len(lert)
    return StrategyResult(name, int(lert.sum()) / n, int(tested.sum()) / n,
                          int(np.count_nonzero(invoked)) / n, n)


def _ratio(hits, total) -> float:
    return int(hits) / int(total) if total else 0.0


class _Sbist:
    """``SbistEngine`` over rows of unit-id orders, one row per error.

    The draw methods consume ``rng`` in the specification's order:
    per error, ``permutation(width)`` for its random tail, then at
    coverage below 1.0 one ``random()`` if the error is hard (its STL
    is reached before the run ends).  ``Generator.permuted`` over a
    tiled ``arange`` draws bit-identically to one ``permutation`` call
    per row, so at full coverage a whole fold draws at once.
    """

    def __init__(self, stl: StlModel, rng: np.random.Generator):
        self.rng = rng
        self.coverage = stl.coverage
        self.latency = np.array([stl.latency(u) for u in stl.units])

    def draw(self, rows: int, width: int,
             hard: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row permutations of ``range(width)`` and which hard
        errors the STL catches."""
        if self.coverage >= 1.0:
            return self.rng.permuted(np.tile(np.arange(width), (rows, 1)), axis=1), hard
        caught = np.zeros(rows, dtype=bool)
        if width == 0:  # no permutations to interleave with
            caught[hard] = self.rng.random(np.count_nonzero(hard)) < self.coverage
            return np.empty((rows, 0), dtype=np.int64), caught
        # Each hard error's random() follows its own permutation.
        perms = np.empty((rows, width), dtype=np.int64)
        for i in range(rows):
            perms[i] = self.rng.permutation(width)
            if hard[i]:
                caught[i] = self.rng.random() < self.coverage
        return perms, caught

    def complete(self, ranking: np.ndarray, width: int,
                 hard: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``complete_order``: the first ``width`` ranked units, then the
        others (in canonical order) randomly permuted."""
        rest = np.sort(ranking[:, width:], axis=1)
        tail, found = self.draw(len(ranking), rest.shape[1], hard)
        return np.hstack([ranking[:, :width], np.take_along_axis(rest, tail, axis=1)]), found

    def run(self, orders: np.ndarray, found: np.ndarray, faulty: np.ndarray,
            restart: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """LERT and STLs run per error, as ``_run_sbist`` without its
        ``extra``: the STLs up to ``faulty`` when it is ``found``, else
        every STL plus the restart (soft errors and coverage escapes)."""
        cost = np.cumsum(self.latency[orders], axis=1)
        at = np.argmax(orders == faulty[:, None], axis=1)
        lert = np.where(found, cost[np.arange(len(orders)), at], cost[:, -1] + restart)
        return lert, np.where(found, at + 1, orders.shape[1])


class _FixedOrder:
    """One SBIST order for every error, scored by lookup.

    An error whose faulty unit is found costs the order's latency prefix
    sum at that unit's rank, and tests ``rank + 1`` units; any other
    runs every STL and restarts.  That is :meth:`_Sbist.run` on the
    order broadcast to every row, without the ``n x U`` cumsum.
    """

    def __init__(self, stl: StlModel, order: tuple[str, ...]):
        self.rank = np.array([order.index(u) for u in stl.units])
        self.cost = np.cumsum([stl.latency(u) for u in order])

    def run(self, found: np.ndarray, faulty: np.ndarray,
            restart: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = self.rank[faulty]
        lert = np.where(found, self.cost[at], self.cost[-1] + restart)
        return lert, np.where(found, at + 1, len(self.cost))
