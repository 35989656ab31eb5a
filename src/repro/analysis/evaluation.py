"""End-to-end evaluation orchestration (the paper's Figure 7 pipeline).

Given a fault-injection campaign, this module performs the 5-fold
cross-validated training/evaluation of the baselines and prediction
models and aggregates the quantities reported in the paper's figures:
average LERT per error, average tested units, prediction accuracies,
and SBIST invocation reductions.

The evaluation is columnar (DESIGN.md §5.19): the campaign is encoded
once as an :class:`~repro.analysis.dataset.ErrorDataset`, each fold
trains with one ``bincount`` and the five strategies run as array
operations.  The record-at-a-time functions remain the specification
it equals bit for bit, random draws included: ``kfold``,
``train_predictor``, ``ReactionStrategy.react``, ``evaluate_strategy``,
``location_accuracy`` and ``type_accuracy``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.predictor import default_unit_order
from ..core.table import (
    OFF_CHIP_ACCESS_CYCLES,
    ON_CHIP_ACCESS_CYCLES,
    PredictionTable,
    build_default_entry,
)
from ..faults.campaign import CampaignResult
from ..reaction.context import ReactionContext, build_context
from ..reaction.lert import StrategyResult, merge_results
from .crossval import fold_indices
from .dataset import ErrorDataset, FoldTable

BASELINE_NAMES = ("base-random", "base-ascending", "base-manifest")
MODEL_NAMES = BASELINE_NAMES + ("pred-location-only", "pred-comb")

#: One fold: its test record indices and the table trained on the rest.
Fold = tuple[np.ndarray, FoldTable]


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
            None predicts the full order (Figure 11 configuration).
        k_folds: cross-validation folds (paper: 5).
        seed: fold shuffling and random-order seed.
        off_chip: place the prediction table off-chip (Section V-B).
        coverage: STL stuck-at coverage (1.0 = the paper's assumption).
    """
    ctx = build_context(result, fine=fine, seed=seed, coverage=coverage)
    data = ErrorDataset.encode(result.records, fine, ctx.restart_cycles)
    return _evaluate(data, _train_folds(data, k_folds, seed), ctx,
                     top_k, off_chip)


def topk_sweep(result: CampaignResult, fine: bool = False,
               k_folds: int = 5, seed: int = 0,
               ks: list[int] | None = None) -> dict[int, EvaluationResult]:
    """Evaluate pred-comb for every top-K width (Figures 12/13/15/16).

    The folds are split and trained once; each K truncates the same
    rankings.  The random stream restarts from ``seed`` for every K,
    as a separate :func:`evaluate_campaign` call would.
    """
    ctx = build_context(result, fine=fine, seed=seed)
    data = ErrorDataset.encode(result.records, fine, ctx.restart_cycles)
    folds = _train_folds(data, k_folds, seed)
    ks = ks if ks is not None else list(range(1, data.n_units + 1))
    return {
        k: _evaluate(data, folds, replace(ctx, rng=np.random.default_rng(seed)),
                     k, off_chip=False)
        for k in ks
    }


def _train_folds(data: ErrorDataset, k_folds: int, seed: int) -> list[Fold]:
    return [(test, data.train(train))
            for train, test in fold_indices(len(data), k_folds, seed)]


def _evaluate(data: ErrorDataset, folds: list[Fold], ctx: ReactionContext,
              top_k: int | None, off_chip: bool) -> EvaluationResult:
    """Evaluate all five models over trained folds.

    Consumes ``ctx.rng`` exactly as the specification does: fold by
    fold, then model by model in :data:`MODEL_NAMES` order, then record
    by record.
    """
    n_units = data.n_units
    default_entry = build_default_entry(default_unit_order(data.fine), top_k)
    width = len(default_entry.units)
    entry_bits = PredictionTable([], default_entry, n_units).entry_bits
    access = OFF_CHIP_ACCESS_CYCLES if off_chip else ON_CHIP_ACCESS_CYCLES
    sbist = _Sbist(ctx)
    fixed_orders = {
        "base-ascending": sbist.ids(ctx.stl.ascending_order()),
        "base-manifest": sbist.ids(ctx.manifest_order),
    }

    per_model: dict[str, list[StrategyResult]] = {name: [] for name in MODEL_NAMES}
    # Accuracy hits and counts, pooled over the folds.
    pooled: Counter = Counter()
    table_bytes = 0.0
    invocations = {"pred-location-only": 0.0, "pred-comb": 0.0}

    for test, table in folds:
        n = len(test)
        unit, hard = data.unit_id[test], data.hard[test]
        latency, restart = data.latency[test], data.restart[test]
        sets = data.set_id[test]
        ranking, pred_hard = table.ranking[sets], table.hard[sets]
        table_bytes = max(table_bytes,
                          (int(np.count_nonzero(table.present)) + 1) * entry_bits / 8)
        everyone = np.ones(n, dtype=bool)

        # base-random: a fresh permutation of every unit per error.
        perms, found = sbist.draw(n, n_units, hard)
        results = [_means("base-random", *sbist.run(perms, found, unit, restart), everyone)]
        # base-ascending, base-manifest: one fixed order, nothing permuted.
        for name, order in fixed_orders.items():
            _, found = sbist.draw(n, 0, hard)
            orders = np.broadcast_to(order, (n, n_units))
            results.append(_means(name, *sbist.run(orders, found, unit, restart), everyone))
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

        in_order = np.argmax(ranking == unit[:, None], axis=1) < width
        pooled.update(located=np.count_nonzero(in_order & hard),
                      hard=np.count_nonzero(hard),
                      soft=np.count_nonzero(~hard),
                      hard_right=np.count_nonzero(hard & pred_hard),
                      soft_right=np.count_nonzero(~hard & ~pred_hard))

    right = pooled["soft_right"] + pooled["hard_right"]
    type_acc = {"soft": _ratio(pooled["soft_right"], pooled["soft"]),
                "hard": _ratio(pooled["hard_right"], pooled["hard"]),
                "overall": _ratio(right, pooled["soft"] + pooled["hard"])}
    loc_inv = invocations["pred-location-only"]
    reduction = 1.0 - invocations["pred-comb"] / loc_inv if loc_inv else 0.0

    return EvaluationResult(
        strategies={name: merge_results(parts) for name, parts in per_model.items()},
        location_accuracy=_ratio(pooled["located"], pooled["hard"]),
        type_accuracy=type_acc,
        n_diverged_sets=len(data.sets),
        table_bytes=table_bytes,
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

    The draw methods consume ``ctx.rng`` in the specification's order:
    per error, ``permutation(width)`` for its random tail, then at
    coverage below 1.0 one ``random()`` if the error is hard (its STL
    is reached before the run ends).  ``Generator.permuted`` over a
    tiled ``arange`` draws bit-identically to one ``permutation`` call
    per row, so at full coverage a whole fold draws at once.
    """

    def __init__(self, ctx: ReactionContext):
        self.rng = ctx.rng
        self.coverage = ctx.stl.coverage
        self.units = ctx.stl.units
        self.latency = np.array([ctx.stl.latency(u) for u in self.units])

    def ids(self, order: tuple[str, ...]) -> np.ndarray:
        """Unit ids of a named unit order."""
        return np.array([self.units.index(u) for u in order])

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

