"""Reaction strategy LERT arithmetic tests (hand-computed expectations)."""

import numpy as np
import pytest

from repro.bist import StlModel
from repro.core import train_predictor
from repro.cpu import FlopRef
from repro.faults import ErrorRecord, FaultKind
from repro.reaction import (
    BaseAscending,
    BaseManifest,
    BaseRandom,
    PredCombined,
    PredLocationOnly,
    ReactionContext,
    baseline_strategies,
    evaluate_strategy,
    merge_results,
)

RESTART = 2_000


def rec(reg, kind, diverged, detect=30):
    return ErrorRecord(benchmark="ttsprk", flop=FlopRef(reg, 0), kind=kind,
                       inject_cycle=10, detect_cycle=detect,
                       diverged=frozenset(diverged))


@pytest.fixture
def ctx():
    stl = StlModel()
    return ReactionContext(
        stl=stl,
        fine=False,
        restart_cycles={"ttsprk": RESTART},
        manifest_order=tuple(stl.units),
        rng=np.random.default_rng(0),
    )


@pytest.fixture
def predictor():
    # Set {1} is PFU + hard; set {6} is LSU + soft.
    training = [
        rec("pc", FaultKind.STUCK1, {1}),
        rec("pc", FaultKind.STUCK0, {1}),
        rec("lsu_addr", FaultKind.SOFT, {6}),
        rec("lsu_addr", FaultKind.SOFT, {6}),
    ]
    return train_predictor(training)


class TestBaselines:
    def test_ascending_hard_error_cost(self, ctx):
        stl = ctx.stl
        order = stl.ascending_order()
        faulty = order[1]
        reg = {"IMC": "imc_addr", "PFU": "pc", "LSU": "lsu_addr", "BIU": "bus_addr",
               "DMC": "dmc_addr", "SCU": "status", "DPU": "rf1"}[faulty]
        record = rec(reg, FaultKind.STUCK1, {1})
        reaction = BaseAscending().react(record, ctx)
        assert reaction.lert == stl.latency(order[0]) + stl.latency(order[1])
        assert reaction.tested_units == 2
        assert reaction.diagnosed_hard

    def test_soft_error_costs_full_sbist_plus_restart(self, ctx):
        record = rec("pc", FaultKind.SOFT, {1})
        for strategy in baseline_strategies():
            reaction = strategy.react(record, ctx)
            assert reaction.lert == ctx.stl.total_latency() + RESTART
            assert not reaction.diagnosed_hard

    def test_manifest_order_used(self, ctx):
        ctx = ReactionContext(ctx.stl, False, ctx.restart_cycles,
                              manifest_order=("DPU",) + tuple(
                                  u for u in ctx.stl.units if u != "DPU"),
                              rng=np.random.default_rng(0))
        record = rec("rf1", FaultKind.STUCK1, {1})  # DPU fault
        reaction = BaseManifest().react(record, ctx)
        assert reaction.tested_units == 1
        assert reaction.lert == ctx.stl.latency("DPU")

    def test_random_order_varies(self, ctx):
        record = rec("rf1", FaultKind.STUCK1, {1})
        tested = {BaseRandom().react(record, ctx).tested_units for _ in range(20)}
        assert len(tested) > 1


class TestPredLocationOnly:
    def test_hard_error_in_predicted_first_unit(self, ctx, predictor):
        record = rec("pc", FaultKind.STUCK1, {1})  # PFU fault, PFU-first entry
        reaction = PredLocationOnly(predictor).react(record, ctx)
        assert reaction.tested_units == 1
        assert reaction.lert == predictor.access_cycles + ctx.stl.latency("PFU")

    def test_soft_error_same_as_baseline_plus_access(self, ctx, predictor):
        record = rec("lsu_addr", FaultKind.SOFT, {1})
        reaction = PredLocationOnly(predictor).react(record, ctx)
        assert reaction.lert == (predictor.access_cycles
                                 + ctx.stl.total_latency() + RESTART)

    def test_unseen_dsr_degrades_to_default_order(self, ctx, predictor):
        record = rec("status", FaultKind.STUCK1, {50})  # SCU, unknown DSR
        reaction = PredLocationOnly(predictor).react(record, ctx)
        default = predictor.predict(frozenset({50})).units
        expected = sum(ctx.stl.latency(u)
                       for u in default[: default.index("SCU") + 1])
        assert reaction.lert == predictor.access_cycles + expected


class TestPredCombined:
    def test_correct_soft_prediction_skips_sbist(self, ctx, predictor):
        record = rec("lsu_addr", FaultKind.SOFT, {6})
        reaction = PredCombined(predictor).react(record, ctx)
        assert not reaction.sbist_invoked
        assert reaction.tested_units == 0
        assert reaction.lert == predictor.access_cycles + RESTART

    def test_hard_predicted_hard_runs_sbist(self, ctx, predictor):
        record = rec("pc", FaultKind.STUCK1, {1})
        reaction = PredCombined(predictor).react(record, ctx)
        assert reaction.sbist_invoked
        assert reaction.lert == predictor.access_cycles + ctx.stl.latency("PFU")

    def test_soft_predicted_hard_pays_sbist_then_restart(self, ctx, predictor):
        record = rec("pc", FaultKind.SOFT, {1})  # DSR says hard
        reaction = PredCombined(predictor).react(record, ctx)
        assert reaction.sbist_invoked
        assert reaction.lert == (predictor.access_cycles
                                 + ctx.stl.total_latency() + RESTART)

    def test_hard_predicted_soft_recurs_and_diagnoses(self, ctx, predictor):
        record = rec("lsu_addr", FaultKind.STUCK1, {6}, detect=40)
        reaction = PredCombined(predictor).react(record, ctx)
        assert reaction.sbist_invoked
        assert reaction.diagnosed_hard
        # restart + re-manifestation (latency=30) + two table reads +
        # SBIST finding LSU first in the predicted order.
        expected = (predictor.access_cycles + RESTART + 30
                    + predictor.access_cycles + ctx.stl.latency("LSU"))
        assert reaction.lert == expected

    def test_misprediction_never_worse_than_worst_case_baseline(self, ctx, predictor):
        """The paper's safety argument: even a mispredicted-soft hard
        error costs no more than the worst baseline unit order."""
        record = rec("lsu_addr", FaultKind.STUCK1, {6}, detect=40)
        reaction = PredCombined(predictor).react(record, ctx)
        worst_baseline = ctx.stl.total_latency()  # fault found in last unit
        assert reaction.lert <= worst_baseline


class TestEvaluation:
    def test_evaluate_strategy_averages(self, ctx, predictor):
        records = [rec("pc", FaultKind.STUCK1, {1}),
                   rec("lsu_addr", FaultKind.SOFT, {6})]
        result = evaluate_strategy(PredCombined(predictor), records, ctx)
        assert result.n_errors == 2
        assert result.sbist_invocation_rate == 0.5
        hard_lert = predictor.access_cycles + ctx.stl.latency("PFU")
        soft_lert = predictor.access_cycles + RESTART
        assert result.mean_lert == (hard_lert + soft_lert) / 2

    def test_speedup_vs(self, ctx, predictor):
        records = [rec("pc", FaultKind.STUCK1, {1})]
        ascending = evaluate_strategy(BaseAscending(), records, ctx)
        predicted = evaluate_strategy(PredLocationOnly(predictor), records, ctx)
        speedup = predicted.speedup_vs(ascending)
        assert 0.0 < speedup < 1.0

    def test_merge_results_weighted(self):
        from repro.reaction import StrategyResult
        a = StrategyResult("m", mean_lert=100.0, mean_tested_units=1.0,
                           sbist_invocation_rate=1.0, n_errors=1)
        b = StrategyResult("m", mean_lert=300.0, mean_tested_units=3.0,
                           sbist_invocation_rate=0.0, n_errors=3)
        merged = merge_results([a, b])
        assert merged.mean_lert == 250.0
        assert merged.mean_tested_units == 2.5
        assert merged.n_errors == 4

    def test_empty_records(self, ctx, predictor):
        result = evaluate_strategy(PredCombined(predictor), [], ctx)
        assert result.n_errors == 0
        assert result.mean_lert == 0.0
