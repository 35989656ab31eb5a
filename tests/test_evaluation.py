"""End-to-end evaluation orchestration tests on real mini-campaigns.

``tests/golden/evaluation_medium.json`` pins every
:class:`EvaluationResult` field (floats as ``float.hex()``) on the
``medium_campaign`` fixture.  Regenerate it, only when that campaign's
records or the evaluation's definition change, with
``PYTHONPATH=src python -m tests.test_evaluation``.
"""

import dataclasses
import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    MODEL_NAMES,
    ErrorDataset,
    EvaluationResult,
    evaluate_campaign,
    fold_indices,
    kfold,
    topk_sweep,
)
from repro.core import (
    ErrorCorrelationPredictor,
    SignatureStats,
    default_unit_order,
    location_accuracy,
    train_predictor,
    type_accuracy,
)
from repro.cpu import FlopRef
from repro.cpu.units import FINE_UNITS, REGISTRY
from repro.faults import CampaignConfig, CampaignResult, ErrorRecord, ErrorType, FaultKind
from repro.reaction import (
    PredCombined,
    PredLocationOnly,
    ReactionStrategy,
    StrategyResult,
    baseline_strategies,
    build_context,
    evaluate_strategy,
    merge_results,
)

GOLDEN = Path(__file__).parent / "golden" / "evaluation_medium.json"


def _golden_cases() -> dict:
    """Case name -> (evaluation function, keyword arguments)."""
    cases = {}
    for fine in (False, True):
        tax = "fine" if fine else "coarse"
        for seed in (0, 3):
            cases[f"{tax}-full-seed{seed}"] = (evaluate_campaign, {"fine": fine, "seed": seed})
            cases[f"{tax}-topk-seed{seed}"] = (topk_sweep, {"fine": fine, "seed": seed})
        cases[f"{tax}-offchip-seed0"] = (
            evaluate_campaign, {"fine": fine, "seed": 0, "off_chip": True})
        cases[f"{tax}-coverage0.6-seed0"] = (
            evaluate_campaign, {"fine": fine, "seed": 0, "coverage": 0.6})
    return cases


GOLDEN_CASES = _golden_cases()


def _exact(value):
    """A JSON-able image of ``value`` that compares equal only if every
    float is bit-identical (floats become ``float.hex()`` strings)."""
    if dataclasses.is_dataclass(value):
        return _exact(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _exact(item) for key, item in value.items()}
    if isinstance(value, float):
        return value.hex()
    return value


def _golden_document(campaign) -> dict:
    return {
        "campaign_digest": campaign.digest(),
        "cases": {name: _exact(fn(campaign, **kwargs))
                  for name, (fn, kwargs) in GOLDEN_CASES.items()},
    }


@pytest.fixture(scope="module")
def evaluation(medium_campaign):
    return evaluate_campaign(medium_campaign, seed=0)


class TestEvaluationStructure:
    def test_all_five_models_present(self, evaluation):
        assert set(MODEL_NAMES) <= set(evaluation.strategies)

    def test_every_error_evaluated_once(self, medium_campaign, evaluation):
        for result in evaluation.strategies.values():
            assert result.n_errors == medium_campaign.n_errors

    def test_accuracies_bounded(self, evaluation):
        assert 0.0 <= evaluation.location_accuracy <= 1.0
        for value in evaluation.type_accuracy.values():
            assert 0.0 <= value <= 1.0

    def test_table_size_positive(self, evaluation):
        assert evaluation.table_bytes > 0
        assert evaluation.n_diverged_sets > 10


class TestPaperShape:
    """The qualitative results of Figure 11 must hold on any healthy
    campaign: the predictor models beat every baseline."""

    def test_pred_comb_is_best(self, evaluation):
        best = min(evaluation.strategies.values(), key=lambda s: s.mean_lert)
        assert best.name == "pred-comb"

    def test_pred_location_only_beats_baselines(self, evaluation):
        pred = evaluation.strategies["pred-location-only"].mean_lert
        for base in ("base-random", "base-ascending", "base-manifest"):
            assert pred < evaluation.strategies[base].mean_lert

    def test_pred_comb_tests_fewest_units(self, evaluation):
        tested = {name: s.mean_tested_units
                  for name, s in evaluation.strategies.items()}
        assert tested["pred-comb"] == min(tested.values())

    def test_pred_comb_skips_some_sbist(self, evaluation):
        assert evaluation.strategies["pred-comb"].sbist_invocation_rate < 1.0
        for base in ("base-random", "base-ascending", "base-manifest"):
            assert evaluation.strategies[base].sbist_invocation_rate == 1.0
        assert evaluation.sbist_reduction > 0.0

    def test_type_prediction_beats_chance(self, evaluation):
        assert evaluation.type_accuracy["overall"] > 0.5

    def test_full_order_location_accuracy_is_one(self, evaluation):
        assert evaluation.location_accuracy == 1.0


class TestPlacement:
    def test_off_chip_overhead_negligible(self, medium_campaign):
        """Section V-B: moving the table off-chip costs ~0.05% LERT."""
        on = evaluate_campaign(medium_campaign, seed=0)
        off = evaluate_campaign(medium_campaign, seed=0, off_chip=True)
        for model in ("pred-location-only", "pred-comb"):
            a = on.strategies[model].mean_lert
            b = off.strategies[model].mean_lert
            assert b >= a
            assert (b - a) / a < 0.005


class TestTopKSweep:
    @pytest.fixture(scope="class")
    def sweep(self, medium_campaign):
        return topk_sweep(medium_campaign, ks=[1, 3, 5, 7], seed=0)

    def test_accuracy_monotone_in_k(self, sweep):
        accs = [sweep[k].location_accuracy for k in sorted(sweep)]
        assert all(b >= a - 1e-9 for a, b in zip(accs, accs[1:]))

    def test_full_k_reaches_one(self, sweep):
        assert sweep[7].location_accuracy == 1.0

    def test_lert_improves_with_k(self, sweep):
        """More predicted units can only help until saturation."""
        lerts = [sweep[k].strategies["pred-comb"].mean_lert for k in sorted(sweep)]
        assert lerts[-1] <= lerts[0]


class TestFineTaxonomy:
    def test_fine_evaluation_runs(self, medium_campaign):
        ev = evaluate_campaign(medium_campaign, fine=True, seed=0)
        assert ev.strategies["pred-comb"].mean_lert > 0
        best = min(ev.strategies.values(), key=lambda s: s.mean_lert)
        assert best.name == "pred-comb"

    def test_fine_beats_coarse_for_prediction_models(self, medium_campaign):
        """Section V-D: finer granularity improves prediction-model LERT
        (shorter sub-STLs localise the fault more cheaply)."""
        coarse = evaluate_campaign(medium_campaign, seed=0)
        fine = evaluate_campaign(medium_campaign, fine=True, seed=0)
        assert (fine.strategies["pred-comb"].mean_lert
                < coarse.strategies["pred-comb"].mean_lert)


class TestCoverageAblation:
    def test_reduced_coverage_increases_lert(self, medium_campaign):
        """With <100% STL coverage some hard faults escape diagnosis,
        forcing restarts — LERT can only get worse."""
        full = evaluate_campaign(medium_campaign, seed=0)
        partial = evaluate_campaign(medium_campaign, seed=0, coverage=0.6)
        assert (partial.strategies["base-ascending"].mean_lert
                >= full.strategies["base-ascending"].mean_lert)


# -- the specification: the record-at-a-time Figure 7 pipeline ------------------

def oracle_evaluation(result: CampaignResult, fine: bool = False,
                      top_k: int | None = None, k_folds: int = 5, seed: int = 0,
                      off_chip: bool = False, coverage: float = 1.0) -> EvaluationResult:
    """Cross-validated evaluation one error record at a time.

    This is how ``evaluate_campaign`` worked before it became columnar,
    built only from the specification functions; the columnar
    evaluator must equal it field for field, floats included.
    """
    records = result.records
    ctx = build_context(result, fine=fine, seed=seed, coverage=coverage)

    per_model: dict[str, list[StrategyResult]] = {}
    # Accuracy hits and counts, pooled over the folds; each fold's hits
    # are its accuracy times its count, rounded back to an integer.
    pooled: Counter = Counter()
    table_bytes = 0.0
    invocations = {"pred-location-only": 0.0, "pred-comb": 0.0}

    for train, test in kfold(records, k=k_folds, seed=seed):
        predictor = train_predictor(train, fine=fine, top_k=top_k)
        if off_chip:
            predictor = ErrorCorrelationPredictor(
                predictor.table.placed(off_chip=True), fine)
        table_bytes = max(table_bytes, predictor.table.size_bytes)

        models: list[ReactionStrategy] = list(baseline_strategies())
        models.append(PredLocationOnly(predictor))
        models.append(PredCombined(predictor))

        for model in models:
            fold_result = evaluate_strategy(model, test, ctx)
            per_model.setdefault(model.name, []).append(fold_result)
            if model.name in invocations:
                invocations[model.name] += (
                    fold_result.sbist_invocation_rate * fold_result.n_errors)

        n_hard = sum(r.error_type is ErrorType.HARD for r in test)
        n_soft = len(test) - n_hard
        accuracy = type_accuracy(predictor, test)
        pooled.update(located=round(location_accuracy(predictor, test) * n_hard),
                      hard=n_hard, soft=n_soft,
                      hard_right=round(accuracy["hard"] * n_hard),
                      soft_right=round(accuracy["soft"] * n_soft))

    def ratio(hits: int, total: int) -> float:
        return hits / total if total else 0.0

    loc_acc = ratio(pooled["located"], pooled["hard"])
    type_acc = {"soft": ratio(pooled["soft_right"], pooled["soft"]),
                "hard": ratio(pooled["hard_right"], pooled["hard"]),
                "overall": ratio(pooled["soft_right"] + pooled["hard_right"],
                                 pooled["soft"] + pooled["hard"])}
    loc_inv = invocations["pred-location-only"]
    reduction = 1.0 - invocations["pred-comb"] / loc_inv if loc_inv else 0.0

    return EvaluationResult(
        strategies={name: merge_results(parts) for name, parts in per_model.items()},
        location_accuracy=loc_acc,
        type_accuracy=type_acc,
        n_diverged_sets=len({r.diverged for r in records}),
        table_bytes=table_bytes,
        sbist_reduction=reduction,
    )


#: One register owned by each fine unit, to address synthetic faults.
UNIT_REGISTER = {unit: next(spec.name for spec in REGISTRY if spec.unit == unit)
                 for unit in FINE_UNITS}


@st.composite
def campaigns(draw) -> CampaignResult:
    """Small synthetic campaigns over a pool of diverged SC sets.

    The pool is drawn independently of the record count, so some sets
    occur once and reach a test fold unseen in training (the catch-all
    entry).  A third of the campaigns are all soft or all hard.
    """
    benchmarks = [f"bench{i}" for i in range(draw(st.integers(1, 3)))]
    pool = draw(st.lists(st.frozensets(st.integers(0, 11), min_size=1, max_size=4),
                         min_size=1, max_size=25, unique=True))
    kinds = {"mixed": list(FaultKind), "soft": [FaultKind.SOFT],
             "hard": [FaultKind.STUCK0, FaultKind.STUCK1]}[
        draw(st.sampled_from(["mixed", "soft", "hard"]))]
    records = []
    for _ in range(draw(st.integers(6, 60))):
        inject = draw(st.integers(0, 5000))
        records.append(ErrorRecord(
            benchmark=draw(st.sampled_from(benchmarks)),
            flop=FlopRef(UNIT_REGISTER[draw(st.sampled_from(FINE_UNITS))], 0),
            kind=draw(st.sampled_from(kinds)),
            inject_cycle=inject,
            detect_cycle=inject + draw(st.integers(1, 3000)),
            diverged=draw(st.sampled_from(pool)),
        ))
    injected = {(unit, kind.value): draw(st.integers(0, 40))
                for unit in FINE_UNITS for kind in FaultKind}
    return CampaignResult(
        config=CampaignConfig(benchmarks=tuple(benchmarks)),
        records=records,
        injected=injected,
        golden_cycles={b: draw(st.integers(1, 200_000)) for b in benchmarks},
        sampled_flops={},
    )


coverages = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


class TestMatchesSpecification:
    """The columnar evaluator equals the record-at-a-time pipeline."""

    @given(result=campaigns(), fine=st.booleans(), data=st.data(),
           off_chip=st.booleans(), coverage=coverages,
           k_folds=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_evaluate_campaign(self, result, fine, data, off_chip, coverage,
                               k_folds, seed):
        n_units = len(default_unit_order(fine))
        top_k = data.draw(st.one_of(st.none(), st.integers(1, n_units + 1)))
        kwargs = dict(fine=fine, top_k=top_k, k_folds=k_folds, seed=seed,
                      off_chip=off_chip, coverage=coverage)
        assert evaluate_campaign(result, **kwargs) == oracle_evaluation(result, **kwargs)

    @given(result=campaigns(), fine=st.booleans(), data=st.data(),
           k_folds=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_topk_sweep(self, result, fine, data, k_folds, seed):
        n_units = len(default_unit_order(fine))
        ks = data.draw(st.lists(st.integers(1, n_units + 1), min_size=1, max_size=4))
        sweep = topk_sweep(result, fine=fine, k_folds=k_folds, seed=seed, ks=ks)
        assert sweep == {k: oracle_evaluation(result, fine=fine, top_k=k,
                                              k_folds=k_folds, seed=seed)
                         for k in ks}

    @pytest.mark.parametrize("k_folds, n_records", [(1, 10), (0, 10), (5, 4)])
    def test_same_fold_errors(self, medium_campaign, k_folds, n_records):
        result = CampaignResult(
            config=medium_campaign.config,
            records=medium_campaign.records[:n_records],
            injected=medium_campaign.injected,
            golden_cycles=medium_campaign.golden_cycles,
            sampled_flops=medium_campaign.sampled_flops)
        with pytest.raises(ValueError) as expected:
            oracle_evaluation(result, k_folds=k_folds)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            evaluate_campaign(result, k_folds=k_folds)

    @pytest.mark.parametrize("fine", [False, True])
    def test_fold_tables_equal_train_predictor(self, medium_campaign, fine):
        records = medium_campaign.records
        data = ErrorDataset.encode(records, fine, build_context(medium_campaign).restart_cycles)
        assert list(data.sets) == SignatureStats.from_records(records, fine).diverged_sets
        units = default_unit_order(fine)
        for train, _test in fold_indices(len(records), k=5, seed=0):
            table = data.train(train)
            train_records = [records[i] for i in train]
            assert not table.present.all()  # some sets reach the catch-all
            for top_k in (None, 1, 3, len(units)):
                predictor = train_predictor(train_records, fine=fine, top_k=top_k)
                width = len(units) if top_k is None else top_k
                for i, key in enumerate(data.sets):
                    entry = predictor.table.lookup(key)
                    assert entry.units == tuple(units[u] for u in table.ranking[i][:width])
                    assert entry.predict_hard == table.hard[i]
                    assert table.present[i] == (
                        predictor.table.mapper.map(key) < len(predictor.table.entries))

    def test_dataset_columns(self, medium_campaign):
        ctx = build_context(medium_campaign, fine=True)
        data = ErrorDataset.encode(medium_campaign.records, True, ctx.restart_cycles)
        units = default_unit_order(True)
        assert len(data) == medium_campaign.n_errors
        for i, r in enumerate(medium_campaign.records):
            assert data.sets[data.set_id[i]] == r.diverged
            assert units[data.unit_id[i]] == r.unit
            assert data.hard[i] == r.kind.is_hard
            assert data.latency[i] == r.latency
            assert data.restart[i] == ctx.restart(r)


class TestGolden:
    """Every field of every pinned evaluation, bit for bit."""

    @pytest.fixture(scope="class")
    def golden(self, medium_campaign):
        document = json.loads(GOLDEN.read_text())
        digest = medium_campaign.digest()
        if document["campaign_digest"] != digest:
            pytest.fail(
                f"medium_campaign's records changed (digest {digest}, golden "
                f"{document['campaign_digest']}): the golden evaluations no "
                f"longer apply; regenerate them with "
                f"`PYTHONPATH=src python -m tests.test_evaluation`")
        return document["cases"]

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_matches_golden(self, case, golden, medium_campaign):
        fn, kwargs = GOLDEN_CASES[case]
        assert _exact(fn(medium_campaign, **kwargs)) == golden[case]


if __name__ == "__main__":
    from repro.faults import run_campaign
    from tests.conftest import MEDIUM_CONFIG

    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_golden_document(run_campaign(MEDIUM_CONFIG)),
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
