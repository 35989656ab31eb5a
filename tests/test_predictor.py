"""Predictor training, table and accuracy tests."""

import pytest

from repro.core import (
    DynamicPredictor,
    SignatureStats,
    default_unit_order,
    location_accuracy,
    rank_units,
    train_predictor,
    type_accuracy,
    type_bit,
)
from repro.cpu import FlopRef
from repro.faults import ErrorRecord, ErrorType, FaultKind


def rec(reg, kind, diverged, detect=20):
    return ErrorRecord(benchmark="ttsprk", flop=FlopRef(reg, 0), kind=kind,
                       inject_cycle=10, detect_cycle=detect,
                       diverged=frozenset(diverged))


@pytest.fixture
def training():
    return [
        # set {1}: PFU-dominated, mostly hard
        rec("pc", FaultKind.STUCK1, {1}),
        rec("pc", FaultKind.STUCK0, {1}),
        rec("imc_addr", FaultKind.SOFT, {1}),
        # set {6,7}: LSU soft errors
        rec("lsu_addr", FaultKind.SOFT, {6, 7}),
        rec("lsu_addr", FaultKind.SOFT, {6, 7}),
        rec("sb_addr", FaultKind.SOFT, {6, 7}),
    ]


class TestRankUnits:
    ORDER = ("A", "B", "C", "D")

    def test_descending_by_score(self):
        scores = {"B": 0.5, "A": 0.2, "C": 0.3}
        assert rank_units(scores, self.ORDER, None) == ("B", "C", "A", "D")

    def test_ties_broken_by_default_order(self):
        scores = {"C": 0.5, "B": 0.5}
        assert rank_units(scores, self.ORDER, None)[:2] == ("B", "C")

    def test_zero_scores_excluded_from_ranked_prefix(self):
        scores = {"A": 0.0, "D": 1.0}
        assert rank_units(scores, self.ORDER, None) == ("D", "A", "B", "C")

    def test_top_k_truncates(self):
        scores = {"B": 0.5, "A": 0.3, "C": 0.2}
        assert rank_units(scores, self.ORDER, 2) == ("B", "A")

    def test_top_k_pads_from_default_order(self):
        scores = {"B": 1.0}
        assert rank_units(scores, self.ORDER, 3) == ("B", "A", "C")

    def test_top_k_equal_to_unit_count_is_full_order(self):
        scores = {"B": 1.0, "C": 0.5}
        assert rank_units(scores, self.ORDER, 4) == rank_units(scores, self.ORDER, None)


class TestTypeBit:
    def test_hard_majority(self):
        assert type_bit({ErrorType.HARD: 0.7, ErrorType.SOFT: 0.3})

    def test_soft_majority(self):
        assert not type_bit({ErrorType.HARD: 0.2, ErrorType.SOFT: 0.8})

    def test_tie_predicts_hard(self):
        """Conservative: ties go to the safe (full diagnostic) side."""
        assert type_bit({ErrorType.HARD: 0.5, ErrorType.SOFT: 0.5})

    def test_empty_predicts_hard(self):
        assert type_bit({})


class TestTraining:
    def test_prediction_for_known_set(self, training):
        predictor = train_predictor(training)
        pred = predictor.predict(frozenset({1}))
        assert pred.units[0] == "PFU"
        assert pred.error_type is ErrorType.HARD
        assert not pred.from_default

    def test_soft_dominated_set(self, training):
        predictor = train_predictor(training)
        pred = predictor.predict(frozenset({6, 7}))
        assert pred.units[0] == "LSU"
        assert pred.error_type is ErrorType.SOFT

    def test_unseen_set_hits_default_entry(self, training):
        predictor = train_predictor(training)
        pred = predictor.predict(frozenset({42}))
        assert pred.from_default
        assert pred.error_type is ErrorType.HARD
        assert pred.units == default_unit_order(False)

    def test_full_order_contains_all_units(self, training):
        predictor = train_predictor(training)
        pred = predictor.predict(frozenset({1}))
        assert set(pred.units) == set(default_unit_order(False))

    def test_top_k_entries_truncated(self, training):
        predictor = train_predictor(training, top_k=1)
        assert len(predictor.predict(frozenset({1})).units) == 1

    def test_fine_taxonomy(self, training):
        predictor = train_predictor(training, fine=True)
        pred = predictor.predict(frozenset({6, 7}))
        assert pred.units[0] in ("LSU",)
        assert len(default_unit_order(True)) == 13

    def test_training_deterministic(self, training):
        a = train_predictor(training)
        b = train_predictor(training)
        for key in (frozenset({1}), frozenset({6, 7}), frozenset({9})):
            assert a.predict(key) == b.predict(key)

    def test_predict_record_uses_dsr(self, training):
        predictor = train_predictor(training)
        record = rec("rf1", FaultKind.SOFT, {6, 7})
        assert predictor.predict_record(record) == predictor.predict(frozenset({6, 7}))

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, training, top_k):
        """A negative K used to slice units off the default order and 0
        to build empty entries; both are refused, naming the field."""
        with pytest.raises(ValueError, match=f"top_k must be >= 1, got {top_k}"):
            train_predictor(training, top_k=top_k)


class TestAccuracies:
    def test_location_accuracy_full_order_is_one(self, training):
        predictor = train_predictor(training)
        assert location_accuracy(predictor, training) == 1.0

    def test_location_accuracy_topk(self, training):
        predictor = train_predictor(training, top_k=1)
        # both hard errors are in set {1} whose top unit is PFU
        assert location_accuracy(predictor, training) == 1.0

    def test_location_accuracy_counts_misses(self, training):
        predictor = train_predictor(training, top_k=1)
        stray = rec("lsu_addr", FaultKind.STUCK1, {1})  # LSU fault, PFU-set DSR
        assert location_accuracy(predictor, [stray]) == 0.0

    def test_type_accuracy_on_training_set(self, training):
        predictor = train_predictor(training)
        acc = type_accuracy(predictor, training)
        assert acc["hard"] == 1.0
        assert acc["soft"] == pytest.approx(0.75)
        assert acc["overall"] == pytest.approx(5 / 6)

    def test_empty_dataset_accuracy_zero(self, training):
        predictor = train_predictor(training)
        assert location_accuracy(predictor, []) == 0.0
        acc = type_accuracy(predictor, [])
        assert acc == {"soft": 0.0, "hard": 0.0, "overall": 0.0}


class TestDynamicPredictor:
    def test_update_changes_prediction(self, training):
        predictor = DynamicPredictor.train(training)
        key = frozenset({6, 7})
        assert predictor.predict(key).error_type is ErrorType.SOFT
        for _ in range(5):
            predictor.update(rec("lsu_addr", FaultKind.STUCK1, key))
        assert predictor.predict(key).error_type is ErrorType.HARD

    def test_update_learns_new_set(self, training):
        predictor = DynamicPredictor.train(training)
        key = frozenset({40, 41})
        assert predictor.predict(key).from_default
        predictor.update(rec("dmc_addr", FaultKind.STUCK0, key))
        pred = predictor.predict(key)
        assert not pred.from_default
        assert pred.units[0] == "DMC"

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_rejected(self, training, top_k):
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            DynamicPredictor.train(training, top_k=top_k)
        static = train_predictor(training)
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            DynamicPredictor(static.table, False, SignatureStats.from_records(training),
                             top_k=top_k)

    def test_static_predictor_unaffected_by_later_records(self, training):
        static = train_predictor(training)
        before = static.predict(frozenset({6, 7}))
        training.append(rec("lsu_addr", FaultKind.STUCK1, {6, 7}))
        assert static.predict(frozenset({6, 7})) == before


class TestCampaignTraining:
    def test_trained_on_real_campaign(self, medium_campaign):
        records = medium_campaign.records
        predictor = train_predictor(records)
        assert len(predictor.table) > 10
        assert location_accuracy(predictor, records) == 1.0
        acc = type_accuracy(predictor, records)
        # In-sample type accuracy must beat coin flipping.
        assert acc["overall"] > 0.5
