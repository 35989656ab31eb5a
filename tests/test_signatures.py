"""Signature statistics tests."""

import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SignatureStats
from repro.core.bhattacharyya import (
    average_bc,
    average_type_bc,
    bc_extremes,
    bhattacharyya,
    cross_unit_bc,
    type_bc_per_unit,
)
from repro.cpu import FlopRef
from repro.faults import ErrorRecord, ErrorType, FaultKind


def rec(reg: str, kind: FaultKind, diverged, bench="ttsprk",
        inject=10, detect=20) -> ErrorRecord:
    return ErrorRecord(benchmark=bench, flop=FlopRef(reg, 0), kind=kind,
                       inject_cycle=inject, detect_cycle=detect,
                       diverged=frozenset(diverged))


#: Registers of four coarse units; the three DPU ones are three fine units.
_REGS = ("pc", "lsu_addr", "rf3", "flags", "mw_val", "status")


@pytest.fixture
def toy_records():
    return [
        rec("pc", FaultKind.SOFT, {0, 1}),        # PFU
        rec("pc", FaultKind.STUCK1, {0, 1, 2}),   # PFU
        rec("lsu_addr", FaultKind.SOFT, {6}),     # LSU
        rec("lsu_addr", FaultKind.STUCK0, {6}),   # LSU
        rec("lsu_addr", FaultKind.STUCK0, {6, 7}),
        rec("rf3", FaultKind.SOFT, {50}),         # DPU.RF
    ]


class TestAccumulation:
    def test_counts_by_set_and_unit(self, toy_records):
        stats = SignatureStats.from_records(toy_records)
        assert stats.set_unit_counts[frozenset({6})]["LSU"] == 2
        assert stats.unit_type_sets["LSU", ErrorType.HARD] == {
            frozenset({6}): 1, frozenset({6, 7}): 1}
        assert stats.units == ["PFU", "LSU", "DPU"]
        assert stats.n_sets() == 5

    def test_fine_taxonomy_units(self, toy_records):
        stats = SignatureStats.from_records(toy_records, fine=True)
        assert stats.unit_type_sets["DPU.RF", ErrorType.SOFT] == {
            frozenset({50}): 1}

    def test_set_probabilities_normalised(self, toy_records):
        stats = SignatureStats.from_records(toy_records)
        probs = stats.set_probabilities(frozenset({6}))
        assert math.isclose(sum(probs.values()), 1.0)
        assert probs["LSU"] == 1.0

    def test_type_probabilities(self, toy_records):
        stats = SignatureStats.from_records(toy_records)
        probs = stats.type_probabilities(frozenset({6}))
        assert probs[ErrorType.SOFT] == 0.5
        assert probs[ErrorType.HARD] == 0.5

    def test_unknown_set_empty(self, toy_records):
        stats = SignatureStats.from_records(toy_records)
        assert stats.set_probabilities(frozenset({61})) == {}
        assert stats.type_probabilities(frozenset({61})) == {}

    def test_unit_distribution_sums_to_one(self, toy_records):
        stats = SignatureStats.from_records(toy_records)
        dist = stats.unit_distribution("LSU")
        assert math.isclose(sum(dist.values()), 1.0)

    def test_unit_distribution_per_type(self, toy_records):
        stats = SignatureStats.from_records(toy_records)
        hard = stats.unit_distribution("LSU", ErrorType.HARD)
        assert math.isclose(sum(hard.values()), 1.0)
        assert frozenset({6, 7}) in hard
        assert stats.unit_distribution("DPU", ErrorType.HARD) == {}
        assert stats.unit_distribution("IMC", ErrorType.SOFT) == {}

    @given(st.lists(st.tuples(st.sampled_from(_REGS), st.sampled_from(list(FaultKind)),
                              st.frozensets(st.integers(0, 4), max_size=3)),
                    max_size=40),
           st.booleans())
    def test_histogram_equals_record_scan_property(self, rows, fine):
        """Each (unit, type) histogram is the record scan it replaces,
        down to the first-seen order of its units and sets, which break
        ties in Figs 4/5."""
        records = [rec(reg, kind, diverged) for reg, kind, diverged in rows]
        stats = SignatureStats.from_records(records, fine)
        assert stats.units == list(dict.fromkeys(r.unit_for(fine) for r in records))
        for unit in stats.units:
            for etype in ErrorType:
                scan = Counter(r.diverged for r in records
                               if r.unit_for(fine) == unit and r.error_type is etype)
                total = sum(scan.values())
                assert list(stats.unit_distribution(unit, etype).items()) == [
                    (key, count / total) for key, count in scan.items()]

    def test_diverged_sets_canonical_order(self, toy_records):
        stats = SignatureStats.from_records(toy_records)
        sets = stats.diverged_sets
        sizes = [len(s) for s in sets]
        assert sizes == sorted(sizes)


class TestBhattacharyya:
    def test_identical_distributions_give_one(self):
        p = {frozenset({1}): 0.5, frozenset({2}): 0.5}
        assert math.isclose(bhattacharyya(p, p), 1.0)

    def test_disjoint_distributions_give_zero(self):
        p = {frozenset({1}): 1.0}
        q = {frozenset({2}): 1.0}
        assert bhattacharyya(p, q) == 0.0

    def test_symmetry(self):
        p = {frozenset({1}): 0.3, frozenset({2}): 0.7}
        q = {frozenset({1}): 0.6, frozenset({3}): 0.4}
        assert math.isclose(bhattacharyya(p, q), bhattacharyya(q, p))

    def test_empty_distribution_gives_zero(self):
        assert bhattacharyya({}, {frozenset({1}): 1.0}) == 0.0

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
           st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8))
    def test_bounded_property(self, a, b):
        p = {frozenset({i}): v / sum(a) for i, v in enumerate(a)}
        q = {frozenset({i}): v / sum(b) for i, v in enumerate(b)}
        bc = bhattacharyya(p, q)
        assert -1e-9 <= bc <= 1.0 + 1e-9

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
    def test_self_similarity_is_max_property(self, a):
        p = {frozenset({i}): v / sum(a) for i, v in enumerate(a)}
        q = {frozenset({i + 100}): v / sum(a) for i, v in enumerate(a)}
        assert bhattacharyya(p, p) >= bhattacharyya(p, q)


class TestUnitBc:
    def test_cross_unit_bc_on_campaign(self, medium_campaign):
        records = medium_campaign.records
        stats = SignatureStats.from_records(records)
        bcs = cross_unit_bc(stats, ErrorType.HARD)
        assert bcs
        for value in bcs.values():
            assert 0.0 <= value <= 1.0

    def test_signatures_are_distinguishable(self, medium_campaign):
        """The core claim: cross-unit BC is well below 1 (paper: ~0.4)."""
        records = medium_campaign.records
        stats = SignatureStats.from_records(records)
        for etype in (ErrorType.HARD, ErrorType.SOFT):
            assert average_bc(stats, etype) < 0.7

    def test_extremes_ordering(self, medium_campaign):
        records = medium_campaign.records
        stats = SignatureStats.from_records(records)
        lo, mid, hi = bc_extremes(stats, ErrorType.HARD)
        bcs = cross_unit_bc(stats, ErrorType.HARD)
        assert bcs[lo] <= bcs[mid] <= bcs[hi]

    def test_type_bc_bounded(self, medium_campaign):
        records = medium_campaign.records
        stats = SignatureStats.from_records(records)
        per_unit = type_bc_per_unit(stats)
        assert per_unit
        for value in per_unit.values():
            assert 0.0 <= value <= 1.0
        assert 0.0 <= average_type_bc(stats) <= 1.0

    def test_extremes_raise_without_data(self):
        stats = SignatureStats()
        with pytest.raises(ValueError):
            bc_extremes(stats, ErrorType.HARD)
