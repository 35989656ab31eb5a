"""Unit taxonomy and flip-flop registry tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cpu.units import (
    COARSE_UNITS,
    DPU,
    DPU_SUBUNITS,
    FINE_UNITS,
    REG_BY_NAME,
    REG_INDEX,
    REGISTRY,
    TOTAL_FLOPS,
    FlopRef,
    all_flops,
    coarse_unit,
    flops_of_unit,
    unit_flop_counts,
)


class TestTaxonomy:
    def test_seven_coarse_units(self):
        """The paper's Figure 8 organisation."""
        assert len(COARSE_UNITS) == 7

    def test_thirteen_fine_units(self):
        """The paper's Section V-D fine organisation."""
        assert len(FINE_UNITS) == 13

    def test_dpu_splits_into_seven_subunits(self):
        assert len(DPU_SUBUNITS) == 7

    def test_coarse_unit_folds_dpu(self):
        for sub in DPU_SUBUNITS:
            assert coarse_unit(sub) == DPU
        for unit in COARSE_UNITS:
            if unit != DPU:
                assert coarse_unit(unit) == unit

    def test_every_register_has_a_fine_unit(self):
        for spec in REGISTRY:
            assert spec.unit in FINE_UNITS


class TestRegistry:
    def test_registry_names_unique(self):
        names = [spec.name for spec in REGISTRY]
        assert len(names) == len(set(names))

    def test_total_flops_matches_widths(self):
        assert TOTAL_FLOPS == sum(spec.width for spec in REGISTRY)

    def test_index_matches_order(self):
        for i, spec in enumerate(REGISTRY):
            assert REG_INDEX[spec.name] == i
            assert REG_BY_NAME[spec.name] is spec

    def test_dpu_is_largest_coarse_unit(self):
        """The DPU is the most complex unit, as in the Cortex-R5."""
        counts = unit_flop_counts()
        assert max(counts, key=counts.get) == DPU

    def test_fine_counts_sum_to_coarse(self):
        fine = unit_flop_counts(fine=True)
        coarse = unit_flop_counts()
        assert sum(fine[s] for s in DPU_SUBUNITS) == coarse[DPU]

    def test_all_units_nonempty(self):
        for unit, count in unit_flop_counts(fine=True).items():
            assert count > 0, unit


class TestFlopRef:
    def test_valid_ref(self):
        ref = FlopRef("pc", 31)
        assert ref.unit == "PFU"
        assert ref.coarse == "PFU"

    def test_fine_to_coarse(self):
        ref = FlopRef("rf5", 0)
        assert ref.unit == "DPU.RF"
        assert ref.coarse == DPU

    def test_unknown_register_rejected(self):
        with pytest.raises(ValueError, match="unknown register"):
            FlopRef("nonexistent", 0)

    def test_bit_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            FlopRef("halted", 1)

    def test_refs_are_hashable_and_ordered(self):
        refs = {FlopRef("pc", 0), FlopRef("pc", 1), FlopRef("pc", 0)}
        assert len(refs) == 2
        assert FlopRef("pc", 0) < FlopRef("pc", 1)


class TestEnumeration:
    def test_all_flops_count(self):
        assert len(all_flops()) == TOTAL_FLOPS

    def test_all_flops_unique(self):
        flops = all_flops()
        assert len(set(flops)) == len(flops)

    def test_flops_of_unit_partition_coarse(self):
        total = sum(len(flops_of_unit(u)) for u in COARSE_UNITS)
        assert total == TOTAL_FLOPS

    def test_flops_of_unit_partition_fine(self):
        total = sum(len(flops_of_unit(u, fine=True)) for u in FINE_UNITS)
        assert total == TOTAL_FLOPS

    def test_flops_of_unit_counts_match(self):
        counts = unit_flop_counts(fine=True)
        for unit in FINE_UNITS:
            assert len(flops_of_unit(unit, fine=True)) == counts[unit]

    def test_tables_match_the_registry(self):
        """The import-time tables give what scanning REGISTRY gives, in
        canonical order, and every call returns a fresh list."""
        scan = [FlopRef(spec.name, bit)
                for spec in REGISTRY for bit in range(spec.width)]
        assert all_flops() == scan
        assert all_flops() is not all_flops()
        for fine, units in ((True, FINE_UNITS), (False, COARSE_UNITS)):
            for unit in (*units, "nope"):
                want = [f for f in scan if (REG_BY_NAME[f.reg].unit if fine
                        else coarse_unit(REG_BY_NAME[f.reg].unit)) == unit]
                assert flops_of_unit(unit, fine=fine) == want
                assert flops_of_unit(unit, fine=fine) is not \
                    flops_of_unit(unit, fine=fine)
        for flop in scan:
            assert flop.unit == REG_BY_NAME[flop.reg].unit
            assert flop.coarse == coarse_unit(flop.unit)


@given(st.sampled_from([spec.name for spec in REGISTRY]), st.data())
def test_any_flop_addressable(reg, data):
    """Every (register, bit) pair inside declared widths is addressable."""
    width = REG_BY_NAME[reg].width
    bit = data.draw(st.integers(0, width - 1))
    ref = FlopRef(reg, bit)
    assert ref.coarse in COARSE_UNITS
