"""Edge-case coverage across small public surfaces."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cpu import FlopRef
from repro.faults import ErrorRecord, ErrorType, Fault, FaultKind, error_type_of
from repro.faults.stats import Spread


class TestFaultModels:
    def test_error_type_of(self):
        assert error_type_of(FaultKind.SOFT) is ErrorType.SOFT
        assert error_type_of(FaultKind.STUCK0) is ErrorType.HARD
        assert error_type_of(FaultKind.STUCK1) is ErrorType.HARD

    def test_kind_is_hard(self):
        assert not FaultKind.SOFT.is_hard
        assert FaultKind.STUCK0.is_hard and FaultKind.STUCK1.is_hard

    def test_record_latency_and_units(self):
        record = ErrorRecord(benchmark="x", flop=FlopRef("rf3", 7),
                             kind=FaultKind.STUCK1, inject_cycle=10,
                             detect_cycle=42, diverged=frozenset({1}))
        assert record.latency == 32
        assert record.unit == "DPU.RF"
        assert record.coarse_unit == "DPU"
        assert record.unit_for(fine=True) == "DPU.RF"
        assert record.unit_for(fine=False) == "DPU"

    def test_faults_hashable(self):
        a = Fault(FlopRef("pc", 0), FaultKind.SOFT, 5)
        b = Fault(FlopRef("pc", 0), FaultKind.SOFT, 5)
        assert a == b and len({a, b}) == 1


class TestSpread:
    def test_as_row_formats(self):
        spread = Spread(1.0, 2.5, 9.0)
        assert spread.as_row("{:.1f}") == "[1.0, 2.5, 9.0]"

    def test_percent_format(self):
        spread = Spread(0.01, 0.5, 0.99)
        assert spread.as_row("{:.0%}") == "[1%, 50%, 99%]"


class TestPredictorEdges:
    def test_empty_training_gives_pure_default(self):
        from repro.core import train_predictor
        predictor = train_predictor([])
        prediction = predictor.predict(frozenset({1, 2}))
        assert prediction.from_default
        assert prediction.error_type is ErrorType.HARD
        assert len(predictor.table) == 1

    def test_default_order_lengths(self):
        from repro.core import default_unit_order
        assert len(default_unit_order(False)) == 7
        assert len(default_unit_order(True)) == 13


class TestFiguresFine:
    def test_figure11_chart_fine_label(self, medium_campaign):
        from repro.analysis import evaluate_campaign
        from repro.analysis.figures import figure11_chart
        ev = evaluate_campaign(medium_campaign, fine=True, seed=0)
        assert "Fig 14" in figure11_chart(ev, fine=True)


class TestCampaignResultProps:
    def test_counters(self, quick_campaign):
        assert quick_campaign.n_injected > 0
        assert quick_campaign.n_errors == len(quick_campaign.records)
        assert quick_campaign.wall_seconds >= 0.0

    def test_sampled_flops_cover_units(self, quick_campaign):
        from repro.cpu.units import FINE_UNITS
        assert set(quick_campaign.sampled_flops) == set(FINE_UNITS)


class TestKernelRun:
    def test_run_kernel_respects_cycle_bound(self):
        from repro.workloads import KERNELS, run_kernel
        run = run_kernel(KERNELS["ttsprk"], max_cycles=50)
        assert run.cycles == 50
        assert not run.halted


class TestStlSpreadOrdering:
    @pytest.mark.parametrize("fine", [False, True])
    def test_spread_ordered(self, fine):
        from repro.bist import StlModel
        lo, mean, hi = StlModel(fine=fine).spread()
        assert lo <= mean <= hi


class TestVerifyImports:
    def test_campaign_imports_load_only_the_reference_model(self):
        """Campaign processes import ``RefModel`` for the trace
        cross-check and nothing else of the verification suite."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.faults, repro.analysis, repro.faults.service; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('repro.verify.')))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["['repro.verify.refmodel']"]

    def test_package_exports_resolve_lazily(self):
        import repro.verify as verify
        from repro.verify import cosim
        from repro.verify.diff import cosim as defined
        assert cosim is defined
        for name in verify.__all__:
            assert getattr(verify, name) is not None
        assert set(verify.__all__) <= set(dir(verify))
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            verify.nope  # noqa: B018
