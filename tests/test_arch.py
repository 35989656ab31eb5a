"""Two-tier golden traces: ArchTrace, cross-check, TieredGolden."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.faults import GoldenTrace
from repro.faults.arch import ArchTrace, TieredGolden, peek_cached_n_cycles
from repro.workloads import KERNELS
from repro.workloads.kernels import DEFAULT_SEED
from tests.conftest import corrupt_golden_cache


@pytest.fixture(scope="module")
def ttsprk_arch() -> ArchTrace:
    return ArchTrace(KERNELS["ttsprk"])


@pytest.mark.parametrize("name", ("ttsprk", "puwmod"))
def test_arch_trace_matches_reference(name):
    """The architectural OUT stream equals the workload's reference model."""
    workload = KERNELS[name]
    arch = ArchTrace(workload)
    assert arch.outputs == workload.reference(workload.stimulus(DEFAULT_SEED))
    assert arch.n_steps > 0
    assert arch.retires and arch.executed_words
    # r0 is hardwired zero: never a meaningful read, never a write.
    assert not arch.reg_reads & 1
    assert not arch.reg_writes & 1


def test_cross_check_clean(ttsprk_arch, ttsprk_golden):
    assert ttsprk_arch.cross_check(ttsprk_golden) == []
    # Retiring one instruction takes at least one pipeline cycle.
    assert ttsprk_arch.n_steps <= ttsprk_golden.n_cycles


def test_cross_check_detects_out_corruption(ttsprk_arch, ttsprk_golden):
    """A flipped OUT value in the port matrix is reported."""
    bad = copy.copy(ttsprk_golden)
    pm = np.array(ttsprk_golden.port_matrix)
    strobe = pm[:, 11]
    toggle = int(np.nonzero(strobe[1:] != strobe[:-1])[0][3]) + 1
    pm[toggle, 10] ^= 1
    bad.port_matrix = pm
    problems = ttsprk_arch.cross_check(bad)
    assert problems and "OUT stream" in problems[0]


def test_cross_check_detects_truncation(ttsprk_arch, ttsprk_golden):
    """A truncated trace loses OUT values beyond the prefix allowance."""
    bad = copy.copy(ttsprk_golden)
    half = ttsprk_golden.n_cycles // 2
    bad.port_matrix = np.array(ttsprk_golden.port_matrix[:half])
    bad.n_cycles = half
    assert ttsprk_arch.cross_check(bad)


def test_cross_check_rejects_identity_mismatch(ttsprk_golden):
    """Traces of different runs are incomparable, not 'mismatched'."""
    other = ArchTrace(KERNELS["ttsprk"], seed=DEFAULT_SEED + 1)
    problems = other.cross_check(ttsprk_golden)
    assert problems and "identity" in problems[0]


def test_tiered_lazy_and_cross_checked(tmp_path):
    """Tier 2 is built lazily and handed out only after cross-check."""
    workload = KERNELS["ttsprk"]
    tiered = TieredGolden(workload, cache_dir=tmp_path)
    assert tiered.tier_loads == {"arch": 0, "full": 0, "n_cycles_peeks": 0}
    # Cold cache: n_cycles has to build tier 2 (which pulls tier 1 in
    # for the cross-check) and populates the on-disk cache.
    n = tiered.n_cycles
    assert tiered.tier_loads["full"] == 1
    assert tiered.tier_loads["arch"] == 1
    # Warm cache, fresh handle: scheduling peeks the header only.
    warm = TieredGolden(workload, cache_dir=tmp_path)
    assert warm.n_cycles == n
    assert warm.tier_loads["n_cycles_peeks"] == 1
    assert warm.tier_loads["full"] == 0
    assert warm.full.n_cycles == n
    assert warm.tier_loads["full"] == 1


def test_tiered_rejects_corrupt_trace(tmp_path, monkeypatch):
    """A trace failing the architectural cross-check never escapes."""
    workload = KERNELS["ttsprk"]
    good = GoldenTrace.cached(workload, cache_dir=tmp_path)
    bad = copy.copy(good)
    pm = np.array(good.port_matrix)
    strobe = pm[:, 11]
    toggle = int(np.nonzero(strobe[1:] != strobe[:-1])[0][0]) + 1
    pm[toggle, 10] ^= 2
    bad.port_matrix = pm
    monkeypatch.setattr(GoldenTrace, "cached",
                        classmethod(lambda cls, *a, **k: bad))
    tiered = TieredGolden(workload, cache_dir=tmp_path)
    with pytest.raises(RuntimeError, match="cross-check"):
        tiered.full


def test_tiered_resimulates_cache_failing_cross_check(tmp_path):
    """A corrupt cache file costs a re-simulation, never the answer."""
    workload = KERNELS["ttsprk"]
    good = GoldenTrace.cached(workload, cache_dir=tmp_path)
    (path,) = tmp_path.glob("*.npz")
    corrupt_golden_cache(path)
    tiered = TieredGolden(workload, cache_dir=tmp_path)
    with pytest.warns(RuntimeWarning, match="cross-check"):
        trace = tiered.full
    assert np.array_equal(trace.port_matrix, good.port_matrix)
    assert np.array_equal(trace.state_matrix, good.state_matrix)
    # The rewritten cache file is clean again.
    fresh = TieredGolden(workload, cache_dir=tmp_path)
    assert np.array_equal(fresh.full.port_matrix, good.port_matrix)


def test_peek_cached_n_cycles(tmp_path):
    workload = KERNELS["ttsprk"]
    assert peek_cached_n_cycles(workload, cache_dir=tmp_path) is None  # cold
    golden = GoldenTrace.cached(workload, cache_dir=tmp_path)
    assert peek_cached_n_cycles(workload, cache_dir=tmp_path) == golden.n_cycles
    # Identity fields gate the peek exactly like the full loader.
    assert peek_cached_n_cycles(workload, seed=DEFAULT_SEED + 1,
                                cache_dir=tmp_path) is None
    assert peek_cached_n_cycles(workload, mem_words=4096,
                                cache_dir=tmp_path) is None
