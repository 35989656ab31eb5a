"""The architectural cross-check of golden traces, and the loader that
runs it on every trace it returns."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.faults import GoldenTrace
from repro.faults.golden import cross_check
from repro.workloads import KERNELS
from tests.conftest import corrupt_golden_cache


def test_cross_check_clean(ttsprk_golden):
    assert cross_check(ttsprk_golden) == []


def test_cross_check_detects_out_corruption(ttsprk_golden):
    """A flipped OUT value in the port matrix is reported."""
    bad = copy.copy(ttsprk_golden)
    pm = np.array(ttsprk_golden.port_matrix)
    strobe = pm[:, 11]
    toggle = int(np.nonzero(strobe[1:] != strobe[:-1])[0][3]) + 1
    pm[toggle, 10] ^= 1
    bad.port_matrix = pm
    problems = cross_check(bad)
    assert problems and "OUT stream" in problems[0]


def test_cross_check_detects_truncation(ttsprk_golden):
    """A truncated trace loses OUT values beyond the prefix allowance."""
    bad = copy.copy(ttsprk_golden)
    half = ttsprk_golden.n_cycles // 2
    bad.port_matrix = np.array(ttsprk_golden.port_matrix[:half])
    bad.n_cycles = half
    assert cross_check(bad)


def test_tiered_rejects_corrupt_trace(tmp_path, monkeypatch):
    """A simulated trace failing the cross-check never escapes, and is
    never written to the cache, whichever build (compiled or Python)
    simulated it."""
    workload = KERNELS["ttsprk"]
    attach = GoldenTrace._attach

    def attach_with_bad_out(self, *args, **kwargs):
        attach(self, *args, **kwargs)
        pm = self.port_matrix
        toggle = int(np.nonzero(pm[1:, 11] != pm[:-1, 11])[0][0]) + 1
        pm[toggle, 10] ^= 2

    monkeypatch.setattr(GoldenTrace, "_attach", attach_with_bad_out)
    with pytest.raises(RuntimeError, match="cross-check"):
        GoldenTrace.cached(workload, cache_dir=tmp_path)
    assert not list(tmp_path.glob("*.npz"))


def test_tiered_resimulates_cache_failing_cross_check(tmp_path):
    """A corrupt cache file costs a re-simulation, never the answer."""
    workload = KERNELS["ttsprk"]
    good = GoldenTrace.cached(workload, cache_dir=tmp_path)
    (path,) = tmp_path.glob("*.npz")
    corrupt_golden_cache(path)
    with pytest.warns(RuntimeWarning, match="cross-check"):
        trace = GoldenTrace.cached(workload, cache_dir=tmp_path)
    assert np.array_equal(trace.port_matrix, good.port_matrix)
    assert np.array_equal(trace.state_matrix, good.state_matrix)
    # The rewritten cache file is clean again.
    fresh = GoldenTrace.cached(workload, cache_dir=tmp_path)
    assert np.array_equal(fresh.port_matrix, good.port_matrix)
