"""On-disk golden-trace cache tests.

The cache must be invisible: a loaded trace behaves identically to a
freshly simulated one (same matrices, write log, stimulus and injection
verdicts), and any unreadable / stale / mismatching file is discarded
with a warning and replaced by a fresh simulation — never propagated.
"""

import warnings

import numpy as np
import pytest

from repro.cpu.units import FlopRef
from repro.faults import _cstep, kernels
from repro.faults.campaign import CAMPAIGN_SCHEMA_VERSION
from repro.faults.golden import (
    CAMPAIGN_MEM_WORDS,
    DEFAULT_GOLDEN_CACHE_DIR,
    GOLDEN_CACHE_ENV,
    GoldenTrace,
    golden_cache_dir,
    golden_cache_path,
)
from repro.faults.injector import InjectionEngine
from repro.faults.models import Fault, FaultKind
from repro.workloads import KERNELS
from tests.conftest import corrupt_golden_cache


WORKLOAD = KERNELS["ttsprk"]


def _cache_path(tmp_path):
    files = sorted(tmp_path.glob("*.npz"))
    assert len(files) == 1
    return files[0]


class TestRoundTrip:
    def test_miss_then_hit_is_equal(self, tmp_path):
        fresh = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        path = _cache_path(tmp_path)
        loaded = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        assert loaded.n_cycles == fresh.n_cycles
        assert np.array_equal(loaded.port_matrix, fresh.port_matrix)
        assert np.array_equal(loaded.state_matrix, fresh.state_matrix)
        assert np.array_equal(loaded.read_mask, fresh.read_mask)
        assert np.array_equal(loaded.write_mask, fresh.write_mask)
        assert loaded.soft_start("rf5", 0) == fresh.soft_start("rf5", 0)
        assert loaded.first_active_use("scratch", 3, 1, 0) == \
            fresh.first_active_use("scratch", 3, 1, 0)
        assert loaded.port_tuples() == fresh.port_tuples()
        assert loaded.state_hash_list() == fresh.state_hash_list()
        assert np.array_equal(loaded.write_log, fresh.write_log)
        assert loaded.stimulus.values == fresh.stimulus.values
        assert loaded.program.words == fresh.program.words
        assert loaded.memory_at(fresh.n_cycles).words == \
            fresh.memory_at(fresh.n_cycles).words
        assert path.exists()

    def test_cached_trace_gives_identical_injection_verdicts(self, tmp_path):
        fresh = GoldenTrace(WORKLOAD)
        GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)  # populate
        loaded = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        eng_a = InjectionEngine(fresh, max_observe=400)
        eng_b = InjectionEngine(loaded, max_observe=400)
        faults = [
            Fault(FlopRef("imc_addr", 3), FaultKind.SOFT, 100),
            Fault(FlopRef("pc", 2), FaultKind.STUCK1, 50),
            Fault(FlopRef("rf7", 31), FaultKind.SOFT, 700),
            Fault(FlopRef("cyc", 0), FaultKind.STUCK0, 10),
            Fault(FlopRef("mpu_ctrl", 0), FaultKind.STUCK0, 0),
        ]
        for fault in faults:
            assert eng_a.inject(fault) == eng_b.inject(fault), fault

    def test_file_keeps_v4_entries_plus_a_checksum(self, tmp_path):
        """Every v4 entry keeps its dtype, so a loader that reads entries
        by name loads the file; the one addition is the checksum."""
        trace = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        with np.load(_cache_path(tmp_path), allow_pickle=False) as data:
            dtypes = {name: str(data[name].dtype) for name in data.files}
            state_matrix = data["state_matrix"]
        assert dtypes == {
            "meta": "int64", "port_matrix": "uint64",
            "state_matrix": "uint64", "state_hashes": "int64",
            "read_mask": "uint64", "write_mask": "uint64",
            "write_log": "uint64", "stimulus": "uint64",
            "checksum": "uint8"}
        assert np.array_equal(state_matrix, trace.state_matrix)

    @pytest.mark.skipif(not kernels.cext_available(),
                        reason="compiled kernel unavailable")
    def test_both_builds_write_the_same_file(self, tmp_path, monkeypatch):
        """The compiled and the Python build write byte-identical cache
        files, so a warm cache cannot hide a difference between them,
        and a file either one wrote loads where the other would build."""
        python = GoldenTrace(WORKLOAD)
        compiled = GoldenTrace._compiled(kernels.cext_module(), WORKLOAD,
                                         python.seed, 100_000,
                                         CAMPAIGN_MEM_WORDS)
        name = golden_cache_path(WORKLOAD, python.seed, CAMPAIGN_MEM_WORDS,
                                 tmp_path).name
        python.save_cache(tmp_path / "python" / name)
        compiled.save_cache(tmp_path / "compiled" / name)
        assert (tmp_path / "python" / name).read_bytes() == \
            (tmp_path / "compiled" / name).read_bytes()

        def no_build(*args, **kwargs):
            raise AssertionError("the cache file was not loaded")

        monkeypatch.setattr(GoldenTrace, "__init__", no_build)
        monkeypatch.setattr(GoldenTrace, "_compiled", no_build)
        for writer, module in (("python", kernels.cext_module()),
                               ("compiled", None)):
            monkeypatch.setattr(_cstep, "MODULE", module)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loaded = GoldenTrace.cached(WORKLOAD,
                                            cache_dir=tmp_path / writer)
            for attr in ("state_matrix", "port_matrix", "state_hashes",
                         "read_mask", "write_mask", "write_log"):
                assert np.array_equal(getattr(loaded, attr),
                                      getattr(python, attr)), (writer, attr)

    def test_seed_and_mem_words_key_separate_entries(self, tmp_path):
        GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        GoldenTrace.cached(WORKLOAD, seed=999, cache_dir=tmp_path)
        GoldenTrace.cached(WORKLOAD, mem_words=4096, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.npz"))) == 3


class TestFallback:
    def test_corrupt_file_warns_resimulates_and_replaces(self, tmp_path):
        fresh = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        path = _cache_path(tmp_path)
        path.write_bytes(b"this is not an npz archive")
        with pytest.warns(RuntimeWarning, match="discarding unusable"):
            recovered = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        assert np.array_equal(recovered.port_matrix, fresh.port_matrix)
        # the bad file was overwritten with a valid one
        reloaded = GoldenTrace._load_cached(path, WORKLOAD,
                                            fresh.seed, fresh.mem_words)
        assert reloaded is not None
        assert np.array_equal(reloaded.state_matrix, fresh.state_matrix)

    def test_stale_schema_version_is_discarded(self, tmp_path):
        GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        path = _cache_path(tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        data["meta"] = data["meta"].copy()
        data["meta"][0] = CAMPAIGN_SCHEMA_VERSION + 1
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.warns(RuntimeWarning, match="schema"):
            trace = GoldenTrace._load_cached(path, WORKLOAD, 1234,
                                             CAMPAIGN_MEM_WORDS)
        assert trace is None

    def test_pre_v4_file_without_masks_is_discarded(self, tmp_path):
        """A schema-bump survivor missing the liveness masks is unusable.

        Simulates a v3-era cache that was hand-renamed (or a dir carried
        across the bump with the version forced): the mask keys simply
        do not exist in the archive, so the load must fall back to a
        fresh simulation rather than produce a trace that cannot answer
        liveness queries.
        """
        fresh = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        path = _cache_path(tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        del data["read_mask"]
        del data["write_mask"]
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.warns(RuntimeWarning, match="discarding unusable"):
            trace = GoldenTrace._load_cached(path, WORKLOAD, fresh.seed,
                                             fresh.mem_words)
        assert trace is None
        # the public entry point recovers by re-simulating (and rewrites
        # a usable file)
        with pytest.warns(RuntimeWarning, match="discarding unusable"):
            recovered = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        assert np.array_equal(recovered.read_mask, fresh.read_mask)
        reloaded = GoldenTrace._load_cached(path, WORKLOAD, fresh.seed,
                                            fresh.mem_words)
        assert reloaded is not None

    def test_truncated_mask_matrix_is_discarded(self, tmp_path):
        fresh = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        path = _cache_path(tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        data["read_mask"] = data["read_mask"][:10]
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.warns(RuntimeWarning, match="discarding unusable"):
            trace = GoldenTrace._load_cached(path, WORKLOAD, fresh.seed,
                                             fresh.mem_words)
        assert trace is None

    def test_truncated_matrix_is_discarded(self, tmp_path):
        fresh = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        path = _cache_path(tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        data["state_matrix"] = data["state_matrix"][:10]
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.warns(RuntimeWarning, match="discarding unusable"):
            trace = GoldenTrace._load_cached(path, WORKLOAD, fresh.seed,
                                             fresh.mem_words)
        assert trace is None

    def test_stimulus_mismatch_is_discarded(self, tmp_path):
        fresh = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        path = _cache_path(tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        data["stimulus"] = data["stimulus"].copy()
        data["stimulus"][0] += 1
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.warns(RuntimeWarning, match="stimulus"):
            trace = GoldenTrace._load_cached(path, WORKLOAD, fresh.seed,
                                             fresh.mem_words)
        assert trace is None


    def test_missing_checksum_is_discarded(self, tmp_path):
        fresh = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        path = _cache_path(tmp_path)
        data = dict(np.load(path, allow_pickle=False))
        del data["checksum"]
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.warns(RuntimeWarning, match="checksum"):
            trace = GoldenTrace._load_cached(path, WORKLOAD, fresh.seed,
                                             fresh.mem_words)
        assert trace is None

    @pytest.mark.parametrize("kind", ("mask", "state"))
    def test_damaged_matrix_is_discarded(self, tmp_path, kind):
        """Damage inside a matrix keeps every shape and the stimulus;
        the stale checksum catches it, and the file is rewritten."""
        fresh = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        path = _cache_path(tmp_path)
        corrupt_golden_cache(path, kind)
        with pytest.warns(RuntimeWarning, match="checksum"):
            recovered = GoldenTrace.cached(WORKLOAD, cache_dir=tmp_path)
        assert np.array_equal(recovered.read_mask, fresh.read_mask)
        assert np.array_equal(recovered.state_matrix, fresh.state_matrix)
        assert GoldenTrace._load_cached(path, WORKLOAD, fresh.seed,
                                        fresh.mem_words) is not None


class TestCacheDirResolution:
    def test_default_directory(self, monkeypatch):
        monkeypatch.delenv(GOLDEN_CACHE_ENV, raising=False)
        assert str(golden_cache_dir()) == DEFAULT_GOLDEN_CACHE_DIR

    @pytest.mark.parametrize("value", ["", "0", "off", "NONE"])
    def test_disabled_values(self, monkeypatch, value):
        monkeypatch.setenv(GOLDEN_CACHE_ENV, value)
        assert golden_cache_dir() is None

    def test_override_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(GOLDEN_CACHE_ENV, str(tmp_path / "traces"))
        assert golden_cache_dir() == tmp_path / "traces"

    def test_disabled_cache_writes_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setenv(GOLDEN_CACHE_ENV, "off")
        monkeypatch.chdir(tmp_path)
        trace = GoldenTrace.cached(WORKLOAD)
        assert trace.n_cycles > 0
        assert not (tmp_path / DEFAULT_GOLDEN_CACHE_DIR).exists()
