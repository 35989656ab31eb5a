"""Parallel campaign engine tests: sharding, seeding, determinism."""

import os
import pickle

import pytest

from repro.faults import (
    DEFAULT_BATCH,
    EXECUTOR_CHOICES,
    THREADS_ENV,
    CampaignConfig,
    CampaignResult,
    cached_campaign,
    cext_available,
    plan_shards,
    resolve_chunk,
    resolve_executor,
    resolve_threads,
    resolve_workers,
    run_campaign,
    sample_flops,
    sampling_rng,
    schedule_faults,
    schedule_rng,
)
from repro.faults import GOLDEN_CACHE_ENV, _cstep, parallel
from repro.faults.service import run_resumable_campaign
from tests.conftest import corrupt_golden_cache

#: A campaign small enough to run several times per test.
SMALL = CampaignConfig(benchmarks=("ttsprk",), soft_per_flop=1,
                       hard_per_flop=1, flop_fraction=0.02, max_observe=300)

#: Meta keys that describe how a run executed, not what it found.
PLAN_KEYS = ("workers", "n_shards", "chunk_flops", "batch", "kernel",
             "threads", "executor")


def _plan(result) -> dict:
    return {key: result.meta[key] for key in PLAN_KEYS}


class TestSeeding:
    def test_schedule_rng_keyed_not_sequential(self):
        """The same (benchmark, flop) cell always gets the same stream,
        regardless of how many other streams were derived before it."""
        a = schedule_rng(7, 2, 31).integers(1 << 30, size=8)
        schedule_rng(7, 0, 0).integers(1 << 30, size=100)  # unrelated draws
        b = schedule_rng(7, 2, 31).integers(1 << 30, size=8)
        assert list(a) == list(b)

    def test_schedule_rng_distinct_cells_distinct_streams(self):
        draws = {
            tuple(schedule_rng(7, b, f).integers(1 << 30, size=4))
            for b in range(3) for f in range(3)
        }
        assert len(draws) == 9

    def test_sampling_rng_independent_of_schedule_rng(self):
        a = sampling_rng(7).integers(1 << 30, size=4)
        b = schedule_rng(7, 0, 0).integers(1 << 30, size=4)
        assert list(a) != list(b)

    def test_schedule_faults_reproducible_per_cell(self):
        cfg = CampaignConfig.quick()
        flops = sample_flops(cfg, sampling_rng(cfg.seed))
        first = schedule_faults(flops[0], 1400, cfg, schedule_rng(cfg.seed, 0, 0))
        again = schedule_faults(flops[0], 1400, cfg, schedule_rng(cfg.seed, 0, 0))
        assert first == again


class TestSharding:
    def test_shards_cover_grid_exactly_once(self):
        cfg = CampaignConfig.quick()
        flops = sample_flops(cfg, sampling_rng(cfg.seed))
        shards = plan_shards(("a", "b"), flops, workers=3, chunk_flops=5)
        for bench in ("a", "b"):
            covered = [
                flop for shard in shards if shard.benchmark == bench
                for flop in shard.flops
            ]
            assert covered == flops

    def test_shards_ordered_by_bench_then_base(self):
        cfg = CampaignConfig.quick()
        flops = sample_flops(cfg, sampling_rng(cfg.seed))
        shards = plan_shards(("a", "b"), flops, workers=2, chunk_flops=4)
        assert [s.order_key for s in shards] == \
               sorted(s.order_key for s in shards)

    def test_flop_base_indexes_global_list(self):
        cfg = CampaignConfig.quick()
        flops = sample_flops(cfg, sampling_rng(cfg.seed))
        for shard in plan_shards(("a",), flops, workers=2, chunk_flops=3):
            for offset, flop in enumerate(shard.flops):
                assert flops[shard.flop_base + offset] == flop

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1

    def test_all_workers_means_usable_cpus(self, monkeypatch):
        """``0``/``None`` count the CPUs this process may run on, not
        the host's."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert resolve_workers(0) == 2
        assert resolve_workers(None) == 2

    def test_resolve_executor(self):
        assert EXECUTOR_CHOICES == ("process", "thread")
        assert resolve_executor(None) == "process"
        assert resolve_executor("process") == "process"
        assert resolve_executor("thread") == "thread"
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("greenlet")


class TestDeterminism:
    def test_parallel_matches_serial(self, quick_campaign):
        """The acceptance property: 4 workers, same campaign, bit for bit."""
        parallel = run_campaign(CampaignConfig.quick(), workers=4)
        assert parallel.records == quick_campaign.records
        assert parallel.injected == quick_campaign.injected
        assert parallel.sampled_flops == quick_campaign.sampled_flops
        assert parallel.golden_cycles == quick_campaign.golden_cycles

    def test_chunk_size_does_not_change_results(self, quick_campaign):
        odd = run_campaign(CampaignConfig.quick(), workers=1, chunk_flops=3)
        assert odd.records == quick_campaign.records
        assert odd.injected == quick_campaign.injected

    def test_meta_records_execution_shape(self):
        result = run_campaign(CampaignConfig.quick(), workers=1, chunk_flops=50)
        assert result.meta["workers"] == 1
        assert result.meta["chunk_flops"] == 50
        assert result.meta["n_shards"] >= 1

    def test_thread_executor_matches_serial(self, quick_campaign):
        """The in-process shard executor is digest-identical to the
        serial run — shard merge order is by order_key, never by
        completion, whichever pool runs the shards."""
        threaded = run_campaign(CampaignConfig.quick(), workers=3,
                                chunk_flops=3, executor="thread")
        assert threaded.records == quick_campaign.records
        assert threaded.injected == quick_campaign.injected
        assert threaded.meta["executor"] == "thread"
        assert threaded.meta["pruning"] == quick_campaign.meta["pruning"]

    @pytest.mark.skipif(not cext_available(),
                        reason="compiled kernel unavailable")
    def test_thread_executor_batch_cext_matches_serial(self, quick_campaign):
        """Thread-pool shard runners × multithreaded compiled kernel:
        the full fan-out still reproduces the serial digest."""
        threaded = run_campaign(CampaignConfig.quick(), workers=2,
                                chunk_flops=3, executor="thread",
                                batch=32, threads=2)
        assert threaded.digest() == quick_campaign.digest()
        assert threaded.meta["pruning"] == quick_campaign.meta["pruning"]

    def test_meta_records_planned_chunk_not_first_shard_len(self):
        """chunk_flops must report the planned chunk size even when the
        sampled flop list is shorter than (or not a multiple of) it."""
        result = run_campaign(CampaignConfig.quick(), workers=1,
                              chunk_flops=1000)
        assert result.meta["chunk_flops"] == 1000
        assert result.meta["n_shards"] == len(CampaignConfig.quick().benchmarks)


class TestEngineResolution:
    """Each driver decides once whether the batch engine runs; the shard
    plan, the engine and the meta all follow that decision."""

    @pytest.mark.parametrize("driver", ("execute", "ledger"))
    def test_batch_zero_plans_like_scalar(self, tmp_path, driver):
        """``batch=0`` is the scalar plan; ``None`` is the default batch
        plan when the kernel loads (else the same scalar plan)."""
        def run(batch):
            if driver == "execute":
                return run_campaign(SMALL, workers=2, batch=batch,
                                    executor="thread")
            return run_resumable_campaign(
                SMALL, ledger_dir=str(tmp_path / str(batch)), workers=2,
                batch=batch, executor="thread")

        zero, default = run(0), run(None)
        n_flops = len(sample_flops(SMALL, sampling_rng(SMALL.seed)))
        assert zero.meta["batch"] is zero.meta["kernel"] is None
        assert zero.meta["threads"] is None
        assert zero.meta["chunk_flops"] == resolve_chunk(n_flops, 2, None)
        if cext_available():
            assert default.meta["batch"] == DEFAULT_BATCH
            assert default.meta["kernel"] == "cext"
            assert default.meta["chunk_flops"] == resolve_chunk(
                n_flops, 2, None, DEFAULT_BATCH)
        else:
            assert _plan(default) == _plan(zero)
        assert zero.records == default.records

    def test_no_compiler_falls_back_to_scalar(self, monkeypatch):
        scalar = run_campaign(SMALL, batch=0)
        monkeypatch.setattr(_cstep, "MODULE", None)
        monkeypatch.setattr(_cstep, "BUILD_ERROR", "no compiler on this host")
        fallback = run_campaign(SMALL, batch=64)
        assert fallback.digest() == scalar.digest()
        assert fallback.meta["pruning"] == scalar.meta["pruning"]
        assert _plan(fallback) == _plan(scalar)
        assert fallback.meta["kernel"] is None

    def test_default_run_equals_scalar_run(self, quick_campaign):
        """The default engine — the compiled kernel at ``DEFAULT_BATCH``
        lanes wherever it loads — reproduces the ``batch=0`` run."""
        default = run_campaign(CampaignConfig.quick())
        assert default.digest() == quick_campaign.digest()
        assert default.meta["pruning"] == quick_campaign.meta["pruning"]
        assert default.injected == quick_campaign.injected
        if cext_available():
            assert default.meta["kernel"] == "cext"
            assert default.meta["batch"] == DEFAULT_BATCH

    def test_default_without_compiler_is_the_scalar_run(self, monkeypatch):
        scalar = run_campaign(SMALL, batch=0)
        monkeypatch.setattr(_cstep, "MODULE", None)
        monkeypatch.setattr(_cstep, "BUILD_ERROR", "no compiler on this host")
        default = run_campaign(SMALL)
        assert _plan(default) == _plan(scalar)
        assert default.meta["pruning"] == scalar.meta["pruning"]
        assert default.digest() == scalar.digest()

    @pytest.mark.skipif(not cext_available(),
                        reason="compiled kernel unavailable")
    def test_meta_records_threads_that_ran(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        result = run_campaign(SMALL, batch=64)
        assert result.meta["kernel"] == "cext"
        assert result.meta["batch"] == 64
        assert result.meta["threads"] == resolve_threads(None, lanes=64)


class TestCacheHardening:
    def test_corrupt_cache_falls_back_to_fresh_run(self, tmp_path):
        cfg = CampaignConfig.quick()
        path = tmp_path / f"campaign_{cfg.cache_key()}.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            result = cached_campaign(cfg, cache_dir=tmp_path)
        assert isinstance(result, CampaignResult)
        assert result.n_injected > 0
        # the fresh result replaced the corrupt file
        assert cached_campaign(cfg, cache_dir=tmp_path).records == result.records

    def test_mismatched_config_falls_back_to_fresh_run(self, tmp_path, quick_campaign):
        cfg = CampaignConfig.quick()
        other = CampaignConfig(benchmarks=("ttsprk",), soft_per_flop=1,
                               hard_per_flop=1, flop_fraction=0.02,
                               max_observe=300)
        # a result for `other` filed under cfg's cache key
        path = tmp_path / f"campaign_{cfg.cache_key()}.pkl"
        stale = CampaignResult(config=other, records=[], injected={},
                               golden_cycles={}, sampled_flops={})
        stale.save(path)
        with pytest.warns(RuntimeWarning, match="different"):
            result = cached_campaign(cfg, cache_dir=tmp_path)
        assert result.config == cfg
        assert result.records == quick_campaign.records

    def test_wrong_payload_type_falls_back(self, tmp_path):
        cfg = CampaignConfig.quick()
        path = tmp_path / f"campaign_{cfg.cache_key()}.pkl"
        with open(path, "wb") as fh:
            pickle.dump(["not", "a", "campaign"], fh)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            result = cached_campaign(cfg, cache_dir=tmp_path)
        assert isinstance(result, CampaignResult)


class TestGoldenCacheCorruption:
    """Both engines read one cross-checked trace per process, so a
    corrupt golden cache gives the same answer, only slower."""

    @pytest.mark.parametrize("kind", ("out", "header"))
    @pytest.mark.parametrize("batch", (0, None), ids=("scalar", "default"))
    def test_same_answer(self, tmp_path, monkeypatch, quick_campaign,
                         kind, batch):
        monkeypatch.setenv(GOLDEN_CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(parallel, "_TIERED_CACHE", {})
        run_campaign(SMALL, batch=batch)  # populates the cache
        for path in tmp_path.glob("*.npz"):
            corrupt_golden_cache(path, kind)
        monkeypatch.setattr(parallel, "_TIERED_CACHE", {})
        with pytest.warns(RuntimeWarning):
            result = run_campaign(CampaignConfig.quick(), batch=batch)
        assert result.digest() == quick_campaign.digest()
        assert result.meta["pruning"] == quick_campaign.meta["pruning"]
        assert result.injected == quick_campaign.injected
        assert result.golden_cycles == quick_campaign.golden_cycles


class TestCli:
    def test_workers_flag_parsed(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["campaign", "--workers", "4"])
        assert args.workers == 4

    def test_workers_default_serial(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["campaign"])
        assert args.workers == 1

    def test_executor_and_threads_flags_parsed(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["campaign", "--executor", "thread", "--cstep-threads", "4"])
        assert args.executor == "thread"
        assert args.cstep_threads == 4
        args = build_parser().parse_args(["campaign"])
        assert args.executor is None
        assert args.cstep_threads is None
