"""Parallel campaign engine tests: sharding, seeding, determinism."""

import dataclasses
import os
import pickle
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.faults import (
    DEFAULT_BATCH,
    CampaignConfig,
    CampaignResult,
    ExecPlan,
    GoldenTrace,
    cached_campaign,
    cext_available,
    plan_shards,
    resolve_chunk,
    run_campaign,
    sample_flops,
    sampling_rng,
    schedule_faults,
    schedule_rng,
)
from repro.faults import GOLDEN_CACHE_ENV, _cstep, parallel
from repro.faults.parallel import execute_campaign
from repro.faults.service import run_resumable_campaign
from tests.conftest import corrupt_golden_cache

#: A campaign small enough to run several times per test.
SMALL = CampaignConfig(benchmarks=("ttsprk",), soft_per_flop=1,
                       hard_per_flop=1, flop_fraction=0.02, max_observe=300)

#: Meta keys that describe how a run executed, not what it found.
PLAN_KEYS = ("workers", "n_shards", "chunk_flops", "batch", "kernel")


def _plan(result) -> dict:
    return {key: result.meta[key] for key in PLAN_KEYS}


#: The directory :func:`_marking_run_shard` marks shards in; an
#: environment variable, so pool workers see it however they start.
MARKER_DIR_ENV = "SHARD_MARKER_DIR"


def _marking_run_shard(config, shard, plan=None):
    """A ``run_shard`` stand-in for the pool: leaves one marker file per
    shard it starts, fails on shard 0 at once and takes a moment on the
    others."""
    marker = f"{shard.bench_idx}_{shard.flop_base}"
    Path(os.environ[MARKER_DIR_ENV], marker).touch()
    if shard.flop_base == 0:
        raise RuntimeError("shard 0 failed")
    time.sleep(0.05)
    return [], {}, 0, {}


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
        assert ExecPlan(workers=1).resolve().workers == 1
        assert ExecPlan(workers=4).resolve().workers == 4
        assert ExecPlan(workers=0).resolve().workers >= 1

    def test_all_workers_means_usable_cpus(self, monkeypatch):
        """``0`` counts the CPUs this process may run on, not the
        host's."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert ExecPlan(workers=0).resolve().workers == 2


class TestExecPlan:
    @pytest.mark.parametrize("field,value", (
        ("workers", -3), ("batch", -5), ("chunk_flops", 0)))
    def test_out_of_range_value_names_its_field(self, field, value):
        """Nothing is clamped: ``--batch -5`` used to run 1 lane."""
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            ExecPlan(**{field: value})

    def test_zero_keeps_its_meaning(self):
        """``workers=0`` is every usable CPU, ``batch=0`` the scalar
        engine."""
        scalar = ExecPlan(workers=0, batch=0).resolve(n_flops=100)
        assert scalar.workers >= 1
        assert scalar.batch == 0
        assert scalar.chunk_flops == resolve_chunk(100, scalar.workers)
        assert scalar.meta()["batch"] is scalar.meta()["kernel"] is None

    def test_resolve_is_idempotent(self):
        for plan in (ExecPlan(), ExecPlan(workers=2, batch=0),
                     ExecPlan(workers=0, chunk_flops=7)):
            resolved = plan.resolve(n_flops=50)
            assert resolved.resolve(n_flops=999) == resolved


class TestShardLoop:
    @pytest.mark.parametrize("driver", ("execute", "ledger"))
    def test_failing_shard_stops_the_run(self, tmp_path, monkeypatch,
                                         driver):
        """A shard that raises ends the run once the shards in flight
        finish.  The monolithic driver used to submit all 54 shards up
        front, and its pool ran every one before the error surfaced."""
        markers = tmp_path / "markers"
        markers.mkdir()
        monkeypatch.setenv(MARKER_DIR_ENV, str(markers))
        monkeypatch.setattr(parallel, "run_shard", _marking_run_shard)
        config, plan = CampaignConfig.quick(), ExecPlan(workers=2,
                                                        chunk_flops=2)
        with pytest.raises(RuntimeError, match="shard 0 failed"):
            if driver == "execute":
                execute_campaign(config, plan=plan)
            else:
                run_resumable_campaign(config, plan=plan,
                                       ledger_dir=str(tmp_path / "ledger"))
        n_flops = len(sample_flops(config, sampling_rng(config.seed)))
        assert -(-n_flops // plan.chunk_flops) == 54
        assert 1 <= len(list(markers.iterdir())) <= 2 * plan.workers


class TestDeterminism:
    def test_parallel_matches_serial(self, quick_campaign):
        """The acceptance property: 4 workers, same campaign, bit for bit."""
        parallel = run_campaign(CampaignConfig.quick(),
                                plan=ExecPlan(workers=4))
        assert parallel.records == quick_campaign.records
        assert parallel.injected == quick_campaign.injected
        assert parallel.sampled_flops == quick_campaign.sampled_flops
        assert parallel.golden_cycles == quick_campaign.golden_cycles

    def test_chunk_size_does_not_change_results(self, quick_campaign):
        odd = run_campaign(CampaignConfig.quick(),
                           plan=ExecPlan(chunk_flops=3))
        assert odd.records == quick_campaign.records
        assert odd.injected == quick_campaign.injected

    def test_meta_records_execution_shape(self):
        result = run_campaign(CampaignConfig.quick(),
                              plan=ExecPlan(chunk_flops=50))
        assert result.meta["workers"] == 1
        assert result.meta["chunk_flops"] == 50
        assert result.meta["n_shards"] >= 1

    @pytest.mark.skipif(not cext_available(),
                        reason="compiled kernel unavailable")
    def test_process_pool_batch_cext_matches_serial(self, quick_campaign):
        """Process-pool shard runners × compiled kernel: the full
        fan-out still reproduces the serial digest, merged by order_key,
        never by completion."""
        pooled = run_campaign(CampaignConfig.quick(), plan=ExecPlan(
            workers=2, batch=32, chunk_flops=3))
        assert pooled.digest() == quick_campaign.digest()
        assert pooled.meta["pruning"] == quick_campaign.meta["pruning"]
        assert pooled.meta["workers"] == 2

    def test_meta_records_planned_chunk_not_first_shard_len(self):
        """chunk_flops must report the planned chunk size even when the
        sampled flop list is shorter than (or not a multiple of) it."""
        result = run_campaign(CampaignConfig.quick(),
                              plan=ExecPlan(chunk_flops=1000))
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
            plan = ExecPlan(workers=2, batch=batch)
            if driver == "execute":
                return run_campaign(SMALL, plan=plan)
            return run_resumable_campaign(
                SMALL, ledger_dir=str(tmp_path / str(batch)), plan=plan)

        zero, default = run(0), run(None)
        n_flops = len(sample_flops(SMALL, sampling_rng(SMALL.seed)))
        assert zero.meta["batch"] is zero.meta["kernel"] is None
        assert zero.meta["chunk_flops"] == resolve_chunk(n_flops, 2)
        if cext_available():
            assert default.meta["batch"] == DEFAULT_BATCH
            assert default.meta["kernel"] == "cext"
            assert default.meta["chunk_flops"] == resolve_chunk(
                n_flops, 2, batch=DEFAULT_BATCH)
        else:
            assert _plan(default) == _plan(zero)
        assert zero.records == default.records

    def test_no_compiler_falls_back_to_scalar(self, monkeypatch):
        scalar = run_campaign(SMALL, plan=ExecPlan(batch=0))
        monkeypatch.setattr(_cstep, "MODULE", None)
        monkeypatch.setattr(_cstep, "BUILD_ERROR", "no compiler on this host")
        fallback = run_campaign(SMALL, plan=ExecPlan(batch=64))
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
        scalar = run_campaign(SMALL, plan=ExecPlan(batch=0))
        monkeypatch.setattr(_cstep, "MODULE", None)
        monkeypatch.setattr(_cstep, "BUILD_ERROR", "no compiler on this host")
        default = run_campaign(SMALL)
        assert _plan(default) == _plan(scalar)
        assert default.meta["pruning"] == scalar.meta["pruning"]
        assert default.digest() == scalar.digest()


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

    @pytest.mark.parametrize("kind", ("out", "header", "mask", "state"))
    @pytest.mark.parametrize("batch", (0, None), ids=("scalar", "default"))
    def test_same_answer(self, tmp_path, monkeypatch, quick_campaign,
                         kind, batch):
        monkeypatch.setenv(GOLDEN_CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(parallel, "_GOLDEN_TRACES", {})
        plan = ExecPlan(batch=batch)
        run_campaign(SMALL, plan=plan)  # populates the cache
        for path in tmp_path.glob("*.npz"):
            corrupt_golden_cache(path, kind)
        monkeypatch.setattr(parallel, "_GOLDEN_TRACES", {})
        with pytest.warns(RuntimeWarning):
            result = run_campaign(CampaignConfig.quick(), plan=plan)
        assert result.digest() == quick_campaign.digest()
        assert result.meta["pruning"] == quick_campaign.meta["pruning"]
        assert result.injected == quick_campaign.injected
        assert result.golden_cycles == quick_campaign.golden_cycles


class TestGoldenTracePerProcess:
    def test_threads_build_a_cold_trace_once(self, tmp_path, monkeypatch):
        """Shards of one benchmark run from 4 threads of one process on
        a cold cache simulate its trace once, and write the cache file
        without a warning.  Every trace, compiled, Python-built or
        loaded, is set up by ``_attach``, so counting its calls counts
        both builds."""
        monkeypatch.setenv(GOLDEN_CACHE_ENV, str(tmp_path))
        builds = []
        attach = GoldenTrace._attach

        def counting_attach(self, *args, **kwargs):
            builds.append(args)
            attach(self, *args, **kwargs)

        monkeypatch.setattr(GoldenTrace, "_attach", counting_attach)
        # A seed no other test runs, so the process's own trace cache
        # is cold for it too.
        config = dataclasses.replace(SMALL, seed=20181020)
        flops = sample_flops(config, sampling_rng(config.seed))
        shard = parallel.Shard(0, "ttsprk", 0, tuple(flops[:2]))
        plan = ExecPlan(batch=0).resolve()
        barrier = threading.Barrier(4)

        def run():
            barrier.wait()
            return parallel.run_shard(config, shard, plan)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(run) for _ in range(4)]
                outcomes = [future.result() for future in futures]
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        assert len(builds) == 1
        assert all(outcome == outcomes[0] for outcome in outcomes)
        assert len(list(tmp_path.glob("*.npz"))) == 1


class TestCli:
    def test_workers_flag_parsed(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["campaign", "--workers", "4"])
        assert args.workers == 4

    def test_workers_default_serial(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["campaign"])
        assert args.workers == 1
