"""Parallel fault-injection campaign execution engine.

The paper's ~10M-experiment campaign ran on a server cluster; this
module reproduces that fan-out on one machine by sharding the
(benchmark × flop-chunk) work grid across a ``ProcessPoolExecutor``.
Each worker process builds its benchmark's :class:`GoldenTrace` once
(per-process cache) and runs its shard through a private
:class:`InjectionEngine`, so the only cross-process traffic is the
shard descriptions going out and the (records, counts) coming back.

Determinism
-----------

Campaign results are **bit-identical for any worker count, chunk size
or shard completion order**.  Two mechanisms guarantee this:

1.  *Keyed random substreams.*  Instead of one sequential generator
    whose draw order would depend on the execution schedule, every
    random decision is drawn from a ``numpy.random.SeedSequence``
    derived from the campaign seed and a structural key::

        sampling stream        SeedSequence(seed, spawn_key=(0,))
        schedule of (b, f)     SeedSequence(seed, spawn_key=(1, b, f))

    where ``b`` is the benchmark index and ``f`` the global index of
    the flop in the sampled list.  A flop's fault schedule therefore
    depends only on *which* flop it is, never on which worker runs it
    or what ran before it.

2.  *Deterministic merge.*  Shards may complete in any order, but the
    merge walks them in (benchmark index, flop base) order, so the
    merged record list equals the serial nested-loop order exactly.

The serial path (``workers=1``) runs the very same shards inline, so
``run_campaign`` is one code path with the pool as the only variable.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)
from dataclasses import dataclass

import numpy as np

from ..cpu.units import FlopRef
from ..workloads.kernels import KERNELS
from .arch import TieredGolden
from .golden import GoldenTrace
from .injector import InjectionEngine
from .kernels import cext_available, resolve_threads
from .models import ErrorRecord

#: spawn_key stream tags (first element of every derived key); minted
#: centrally in :mod:`repro.faults.streams`, re-exported here for the
#: historical import path.
from .streams import SAMPLING_STREAM, SCHEDULE_STREAM  # noqa: E402


def sampling_rng(seed: int) -> np.random.Generator:
    """The campaign's flop-sampling random stream."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(SAMPLING_STREAM,)))


def schedule_rng(seed: int, bench_idx: int, flop_idx: int) -> np.random.Generator:
    """The fault-schedule stream for one (benchmark, flop) cell.

    Keyed, not spawned sequentially: any worker can derive the stream
    for its cells without coordinating with the others.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(SCHEDULE_STREAM, bench_idx, flop_idx)))


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request (``None``/``0`` = all cores)."""
    if not workers:
        return os.cpu_count() or 1
    return max(1, int(workers))


#: Shard executor backends.  ``process`` (the default) fans shards out
#: to a ``ProcessPoolExecutor`` — fully general, required for the
#: GIL-bound scalar engine.  ``thread`` runs shard workers as
#: threads in this process: with the compiled kernel's ``drive()``
#: releasing the GIL, shard runners genuinely overlap while sharing
#: one golden cache and one import of everything — no process spawn,
#: no pickling, no per-worker re-derived goldens.
EXECUTOR_CHOICES = ("process", "thread")


def resolve_executor(executor: str | None) -> str:
    """Normalise an executor request (``None`` = ``process``)."""
    resolved = executor or "process"
    if resolved not in EXECUTOR_CHOICES:
        raise ValueError(
            f"unknown executor {resolved!r} "
            f"(choose from {EXECUTOR_CHOICES})")
    return resolved


@dataclass(frozen=True)
class Shard:
    """One unit of campaign work: a slice of flops on one benchmark."""

    bench_idx: int
    benchmark: str
    #: global index (into the sampled flop list) of ``flops[0]``.
    flop_base: int
    flops: tuple[FlopRef, ...]

    @property
    def order_key(self) -> tuple[int, int]:
        """Merge position; shards are combined in this order."""
        return (self.bench_idx, self.flop_base)


def resolve_chunk(n_flops: int, workers: int, chunk_flops: int | None,
                  batch: int | None = None) -> int:
    """The planned flops-per-shard chunk size.

    The scalar default aims at ~4 chunks per worker per benchmark for
    load balancing.  The batch engine (``batch`` as
    :func:`resolve_batch` returns it) amortizes each kernel call over
    lane occupancy, so it wants the deepest fault pool it can get: one
    shard per worker.  Because schedules are keyed per (benchmark,
    flop), the chunking never affects results, only wall-clock.
    """
    if chunk_flops is None:
        per_worker = 1 if batch else 4
        chunk_flops = max(1, -(-n_flops // max(1, per_worker * workers)))
    return max(1, int(chunk_flops))


def resolve_batch(batch: int | None,
                  threads: int | None = None) -> tuple[int | None, int | None]:
    """Decide once whether a run uses the batch engine.

    The batch engine runs when ``batch`` is non-zero and the compiled
    kernel loaded; this then returns its lane count and drive-loop
    thread count.  Otherwise the scalar engine runs and both are None.
    Every driver calls this once, so the shard plan, the engine each
    shard runs and the result meta all follow the same decision.
    """
    if not batch or not cext_available():
        return None, None
    batch = max(1, int(batch))
    return batch, resolve_threads(threads, lanes=batch)


def engine_meta(batch: int | None, threads: int | None) -> dict:
    """The ``batch``/``kernel``/``threads`` meta of a resolved run."""
    return {"batch": batch, "kernel": "cext" if batch else None,
            "threads": threads}


def plan_shards(benchmarks: tuple[str, ...], flops: list[FlopRef],
                workers: int, chunk_flops: int | None = None) -> list[Shard]:
    """Split the (benchmark × flop) grid into ordered shards."""
    chunk_flops = resolve_chunk(len(flops), workers, chunk_flops)
    return [
        Shard(b, bench, start, tuple(flops[start:start + chunk_flops]))
        for b, bench in enumerate(benchmarks)
        for start in range(0, len(flops), chunk_flops)
    ]


# -- worker side -------------------------------------------------------------

#: Per-process GoldenTrace cache: (benchmark, seed) -> trace.  Worker
#: processes are reused across shards, so each benchmark's golden run
#: is simulated at most once per process.  Under the thread executor
#: *all* shard runners share these dicts, which is the point — one
#: golden per process, not one per worker; the lock only serialises
#: construction (a miss), never a hit.
_GOLDEN_CACHE: dict[tuple[str, int], GoldenTrace] = {}
_CACHE_LOCK = threading.Lock()


def _golden_for(benchmark: str, seed: int) -> GoldenTrace:
    key = (benchmark, seed)
    golden = _GOLDEN_CACHE.get(key)
    if golden is None:
        with _CACHE_LOCK:
            golden = _GOLDEN_CACHE.get(key)
            if golden is None:
                # The on-disk cache (see repro.faults.golden) makes a
                # worker's first shard a trace *load*, not a simulation.
                golden = GoldenTrace.cached(KERNELS[benchmark], seed=seed)
                _GOLDEN_CACHE[key] = golden
    return golden


#: Per-process TieredGolden cache (batch path): (benchmark, seed) ->
#: handle.  Kept separate from _GOLDEN_CACHE so the tiers' lazy-load
#: bookkeeping survives across shards.
_TIERED_CACHE: dict[tuple[str, int], TieredGolden] = {}


def _tiered_for(benchmark: str, seed: int) -> TieredGolden:
    key = (benchmark, seed)
    tiered = _TIERED_CACHE.get(key)
    if tiered is None:
        with _CACHE_LOCK:
            tiered = _TIERED_CACHE.get(key)
            if tiered is None:
                tiered = TieredGolden(KERNELS[benchmark], seed=seed)
                _TIERED_CACHE[key] = tiered
    return tiered


def run_shard(config, shard: Shard, batch: int | None = None,
              threads: int | None = None) -> tuple[
        list[ErrorRecord], dict[tuple[str, str], int], int, dict[str, int]]:
    """Execute one shard.

    Returns (records, injected counts, golden cycles, pruning stats).
    Top-level so it pickles into pool workers; also called inline by
    the ``workers=1`` path.  The engine's dynamic-equivalence cache is
    per shard, which only affects how often the cache hits (a pure
    performance matter) — outcomes, and therefore the merged record
    list, are identical for any sharding.

    ``batch`` and ``threads`` are the lane and drive-loop thread counts
    :func:`resolve_batch` decided on: a lane count runs the batch
    engine (see :mod:`repro.faults.batch`), None runs the scalar
    engine.  Records and pruning stats are bit-identical for either.
    The batch path goes through
    :class:`~repro.faults.arch.TieredGolden`: scheduling uses the
    cheap ``n_cycles`` peek and the flop-accurate trace is loaded —
    architecturally cross-checked — only when the shard has faults to
    simulate.
    """
    from .campaign import schedule_faults

    if batch:
        from .batch import BatchInjectionEngine

        tiered = _tiered_for(shard.benchmark, config.seed)
        n_cycles = tiered.n_cycles
        faults = []
        injected: dict[tuple[str, str], int] = {}
        for offset, flop in enumerate(shard.flops):
            rng = schedule_rng(config.seed, shard.bench_idx,
                               shard.flop_base + offset)
            for fault in schedule_faults(flop, n_cycles, config, rng):
                key = (flop.unit, fault.kind.value)
                injected[key] = injected.get(key, 0) + 1
                faults.append(fault)
        if not faults:
            return [], injected, n_cycles, {}
        engine = BatchInjectionEngine(
            tiered.full, max_observe=config.max_observe,
            mask_check_stride=config.mask_check_stride,
            prune=config.prune, batch=batch, threads=threads)
        outcomes = engine.inject_all(faults)
        records = [r for r in outcomes if r is not None]
        return records, injected, n_cycles, engine.stats.as_dict()

    golden = _golden_for(shard.benchmark, config.seed)
    engine = InjectionEngine(golden, max_observe=config.max_observe,
                             mask_check_stride=config.mask_check_stride,
                             prune=config.prune)
    records: list[ErrorRecord] = []
    injected = {}
    for offset, flop in enumerate(shard.flops):
        rng = schedule_rng(config.seed, shard.bench_idx, shard.flop_base + offset)
        for fault in schedule_faults(flop, golden.n_cycles, config, rng):
            key = (flop.unit, fault.kind.value)
            injected[key] = injected.get(key, 0) + 1
            record = engine.inject(fault)
            if record is not None:
                records.append(record)
    return records, injected, golden.n_cycles, engine.stats.as_dict()


# -- controller side ---------------------------------------------------------

def execute_campaign(config, progress: bool = False, workers: int | None = 1,
                     chunk_flops: int | None = None,
                     batch: int | None = None,
                     executor: str | None = None,
                     threads: int | None = None):
    """Run a campaign across ``workers`` shard runners; merge deterministically.

    This is the engine behind :func:`repro.faults.run_campaign`; see
    that wrapper for the public contract.  ``batch``, ``executor`` and
    ``threads`` (like ``workers`` and ``chunk_flops``) are execution
    knobs, not part of the configuration: they select the batch engine,
    the shard fan-out (``process`` pool vs in-process ``thread`` pool —
    the latter shares one golden cache and relies on the compiled
    kernel releasing the GIL) and the drive-loop thread count, without
    entering the cache key, because results are bit-identical for any
    value.
    """
    from .campaign import CampaignResult, sample_flops

    workers = resolve_workers(workers)
    executor = resolve_executor(executor)
    batch, threads = resolve_batch(batch, threads)
    flops = sample_flops(config, sampling_rng(config.seed))
    sampled: dict[str, int] = {}
    for flop in flops:
        sampled[flop.unit] = sampled.get(flop.unit, 0) + 1

    chunk = resolve_chunk(len(flops), workers, chunk_flops, batch)
    shards = plan_shards(config.benchmarks, flops, workers, chunk)
    start = time.perf_counter()
    outcomes: dict[tuple[int, int], tuple] = {}
    # Running totals for progress lines — re-summing every shard's
    # record list on each completion would be O(shards^2).
    error_count = 0
    pruning: dict[str, int] = {}

    def _absorb(outcome) -> None:
        nonlocal error_count
        error_count += len(outcome[0])
        for key, count in outcome[3].items():
            pruning[key] = pruning.get(key, 0) + count

    if workers == 1 or len(shards) == 1:
        for i, shard in enumerate(shards):
            outcome = run_shard(config, shard, batch, threads)
            outcomes[shard.order_key] = outcome
            _absorb(outcome)
            if progress:
                print_progress(i + 1, len(shards), error_count, start,
                                pruning)
    else:
        pool_cls = (ThreadPoolExecutor if executor == "thread"
                    else ProcessPoolExecutor)
        with pool_cls(max_workers=workers) as pool:
            pending = {pool.submit(run_shard, config, shard, batch,
                                   threads): shard
                       for shard in shards}
            done_count = 0
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    shard = pending.pop(future)
                    outcome = future.result()
                    outcomes[shard.order_key] = outcome
                    _absorb(outcome)
                    done_count += 1
                    if progress:
                        print_progress(done_count, len(shards), error_count,
                                        start, pruning)

    records: list[ErrorRecord] = []
    injected: dict[tuple[str, str], int] = {}
    golden_cycles: dict[str, int] = {}
    for shard in shards:  # already in order_key order
        recs, inj, n_cycles = outcomes[shard.order_key][:3]
        records.extend(recs)
        for key, count in inj.items():
            injected[key] = injected.get(key, 0) + count
        golden_cycles[shard.benchmark] = n_cycles

    return CampaignResult(
        config=config,
        records=records,
        injected=injected,
        golden_cycles=golden_cycles,
        sampled_flops=sampled,
        wall_seconds=time.perf_counter() - start,
        meta={"workers": workers, "n_shards": len(shards),
              "chunk_flops": chunk, **engine_meta(batch, threads),
              "executor": executor, "pruning": pruning},
    )


def print_progress(done: int, n_shards: int, errors: int, start: float,
                    pruning: dict[str, int] | None = None) -> None:
    elapsed = time.perf_counter() - start
    extra = ""
    if pruning:
        pruned = pruning.get("soft_pruned", 0) + pruning.get("hard_pruned", 0)
        extra = (f" pruned={pruned}"
                 f" equiv={pruning.get('equiv_hits', 0)}"
                 f" saved={pruning.get('cycles_saved', 0)}cyc")
    print(f"[campaign] shard {done}/{n_shards} "
          f"errors={errors}{extra} t={elapsed:.0f}s", flush=True)
