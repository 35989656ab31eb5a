"""Parallel fault-injection campaign execution engine.

The paper's ~10M-experiment campaign ran on a server cluster; this
module reproduces that fan-out on one machine by sharding the
(benchmark × flop-chunk) work grid across a ``ProcessPoolExecutor``.
Each worker process builds its benchmark's :class:`GoldenTrace` once
(per-process cache) and runs its shard through a private injection
engine — the batch engine on the compiled kernel by default, the
scalar :class:`InjectionEngine` without a compiler or with
``batch=0`` — so the only cross-process traffic is the shard
descriptions going out and the (records, counts) coming back.

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
    or what ran before it.  With the batch engine the compiled kernel
    draws a whole shard's schedules in one call, bit-identical to
    these numpy streams (:func:`compiled_schedule`).

2.  *Deterministic merge.*  Shards may complete in any order, but the
    merge walks them in (benchmark index, flop base) order, so the
    merged record list equals the serial nested-loop order exactly.

The serial path (``workers=1``) runs the very same shards inline, so
``run_campaign`` is one code path with the pool as the only variable.
"""

from __future__ import annotations

import operator
import threading
import time
import warnings
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)
from dataclasses import dataclass

import numpy as np

from ..cpu.units import FlopRef
from ..workloads.kernels import KERNELS
from .arch import TieredGolden
from .injector import InjectionEngine
from .kernels import cext_available, cext_module, resolve_threads, usable_cpus
from .models import ErrorRecord, Fault, FaultKind

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
    """Normalise a worker-count request (``None``/``0`` = every usable CPU)."""
    if not workers:
        return usable_cpus()
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


#: Lane count of the batch engine when a caller names none.  64 lanes
#: ran inject-deep's campaign as fast as 256 on one CPU with less
#: memory (DESIGN §5.15).
DEFAULT_BATCH = 64


def resolve_batch(batch: int | None, threads: int | None = None,
                  workers: int = 1) -> tuple[int | None, int | None]:
    """Decide once whether a run uses the batch engine.

    ``None`` asks for the default, :data:`DEFAULT_BATCH` lanes; ``0``
    asks for the scalar engine.  The batch engine runs when the
    resolved lane count is non-zero and the compiled kernel loaded;
    this then returns that lane count and the drive-loop thread count
    (the usable CPUs shared among ``workers`` concurrent shard
    runners, see :func:`~repro.faults.kernels.resolve_threads`).
    Otherwise the scalar engine runs and both are None.  Every driver
    calls this once, so the shard plan, the engine each shard runs and
    the result meta all follow the same decision.
    """
    if batch is None:
        batch = DEFAULT_BATCH
    if not batch or not cext_available():
        return None, None
    batch = max(1, int(batch))
    return batch, resolve_threads(threads, lanes=batch, workers=workers)


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

#: Per-process golden-trace cache: (benchmark, seed) -> two-tier handle.
#: Worker processes are reused across shards, so each benchmark's
#: golden run is simulated (or loaded and cross-checked) at most once
#: per process, for either engine.  Under the thread executor *all*
#: shard runners share this dict, which is the point — one golden per
#: process, not one per worker; the lock only serialises construction
#: (a miss), never a hit.
_TIERED_CACHE: dict[tuple[str, int], TieredGolden] = {}
_CACHE_LOCK = threading.Lock()


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
    Both engines go through the same
    :class:`~repro.faults.arch.TieredGolden`: scheduling uses the
    cheap ``n_cycles`` peek and the flop-accurate trace is loaded —
    architecturally cross-checked — only when the shard has faults to
    simulate.
    """
    tiered = _tiered_for(shard.benchmark, config.seed)
    n_cycles = tiered.n_cycles
    faults, injected = _schedule_shard(config, shard, n_cycles, batch)
    if not faults:
        return [], injected, n_cycles, {}
    golden = tiered.full
    if golden.n_cycles != n_cycles:
        # The trace cache's header disagreed with its trace, which
        # ``full`` then rebuilt: schedule on the real length, so a
        # corrupt cache never changes the answer.
        n_cycles = golden.n_cycles
        faults, injected = _schedule_shard(config, shard, n_cycles, batch)
    options = dict(max_observe=config.max_observe,
                   mask_check_stride=config.mask_check_stride,
                   prune=config.prune)
    if batch:
        from .batch import BatchInjectionEngine

        engine = BatchInjectionEngine(golden, batch=batch, threads=threads,
                                      **options)
        outcomes = engine.inject_all(faults)
    else:
        engine = InjectionEngine(golden, **options)
        outcomes = map(engine.inject, faults)
    records = [r for r in outcomes if r is not None]
    return records, injected, n_cycles, engine.stats.as_dict()


def _schedule_shard(config, shard: Shard, n_cycles: int,
                    batch: int | None = None) -> tuple[
        list, dict[tuple[str, str], int]]:
    """The shard's faults in (flop, schedule) order, and their counts.

    With the batch engine (``batch`` set) the compiled scheduler draws
    them, when it passed its first-use check (:func:`compiled_schedule`)
    and the interval grid is within its range; otherwise
    :func:`~repro.faults.campaign.schedule_faults`, the specification,
    draws each flop's from its keyed stream.  Both give the same
    faults.
    """
    schedule = compiled_schedule() if batch else None
    if schedule is not None:
        scheduled = _schedule_compiled(schedule, config, shard, n_cycles)
        if scheduled is not None:
            return scheduled
    return _schedule_numpy(config, shard, n_cycles)


def _schedule_numpy(config, shard: Shard, n_cycles: int) -> tuple[
        list, dict[tuple[str, str], int]]:
    from .campaign import schedule_faults

    faults = []
    injected: dict[tuple[str, str], int] = {}
    for offset, flop in enumerate(shard.flops):
        rng = schedule_rng(config.seed, shard.bench_idx,
                           shard.flop_base + offset)
        for fault in schedule_faults(flop, n_cycles, config, rng):
            key = (flop.unit, fault.kind.value)
            injected[key] = injected.get(key, 0) + 1
            faults.append(fault)
    return faults, injected


#: The compiled scheduler's range.  It mirrors numpy's
#: ``Generator.choice`` only on the Floyd path, which numpy takes for
#: populations of at most this many intervals, and draws 32-bit
#: bounded integers only, so intervals of at most ``2**32`` cycles.
COMPILED_MAX_INTERVALS = 10_000
COMPILED_MAX_INTERVAL_CYCLES = 2**32


def _schedule_compiled(schedule, config, shard: Shard, n_cycles: int):
    """:func:`_schedule_numpy`'s result from one call of ``schedule``
    (the compiled kernel's), or None outside its range."""
    n_intervals = max(1, min(config.intervals, n_cycles))
    longest = -(-n_cycles // n_intervals)
    if (n_intervals > COMPILED_MAX_INTERVALS
            or not 0 < longest <= COMPILED_MAX_INTERVAL_CYCLES):
        return None
    counts = ((FaultKind.SOFT, min(config.soft_per_flop, n_intervals)),
              (FaultKind.STUCK0, min(config.hard_per_flop, n_intervals)),
              (FaultKind.STUCK1, min(config.hard_per_flop, n_intervals)))
    kinds = [kind for kind, count in counts for _ in range(count)]
    cycles = np.empty(len(shard.flops) * len(kinds), dtype=np.int64)
    schedule(cycles, _entropy_words(config.seed), SCHEDULE_STREAM,
             shard.bench_idx, shard.flop_base, n_cycles, n_intervals,
             counts[0][1], counts[1][1])
    cells = ((flop, kind) for flop in shard.flops for kind in kinds)
    faults = [Fault(flop, kind, cycle)
              for (flop, kind), cycle in zip(cells, cycles.tolist())]
    injected: dict[tuple[str, str], int] = {}
    for flop in shard.flops:
        for kind, count in counts:
            if count:
                key = (flop.unit, kind.value)
                injected[key] = injected.get(key, 0) + count
    return faults, injected


def _entropy_words(value: int) -> np.ndarray:
    """``value`` split as ``SeedSequence`` splits an int entropy: its
    32-bit words, low first (``0`` is one word)."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


#: Cells the compiled scheduler must reproduce before a process uses
#: it: (seed, ``CampaignConfig`` fields, golden length), each on the
#: flops of :data:`_PROBE_SHARD`.  Between them they take one-, two-
#: and three-word seeds and flop indices of one and two words, Floyd
#: collisions (counts near the interval count), counts above it, fewer
#: cycles than intervals, Lemire rejections (one interval of
#: ``2**31 + 1`` cycles) and unbounded 32-bit draws (intervals of
#: exactly ``2**32`` cycles).
_SCHEDULE_PROBES = (
    (20180615, {}, 13_519),
    (2**40 + 7, {"soft_per_flop": 60, "hard_per_flop": 70}, 6_400),
    (2**70 + 5, {"soft_per_flop": 8}, 50),
    (1, {"intervals": 1}, 2**31 + 1),
    (3, {"intervals": 2}, 2**33),
)
_PROBE_SHARD = Shard(3, "probe", 2**32 - 2,
                     (FlopRef("pc", 0), FlopRef("flags", 1),
                      FlopRef("pc", 31), FlopRef("flags", 2)))

#: :func:`compiled_schedule`'s verdict in this process; the sentinel
#: until its first call.
_UNCHECKED = object()
_SCHEDULE = _UNCHECKED
_SCHEDULE_LOCK = threading.Lock()


def compiled_schedule():
    """The compiled kernel's ``schedule``, or None to schedule with numpy.

    numpy does not promise that ``Generator`` methods draw the same
    values across releases, so the first call in a process checks the
    compiled scheduler against ``schedule_faults`` on
    :data:`_SCHEDULE_PROBES`.  On a mismatch it warns once and returns
    None for the rest of the process: a host with a compiler then
    still gives the digests of a host without one.
    """
    global _SCHEDULE
    if _SCHEDULE is _UNCHECKED:
        with _SCHEDULE_LOCK:
            if _SCHEDULE is _UNCHECKED:
                _SCHEDULE = _checked_schedule()
    return _SCHEDULE


def _checked_schedule():
    from .campaign import CampaignConfig

    schedule = getattr(cext_module(), "schedule", None)
    if schedule is None:
        return None
    for seed, fields, n_cycles in _SCHEDULE_PROBES:
        config = CampaignConfig(seed=seed, **fields)
        try:
            ok = (_schedule_compiled(schedule, config, _PROBE_SHARD, n_cycles)
                  == _schedule_numpy(config, _PROBE_SHARD, n_cycles))
        except Exception as exc:  # noqa: BLE001 - any failure means numpy
            ok, why = False, f"{type(exc).__name__}: {exc}"
        else:
            why = "different fault cycles"
        if not ok:
            warnings.warn(
                f"the compiled fault scheduler disagrees with numpy "
                f"{np.__version__} (seed {seed}, {fields}, {n_cycles} "
                f"cycles: {why}); scheduling with numpy in this process",
                RuntimeWarning)
            return None
    return schedule


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
    knobs, not part of the configuration: they select the engine
    (``None``: the batch engine with :data:`DEFAULT_BATCH` lanes when
    the compiled kernel loads, else scalar; ``0``: scalar), the shard
    fan-out (``process`` pool vs in-process ``thread`` pool — the
    latter shares one golden cache and relies on the compiled kernel
    releasing the GIL) and the drive-loop thread count, without
    entering the cache key, because results are bit-identical for any
    value.
    """
    from .campaign import CampaignResult, sample_flops

    workers = resolve_workers(workers)
    executor = resolve_executor(executor)
    batch, threads = resolve_batch(batch, threads, workers)
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
