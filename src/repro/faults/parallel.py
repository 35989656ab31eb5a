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
    merge (:class:`~repro.faults.store.IncrementalResultStore`) walks
    them in (benchmark index, flop base) order, so the merged record
    list equals the serial nested-loop order exactly.

Every driver (:func:`execute_campaign`, the ledger runner and the
remote worker) feeds its shards through one loop, :func:`run_shards`,
under one resolved :class:`ExecPlan`.  The serial plan (``workers=1``)
runs the very same shards inline, so the pool is the only variable.
"""

from __future__ import annotations

import itertools
import operator
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from ..cpu.units import FlopRef
from ..workloads.kernels import KERNELS
from .golden import GoldenTrace
from .injector import InjectionEngine
from .kernels import cext_available, cext_module, usable_cpus
from .models import FAULT_KINDS, ErrorRecord, FaultColumns, FaultKind

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


def resolve_chunk(n_flops: int, workers: int, batch: int = 0) -> int:
    """The default flops-per-shard chunk size.

    The scalar engine (``batch=0``) aims at ~4 chunks per worker per
    benchmark for load balancing.  The batch engine amortizes each
    kernel call over lane occupancy, so it wants the deepest fault pool
    it can get: one shard per worker.  Because schedules are keyed per
    (benchmark, flop), the chunking never affects results, only
    wall-clock.
    """
    per_worker = 1 if batch else 4
    return max(1, -(-n_flops // (per_worker * workers)))


#: Lane count of the batch engine when a caller names none.  64 lanes
#: ran inject-deep's campaign as fast as 256 on one CPU with less
#: memory (DESIGN §5.15).
DEFAULT_BATCH = 64

#: The least value of each :class:`ExecPlan` field; None (auto) is
#: always allowed.
_PLAN_FLOORS = (("workers", 0), ("batch", 0), ("chunk_flops", 1))


@dataclass(frozen=True)
class ExecPlan:
    """How a campaign executes, never what it finds.

    Records and pruning stats are bit-identical for every plan, so no
    field enters a cache key.

    Attributes:
        workers: shard runners; ``1`` runs the shards inline, more run
            them on a process pool, ``0`` one per usable CPU.
        batch: lanes of the batch engine; None means
            :data:`DEFAULT_BATCH`, ``0`` the scalar engine.
        chunk_flops: flops per shard; None sizes them with
            :func:`resolve_chunk`.

    A value below its field's floor raises ``ValueError`` naming the
    field.  Drivers call :meth:`resolve` once per run and hand the
    resolved plan to every :func:`run_shard`.
    """

    workers: int = 1
    batch: int | None = None
    chunk_flops: int | None = None

    def __post_init__(self) -> None:
        for name, floor in _PLAN_FLOORS:
            value = getattr(self, name)
            if value is not None and value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value!r}")

    def resolve(self, n_flops: int | None = None) -> "ExecPlan":
        """This plan with concrete values.

        ``workers=0`` becomes the usable CPU count.  The batch engine
        runs when the lane count is non-zero and the compiled kernel
        loaded; otherwise the scalar engine runs and ``batch`` becomes
        ``0``.  ``n_flops``, the run's sampled-flop count, sizes a
        default ``chunk_flops``; a worker that plans no shards leaves
        it out.  Resolving a resolved plan returns an equal plan.
        """
        workers = self.workers or usable_cpus()
        batch = DEFAULT_BATCH if self.batch is None else self.batch
        if batch and not cext_available():
            batch = 0
        chunk_flops = self.chunk_flops
        if chunk_flops is None and n_flops is not None:
            chunk_flops = resolve_chunk(n_flops, workers, batch)
        return ExecPlan(workers, batch, chunk_flops)

    def meta(self) -> dict:
        """The result meta of a run on this resolved plan.

        ``batch``/``kernel`` name the engine that ran: the lane count
        and ``"cext"``, or both None for the scalar engine.
        """
        return {"workers": self.workers, "chunk_flops": self.chunk_flops,
                "batch": self.batch or None,
                "kernel": "cext" if self.batch else None}


def plan_shards(benchmarks: tuple[str, ...], flops: list[FlopRef],
                workers: int, chunk_flops: int | None = None) -> list[Shard]:
    """Split the (benchmark × flop) grid into ordered shards."""
    chunk_flops = chunk_flops or resolve_chunk(len(flops), workers)
    return [
        Shard(b, bench, start, tuple(flops[start:start + chunk_flops]))
        for b, bench in enumerate(benchmarks)
        for start in range(0, len(flops), chunk_flops)
    ]


# -- worker side -------------------------------------------------------------

#: Per-process golden-trace cache: (benchmark, seed) -> cross-checked
#: trace.  Worker processes are reused across shards, so each
#: benchmark's golden run is simulated (or loaded and cross-checked) at
#: most once per process, for either engine.  Library callers may run
#: shards from several threads of one process: a miss builds the trace
#: under the lock, so threads that miss together simulate it once (a
#: compiled build takes milliseconds and drops the GIL while it steps;
#: the Python build holds the GIL throughout), and a hit never takes it.
_GOLDEN_TRACES: dict[tuple[str, int], GoldenTrace] = {}
_CACHE_LOCK = threading.Lock()


def _golden_for(benchmark: str, seed: int) -> GoldenTrace:
    key = (benchmark, seed)
    golden = _GOLDEN_TRACES.get(key)
    if golden is None:
        with _CACHE_LOCK:
            golden = _GOLDEN_TRACES.get(key)
            if golden is None:
                golden = GoldenTrace.cached(KERNELS[benchmark], seed=seed)
                _GOLDEN_TRACES[key] = golden
    return golden


def run_shard(config, shard: Shard, plan: ExecPlan | None = None) -> tuple[
        list[ErrorRecord], dict[tuple[str, str], int], int, dict[str, int]]:
    """Execute one shard.

    Returns (records, injected counts, golden cycles, pruning stats).
    Top-level so it pickles into pool workers; also called inline by
    the ``workers=1`` path.  The engine's dynamic-equivalence cache is
    per shard, which only affects how often the cache hits (a pure
    performance matter) — outcomes, and therefore the merged record
    list, are identical for any sharding.

    ``plan`` is the run's resolved :class:`ExecPlan` (default: the
    default plan, resolved): ``plan.batch`` lanes run the batch engine
    (see :mod:`repro.faults.batch`) on the shard's fault columns,
    ``batch=0`` the scalar engine on :class:`~repro.faults.models.Fault`
    objects.  Records and pruning stats are bit-identical for either.
    Both engines read the process's one cross-checked trace of the
    benchmark (:meth:`~repro.faults.golden.GoldenTrace.cached`), and
    the shard is scheduled on its length.
    """
    plan = plan or ExecPlan().resolve()
    batch = plan.batch
    golden = _golden_for(shard.benchmark, config.seed)
    n_cycles = golden.n_cycles
    faults, injected = _schedule_shard(config, shard, n_cycles, batch)
    if not len(faults):
        return [], injected, n_cycles, {}
    options = dict(max_observe=config.max_observe,
                   mask_check_stride=config.mask_check_stride,
                   prune=config.prune)
    if batch:
        from .batch import BatchInjectionEngine

        engine = BatchInjectionEngine(golden, batch=batch, **options)
        outcomes = engine.inject_all(faults)
    else:
        engine = InjectionEngine(golden, **options)
        outcomes = map(engine.inject, faults)
    records = [r for r in outcomes if r is not None]
    return records, injected, n_cycles, engine.stats.as_dict()


def _schedule_shard(config, shard: Shard, n_cycles: int,
                    batch: int = 0) -> tuple[
        FaultColumns | list, dict[tuple[str, str], int]]:
    """The shard's faults in (flop, schedule) order, and their counts.

    The batch engine (``batch`` set) takes them as
    :class:`~repro.faults.models.FaultColumns`, which the compiled
    scheduler fills directly when it passed its first-use check
    (:func:`compiled_schedule`) and the interval grid is within its
    range.  Otherwise :func:`~repro.faults.campaign.schedule_faults`,
    the specification, draws each flop's from its keyed stream, as the
    :class:`~repro.faults.models.Fault` list the scalar engine takes
    (converted to columns for the batch engine).  Both give the same
    faults.
    """
    schedule = compiled_schedule() if batch else None
    if schedule is not None:
        scheduled = _schedule_compiled(schedule, config, shard, n_cycles)
        if scheduled is not None:
            return scheduled
    faults, injected = _schedule_numpy(config, shard, n_cycles)
    return (FaultColumns.from_faults(faults) if batch else faults), injected


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
    """:func:`_schedule_numpy`'s faults as columns, from one call of
    ``schedule`` (the compiled kernel's), or None outside its range."""
    n_intervals = max(1, min(config.intervals, n_cycles))
    longest = -(-n_cycles // n_intervals)
    if (n_intervals > COMPILED_MAX_INTERVALS
            or not 0 < longest <= COMPILED_MAX_INTERVAL_CYCLES):
        return None
    counts = ((FaultKind.SOFT, min(config.soft_per_flop, n_intervals)),
              (FaultKind.STUCK0, min(config.hard_per_flop, n_intervals)),
              (FaultKind.STUCK1, min(config.hard_per_flop, n_intervals)))
    kinds = np.array([FAULT_KINDS.index(kind) for kind, count in counts
                      for _ in range(count)], dtype=np.uint8)
    n_flops = len(shard.flops)
    cycles = np.empty(n_flops * len(kinds), dtype=np.int64)
    schedule(cycles, _entropy_words(config.seed), SCHEDULE_STREAM,
             shard.bench_idx, shard.flop_base, n_cycles, n_intervals,
             counts[0][1], counts[1][1])
    faults = FaultColumns(shard.flops,
                          np.repeat(np.arange(n_flops), len(kinds)),
                          np.tile(kinds, n_flops), cycles)
    per_unit: dict[str, int] = {}
    for flop in shard.flops:
        per_unit[flop.unit] = per_unit.get(flop.unit, 0) + 1
    injected = {(unit, kind.value): flops * count
                for unit, flops in per_unit.items()
                for kind, count in counts if count}
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
            compiled = _schedule_compiled(schedule, config, _PROBE_SHARD,
                                          n_cycles)
            faults, injected = _schedule_numpy(config, _PROBE_SHARD, n_cycles)
            ok = (compiled is not None and compiled[1] == injected
                  and compiled[0].faults() == faults)
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

def run_shards(config, plan: ExecPlan, shards, commit) -> None:
    """The one shard loop: run ``shards``, ``commit`` their outcomes.

    ``shards`` yields ``(shard_id, shard)`` pairs; each outcome goes to
    ``commit(shard_id, outcome)`` as it completes.  ``plan`` is
    resolved: one runner runs the shards inline, more run them on a
    process pool, never more than ``plan.workers`` at once.  A shard is
    drawn from ``shards`` only when a runner is free, so a lazy source
    (ledger or HTTP leases) is never drained ahead of its runners, and
    a shard that raises stops the run once the shards in flight finish.
    """
    shards = iter(shards)
    if plan.workers == 1:
        for shard_id, shard in shards:
            commit(shard_id, run_shard(config, shard, plan))
        return
    with ProcessPoolExecutor(max_workers=plan.workers) as pool:
        pending: dict = {}
        while True:
            for shard_id, shard in itertools.islice(
                    shards, plan.workers - len(pending)):
                pending[pool.submit(run_shard, config, shard, plan)] = shard_id
            if not pending:
                return
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                commit(pending.pop(future), future.result())


def execute_campaign(config, progress: bool = False,
                     plan: ExecPlan | None = None):
    """Run a campaign on ``plan``'s shard runners; merge deterministically.

    This is the engine behind :func:`repro.faults.run_campaign`; see
    that wrapper for the public contract.  ``plan`` (default:
    ``ExecPlan()``) is resolved once here and recorded in the result
    meta; it never enters the cache key, because results are
    bit-identical for every plan.
    """
    from .campaign import sample_flops
    from .store import IncrementalResultStore, unit_counts

    flops = sample_flops(config, sampling_rng(config.seed))
    plan = (plan or ExecPlan()).resolve(len(flops))
    shards = plan_shards(config.benchmarks, flops, plan.workers,
                         plan.chunk_flops)
    store = IncrementalResultStore(config, sampled_flops=unit_counts(flops))
    start = time.perf_counter()

    def commit(shard_id: int, outcome: tuple) -> None:
        store.add(shard_id, shards[shard_id].benchmark, outcome)
        if progress:
            print_progress(store.n_shards_merged, len(shards),
                           store.n_errors, start, store.pruning)

    run_shards(config, plan, enumerate(shards), commit)
    return store.result(wall_seconds=time.perf_counter() - start,
                        meta={**plan.meta(), "n_shards": len(shards)})


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
