"""The compiled batch kernel: resolution, per-cycle semantics, parity.

Three layers of guarantee around the C extension:

* **resolution** — ``resolve_kernel()`` names the engine a batch
  request runs on, and the batch engine refuses to start without the
  kernel (the campaign drivers fall back to the scalar engine instead,
  see tests/test_parallel.py);
* **per-cycle semantics** — the kernel's ``step`` is pinned to the
  specification, ``Cpu.step``: after every kernel step each lane's
  state and memory must equal a ``Cpu`` restored from that lane's
  pre-step column and stepped once.  This runs on real workload faults
  and on generated programs that arm traps, MPU regions, watchpoints,
  IRQs and store-buffer bursts;
* **engine parity** — the fused ``drive`` loop reproduces the scalar
  engine's records and PruneStats for any batch and thread count, on
  the workloads and on golden traces of generated and directed corner
  programs;
* **scheduling** — the kernel's ``schedule`` writes the fault cycles
  the specification, ``schedule_faults``, draws from each cell's keyed
  numpy stream, and a scheduler that disagrees is caught on first use.
"""

from __future__ import annotations

import os
import random
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cpu import Cpu, InputStream, Memory, assemble
from repro.cpu.units import REG_INDEX, REGISTRY, all_flops
from repro.faults import (
    DEFAULT_BATCH,
    BatchInjectionEngine,
    CampaignConfig,
    ExecPlan,
    GoldenTrace,
    InjectionEngine,
    cext_available,
    resolve_kernel,
    resolve_threads,
    run_campaign,
    sample_flops,
    schedule_faults,
)
from repro.faults import _cstep, kernels, parallel
from repro.faults.batch import N_REGS, N_ROWS, ZERO_ROW, _cext_tables
from repro.faults.parallel import Shard, sampling_rng, schedule_rng
from repro.faults.streams import SCHEDULE_STREAM
from repro.verify.diff import DEFAULT_MAX_CYCLES
from repro.verify.progen import (FUZZ_MEM_WORDS, PROLOGUE_LINES,
                                 program_strategy)
from repro.workloads.kernels import Workload

QUICK = CampaignConfig.quick()

needs_cext = pytest.mark.skipif(
    not cext_available(),
    reason=f"compiled kernel unavailable: {kernels.cext_build_error()}")

_HALTED = REG_INDEX["halted"]


# -- resolution --------------------------------------------------------------

def test_resolve_auto_picks_a_backend():
    assert resolve_kernel() == ("cext" if cext_available() else "scalar")


def test_explicit_cext_fails_loudly_when_unavailable(monkeypatch,
                                                     ttsprk_golden):
    """Drivers downgrade silently; the batch engine itself, the one
    explicit request for the kernel, fails with the build error."""
    monkeypatch.setattr(_cstep, "MODULE", None)
    monkeypatch.setattr(_cstep, "BUILD_ERROR", "no compiler on this host")
    assert resolve_kernel() == "scalar"
    with pytest.raises(RuntimeError, match="no compiler on this host"):
        BatchInjectionEngine(ttsprk_golden)


# -- per-cycle semantics: the kernel against Cpu.step -------------------------

def _kernel_step_matches_cpu(S, M, stim, n, cpu) -> int:
    """One kernel step of lanes ``0..n-1``, each checked against ``cpu``.

    ``cpu`` is restored from the lane's pre-step column and memory and
    stepped once with ``Cpu.step()``.  Halted lanes are outside the
    kernel's contract and are not checked: ``Cpu.step`` freezes a
    halted core, while ``drive()`` has no run mask and never needs one
    (a lane that halts diverges from the golden ports, which never
    show ``halted``, and is retired before it would be stepped).
    Returns the number of lanes checked.
    """
    pre_state = S[:N_REGS, :n].T.tolist()
    pre_mem = M[:n].tolist()
    kernels.cext_module().step(S, M, stim, _cext_tables(), n)
    checked = 0
    for i in range(n):
        if pre_state[i][_HALTED]:
            continue
        cpu.restore(pre_state[i])
        cpu.mem.words[:] = pre_mem[i]
        cpu.step()
        got, want = S[:N_REGS, i].tolist(), cpu.snapshot()
        assert got == list(want), (
            f"lane {i}: kernel differs from Cpu.step in "
            f"{[spec.name for spec, a, b in zip(REGISTRY, got, want) if a != b]}")
        assert S[ZERO_ROW, i] == 0, f"lane {i}: zero row written"
        assert M[i].tolist() == cpu.mem.words, (
            f"lane {i}: kernel memory differs from Cpu.step")
        checked += 1
    return checked


def _shard_faults(golden, flop_idxs, cfg):
    flops = sample_flops(cfg, sampling_rng(cfg.seed))
    faults = []
    for idx in flop_idxs:
        faults.extend(schedule_faults(
            flops[idx], golden.n_cycles, cfg,
            schedule_rng(cfg.seed, 0, idx)))
    return faults


@needs_cext
@pytest.mark.parametrize("trial,batch", ((0, 8), (1, 32)))
def test_per_cycle_state_parity(ttsprk_golden, trial, batch):
    """Lanes seeded from a random shard of real faults, forces applied
    every cycle as ``drive()`` applies them, equal ``Cpu.step`` after
    every kernel step for 256 cycles."""
    cfg = QUICK
    n_flops = len(sample_flops(cfg, sampling_rng(cfg.seed)))
    rnd = random.Random(5150 + trial)
    idxs = sorted(rnd.sample(range(n_flops), k=min(24, n_flops)))
    faults = _shard_faults(ttsprk_golden, idxs, cfg)
    engine = BatchInjectionEngine(ttsprk_golden, max_observe=cfg.max_observe,
                                  mask_check_stride=cfg.mask_check_stride,
                                  batch=batch)
    engine._outcomes = [None] * len(faults)
    engine._seed_many(deque(engine._triage(faults)))
    n = engine._n
    assert n > 0
    lanes = np.arange(n)
    rows = engine.force_row[:n]
    cpu = Cpu(Memory(ttsprk_golden.mem_words), ttsprk_golden.stimulus)
    checked = 0
    for _ in range(256):
        S = engine.S
        S[rows, lanes] = (S[rows, lanes] & engine.force_and[:n]) \
            | engine.force_or[:n]
        checked += _kernel_step_matches_cpu(S, engine.M, engine._stim, n, cpu)
    assert checked > 0


@needs_cext
@settings(max_examples=40, deadline=None)
@given(prog=program_strategy(),
       lane_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_step_matches_cpu_step_on_generated_programs(prog, lane_seed):
    """Property: on ``verify.progen`` programs, which arm traps, MPU
    regions, watchpoints, IRQs and store-buffer bursts, the kernel
    equals ``Cpu.step`` for up to 64 cycles from a random pre-halt
    cycle, with a random flop bit flipped in half the lanes."""
    program = assemble(prog.source())
    stimulus = InputStream(prog.stimulus)

    def boot() -> Cpu:
        return Cpu(Memory.from_program(program, size_words=FUZZ_MEM_WORDS),
                   stimulus, entry=program.entry)

    n_cycles = boot().run(DEFAULT_MAX_CYCLES)
    rnd = random.Random(lane_seed)
    lanes = 8
    starts = sorted(rnd.randrange(n_cycles) for _ in range(lanes))
    S = np.zeros((N_ROWS, lanes), dtype=np.uint32)
    M = np.zeros((lanes, FUZZ_MEM_WORDS), dtype=np.uint32)
    golden = boot()
    t = 0
    for i, start in enumerate(starts):
        for _ in range(start - t):
            golden.step()
        t = start
        S[:N_REGS, i] = golden.snapshot()
        M[i] = golden.mem.words
        if i % 2:
            spec = rnd.choice(REGISTRY)
            S[REG_INDEX[spec.name], i] ^= 1 << rnd.randrange(spec.width)
    stim = np.array(stimulus.values, dtype=np.uint32)
    oracle = boot()
    for _ in range(64):
        if not _kernel_step_matches_cpu(S, M, stim, lanes, oracle):
            break


#: Directed corners the generated programs do not reach: a load from
#: the other word of a pending store's 8-byte block (no drain) next to
#: same-word drains, and stores exactly at and just below an MPU limit.
_CORNER_PROGRAMS = {
    "sb_neighbour_word": """
    addi r14, r0, 4096
    addi r1, r0, 7
    st   r1, 0(r14)
    ld   r2, 4(r14)
    stb  r1, 5(r14)
    ldb  r3, 4(r14)
    st   r2, 8(r14)
    ld   r3, 8(r14)
    stb  r3, 13(r14)
    ld   r4, 12(r14)
""",
    "mpu_limit": """
    addi r14, r0, 4096
    addi r1, r0, 4096
    csrw r1, 14
    addi r1, r0, 4112
    csrw r1, 18
    addi r1, r0, 3
    csrw r1, 22
    st   r1, 16(r14)
    ld   r2, 16(r14)
    st   r1, 12(r14)
""",
}


@needs_cext
@pytest.mark.parametrize("name", sorted(_CORNER_PROGRAMS))
def test_step_matches_cpu_step_on_corner_programs(name):
    """Every cycle of a directed program, one lane per cycle, equals
    ``Cpu.step`` after one kernel step."""
    source = "\n".join(PROLOGUE_LINES) + _CORNER_PROGRAMS[name] + "    halt\n"
    program = assemble(source)
    cpu = Cpu(Memory.from_program(program, size_words=FUZZ_MEM_WORDS),
              InputStream([0]), entry=program.entry)
    states, memories = [], []
    while not cpu.halted:
        states.append(cpu.snapshot())
        memories.append(list(cpu.mem.words))
        cpu.step()
    S = np.zeros((N_ROWS, len(states)), dtype=np.uint32)
    S[:N_REGS] = np.array(states, dtype=np.uint32).T
    M = np.array(memories, dtype=np.uint32)
    assert _kernel_step_matches_cpu(S, M, np.zeros(1, dtype=np.uint32),
                                    len(states), cpu) == len(states)


# -- engine-level parity through the fused drive loop ------------------------

def _assert_cext_parity(golden, faults, cfg, prune=True, **batch_kwargs):
    scalar = InjectionEngine(golden, max_observe=cfg.max_observe,
                             mask_check_stride=cfg.mask_check_stride,
                             prune=prune)
    expected = [scalar.inject(f) for f in faults]
    engine = BatchInjectionEngine(golden, max_observe=cfg.max_observe,
                                  mask_check_stride=cfg.mask_check_stride,
                                  prune=prune, **batch_kwargs)
    assert engine.inject_all(faults) == expected
    assert engine.stats.as_dict() == scalar.stats.as_dict()


@needs_cext
@pytest.mark.parametrize("trial,batch", ((0, 3), (1, 17), (2, 128)))
def test_cext_random_shard_parity(ttsprk_golden, trial, batch):
    """Records + PruneStats parity scalar vs cext on random shards."""
    cfg = QUICK
    n_flops = len(sample_flops(cfg, sampling_rng(cfg.seed)))
    rnd = random.Random(20180615 + trial)  # same shards as test_batch
    idxs = sorted(rnd.sample(range(n_flops), k=min(12, n_flops)))
    faults = _shard_faults(ttsprk_golden, idxs, cfg)
    assert faults
    _assert_cext_parity(ttsprk_golden, faults, cfg, batch=batch)


@needs_cext
def test_cext_unpruned_parity(ttsprk_golden):
    cfg = QUICK
    faults = _shard_faults(ttsprk_golden, range(6), cfg)
    _assert_cext_parity(ttsprk_golden, faults, cfg, prune=False, batch=8)


# -- engine-differential fuzzing on generated and corner programs ------------

#: Fault mix of the engine-differential checks: ``CampaignConfig.default()``'s
#: (2 soft, 1 stuck-at per polarity per flop).
_DIFF_CFG = CampaignConfig(soft_per_flop=2, hard_per_flop=1, max_observe=600)


def _program_golden(source: str, stimulus: list[int]) -> GoldenTrace | None:
    """Golden trace of a test program, or None when it does not halt."""
    workload = Workload(name="engine_diff", description="test program",
                        source=source, stimulus=lambda seed: list(stimulus),
                        reference=lambda values: [])
    try:
        return GoldenTrace(workload, max_cycles=DEFAULT_MAX_CYCLES,
                           mem_words=FUZZ_MEM_WORDS)
    except RuntimeError:  # no HALT within the cycle budget
        return None


def _random_faults(golden: GoldenTrace, seed: int, n_flops: int) -> list:
    """``schedule_faults`` on ``n_flops`` random flops of the core."""
    rnd = random.Random(seed)
    faults = []
    for i, flop in enumerate(rnd.sample(all_flops(), n_flops)):
        faults.extend(schedule_faults(flop, golden.n_cycles, _DIFF_CFG,
                                      np.random.default_rng([seed, i])))
    return faults


@needs_cext
@settings(max_examples=40, deadline=None)
@given(prog=program_strategy(),
       fault_seed=st.integers(min_value=0, max_value=2**32 - 1),
       batch=st.sampled_from((1, 7, 64)), prune=st.booleans())
def test_engines_agree_on_generated_programs(prog, fault_seed, batch, prune):
    """Property: on golden traces of ``verify.progen`` programs (traps,
    MPU, watchpoints, IRQs, store-buffer bursts), the batch engine's
    ``drive()`` loop gives the scalar engine's records and PruneStats
    for faults scheduled on random flops."""
    golden = _program_golden(prog.source(), prog.stimulus)
    assume(golden is not None)
    faults = _random_faults(golden, fault_seed, n_flops=16)
    _assert_cext_parity(golden, faults, _DIFF_CFG, prune=prune, batch=batch)


@needs_cext
@pytest.mark.parametrize("name", sorted(_CORNER_PROGRAMS))
def test_engines_agree_on_corner_programs(name):
    """The same records/PruneStats parity on the directed corners."""
    source = "\n".join(PROLOGUE_LINES) + _CORNER_PROGRAMS[name] + "    halt\n"
    golden = _program_golden(source, [0])
    assert golden is not None
    faults = _random_faults(golden, seed=1701, n_flops=256)
    _assert_cext_parity(golden, faults, _DIFF_CFG, batch=16)


# -- campaign-level wiring ----------------------------------------------------

@needs_cext
def test_campaign_kernel_digest_parity(quick_campaign):
    """digest() + pruning stats of the compiled kernel equal scalar."""
    result = run_campaign(QUICK, plan=ExecPlan(batch=64))
    assert result.digest() == quick_campaign.digest()
    assert result.meta["pruning"] == quick_campaign.meta["pruning"]
    assert result.meta["kernel"] == "cext"


def test_campaign_meta_kernel_none_for_scalar(quick_campaign):
    """The scalar engine (``batch=0``, as the fixture runs it) has no
    step kernel; meta records that."""
    assert quick_campaign.meta["batch"] is None
    assert quick_campaign.meta.get("kernel") is None


# -- drive-loop thread resolution ---------------------------------------------

def test_resolve_threads_explicit_and_clamped():
    assert resolve_threads(4) == 4
    assert resolve_threads(1) == 1
    assert resolve_threads(0) == 1
    assert resolve_threads(-3) == 1


def _pin_cpus(monkeypatch, n: int) -> None:
    """Pretend this process may run on ``n`` CPUs (of a larger host)."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4 * n)


def test_resolve_threads_autosize(monkeypatch):
    _pin_cpus(monkeypatch, 8)
    # One thread per usable CPU, but never slices below 16 lanes/thread.
    assert resolve_threads(None, lanes=256) == 8
    assert resolve_threads(None, lanes=64) == 4
    assert resolve_threads(None, lanes=16) == 1
    assert resolve_threads(None, lanes=8) == 1


def test_resolve_threads_counts_affinity_not_host(monkeypatch):
    """A process pinned to one CPU of a bigger host drives one thread."""
    _pin_cpus(monkeypatch, 1)
    assert kernels.usable_cpus() == 1
    assert resolve_threads(None, lanes=256) == 1
    assert resolve_threads(None) == 1


def test_resolve_threads_divides_cpus_among_workers(monkeypatch):
    """``workers`` shard runners share the usable CPUs, so the automatic
    count never oversubscribes them; an explicit count is kept."""
    _pin_cpus(monkeypatch, 8)
    assert resolve_threads(None, lanes=256, workers=2) == 4
    assert resolve_threads(None, lanes=256, workers=8) == 1
    assert resolve_threads(None, lanes=256, workers=16) == 1
    assert resolve_threads(3, lanes=256, workers=8) == 3
    plan = ExecPlan(workers=4).resolve()
    assert (plan.batch, plan.threads) == (
        (DEFAULT_BATCH, 2) if cext_available() else (0, None))


def test_usable_cpus_without_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert kernels.usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert kernels.usable_cpus() == 1


@needs_cext
def test_engine_records_threads(ttsprk_golden):
    engine = BatchInjectionEngine(ttsprk_golden, batch=64, threads=5)
    assert engine.threads == 5
    auto = BatchInjectionEngine(ttsprk_golden, batch=32)
    assert auto.threads >= 1


# -- multithreaded drive parity ----------------------------------------------

@needs_cext
@pytest.mark.parametrize("threads,batch", (
    (1, 32),    # single-thread path
    (4, 17),    # odd remainder: slices of 5/4/4/4 lanes
    (4, 3),     # threads > lanes: clamps to one slice per lane
    (8, 64),
))
def test_cext_threaded_parity(ttsprk_golden, threads, batch):
    """Records + PruneStats identical to the scalar engine for any
    (threads, batch) — lane slices merge in lane order, so the thread
    count is a pure wall-clock knob."""
    cfg = QUICK
    faults = _shard_faults(ttsprk_golden, range(12), cfg)
    assert faults
    _assert_cext_parity(ttsprk_golden, faults, cfg, batch=batch,
                        threads=threads)


@needs_cext
def test_cext_pool_spawns_workers(ttsprk_golden):
    """A multithreaded drive actually stands up pool workers."""
    cfg = QUICK
    faults = _shard_faults(ttsprk_golden, range(6), cfg)
    engine = BatchInjectionEngine(ttsprk_golden, max_observe=cfg.max_observe,
                                  mask_check_stride=cfg.mask_check_stride,
                                  batch=32, threads=3)
    engine.inject_all(faults)
    assert kernels.cext_module().pool_size() >= 2


_SERIAL_REFERENCE: dict = {}


def _serial_reference(golden, cfg):
    """Scalar-engine records+stats for the hypothesis shard, once."""
    if "ref" not in _SERIAL_REFERENCE:
        faults = _shard_faults(golden, range(8), cfg)
        scalar = InjectionEngine(golden, max_observe=cfg.max_observe,
                                 mask_check_stride=cfg.mask_check_stride)
        records = [scalar.inject(f) for f in faults]
        _SERIAL_REFERENCE["ref"] = (faults, records, scalar.stats.as_dict())
    return _SERIAL_REFERENCE["ref"]


@needs_cext
@settings(max_examples=12, deadline=None)
@given(threads=st.integers(min_value=1, max_value=9),
       batch=st.integers(min_value=1, max_value=48))
def test_any_threads_batch_reproduces_serial(ttsprk_golden, threads, batch):
    """Property: every (threads, batch) pair reproduces the serial
    outcome sequence and pruning stats exactly."""
    cfg = QUICK
    faults, records, stats = _serial_reference(ttsprk_golden, cfg)
    engine = BatchInjectionEngine(ttsprk_golden, max_observe=cfg.max_observe,
                                  mask_check_stride=cfg.mask_check_stride,
                                  batch=batch, threads=threads)
    assert engine.inject_all(faults) == records
    assert engine.stats.as_dict() == stats


# -- compiled fault scheduling ------------------------------------------------

_FLOPS = all_flops()


@st.composite
def _schedule_cells(draw):
    """A shard of (benchmark, flop) cells and its golden length."""
    seed = draw(st.one_of(st.integers(0, 2**32 - 1),       # one word
                          st.integers(2**32, 2**64 - 1),   # two
                          st.integers(2**64, 2**96 - 1)))  # three
    intervals = draw(st.one_of(st.integers(1, 80),
                               st.sampled_from((10_000, 10_001))))
    n_cycles = draw(st.one_of(
        st.integers(1, 3 * intervals),  # often fewer cycles than intervals
        st.just(2**31 + 1),
        # Both sides of the 2**32-cycle interval limit.
        st.sampled_from((intervals * 2**32, intervals * 2**32 + 1))))
    # Up to 3 faults per kind, or more than the intervals there are.
    count = st.one_of(st.integers(0, 3), st.just(min(intervals, 80) + 1))
    config = CampaignConfig(seed=seed, intervals=intervals,
                            soft_per_flop=draw(count),
                            hard_per_flop=draw(count))
    flops = tuple(draw(st.lists(st.sampled_from(_FLOPS), min_size=1,
                                max_size=3)))
    shard = Shard(draw(st.integers(0, 9)), "ttsprk",
                  draw(st.integers(0, 2**33)), flops)
    return config, shard, n_cycles


@needs_cext
@settings(max_examples=100, deadline=None)
@example(cell=(CampaignConfig(intervals=1, soft_per_flop=1, hard_per_flop=1),
               Shard(0, "ttsprk", 0, tuple(_FLOPS[:8])), 2**31 + 1))
@example(cell=(CampaignConfig(intervals=10_000, soft_per_flop=10_000),
               Shard(1, "ttsprk", 5, tuple(_FLOPS[:1])), 10_000 * 2**32))
@example(cell=(CampaignConfig(intervals=10_001, soft_per_flop=300),
               Shard(1, "ttsprk", 5, tuple(_FLOPS[:1])), 10_001))
@example(cell=(CampaignConfig(intervals=3),
               Shard(2, "ttsprk", 7, tuple(_FLOPS[:2])), 3 * 2**32 + 1))
@given(cell=_schedule_cells())
def test_compiled_schedule_matches_schedule_faults(cell):
    """Property: within its range, ``_cstep.schedule`` writes exactly
    the cycles ``schedule_faults`` draws from each cell's keyed numpy
    stream, and refuses grids outside it; the batch engine's shard
    schedule equals the specification on both sides of the range."""
    config, shard, n_cycles = cell
    want = [fault for offset, flop in enumerate(shard.flops)
            for fault in schedule_faults(
                flop, n_cycles, config,
                schedule_rng(config.seed, shard.bench_idx,
                             shard.flop_base + offset))]
    n_intervals = max(1, min(config.intervals, n_cycles))
    n_soft = min(config.soft_per_flop, n_intervals)
    n_hard = min(config.hard_per_flop, n_intervals)
    out = np.empty(len(shard.flops) * (n_soft + 2 * n_hard), dtype=np.int64)
    args = (out, parallel._entropy_words(config.seed), SCHEDULE_STREAM,
            shard.bench_idx, shard.flop_base, n_cycles, n_intervals,
            n_soft, n_hard)
    if (n_intervals <= parallel.COMPILED_MAX_INTERVALS
            and -(-n_cycles // n_intervals)
            <= parallel.COMPILED_MAX_INTERVAL_CYCLES):
        kernels.cext_module().schedule(*args)
        assert out.tolist() == [fault.cycle for fault in want]
    else:
        with pytest.raises(ValueError):
            kernels.cext_module().schedule(*args)
    faults, injected = parallel._schedule_shard(config, shard, n_cycles,
                                                DEFAULT_BATCH)
    assert faults == want
    assert injected == parallel._schedule_numpy(config, shard, n_cycles)[1]


@needs_cext
def test_compiled_schedule_passes_first_use_check(monkeypatch):
    monkeypatch.setattr(parallel, "_SCHEDULE", parallel._UNCHECKED)
    assert parallel.compiled_schedule() is kernels.cext_module().schedule


@needs_cext
def test_compiled_schedule_mismatch_falls_back_to_numpy(monkeypatch,
                                                        quick_campaign):
    """A compiled scheduler that disagrees with this numpy fails the
    first-use check: one warning, then numpy schedules every shard and
    the digest is the ``batch=0`` one."""
    module = kernels.cext_module()
    compiled = module.schedule

    def off_by_one(out, *args):
        compiled(out, *args)
        out += 1

    monkeypatch.setattr(module, "schedule", off_by_one)
    monkeypatch.setattr(parallel, "_SCHEDULE", parallel._UNCHECKED)
    with pytest.warns(RuntimeWarning, match="scheduling with numpy"):
        result = run_campaign(QUICK)
    assert parallel.compiled_schedule() is None
    assert result.meta["kernel"] == "cext"
    assert result.digest() == quick_campaign.digest()
    assert result.injected == quick_campaign.injected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_campaign(QUICK).digest() == quick_campaign.digest()
