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
* **golden recording** — the kernel's ``golden`` run, which
  ``GoldenTrace.cached`` builds traces with, equals ``GoldenTrace``'s
  Python build (``Cpu.step`` behind the access tracer) in every array:
  states, ports, def/use masks, write log and state hashes;
* **engine parity** — the kernel's ``inject``, which runs each fault
  from its seed to its retirement, reproduces the scalar engine's
  records and PruneStats for any number of faults per call, on the
  workloads and on golden traces of generated and directed corner
  programs;
* **scheduling** — the kernel's ``schedule`` writes the fault cycles
  the specification, ``schedule_faults``, draws from each cell's keyed
  numpy stream, and a scheduler that disagrees is caught on first use.
"""

from __future__ import annotations

import os
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cpu import Cpu, InputStream, Memory, assemble
from repro.cpu.units import REG_INDEX, REGISTRY, FlopRef, all_flops
from repro.faults import (
    DEFAULT_BATCH,
    BatchInjectionEngine,
    CampaignConfig,
    ExecPlan,
    Fault,
    FaultKind,
    GoldenTrace,
    InjectionEngine,
    cext_available,
    resolve_kernel,
    run_campaign,
    sample_flops,
    schedule_faults,
)
from repro.faults import _cstep, kernels, parallel
from repro.faults.batch import _FULL_WRITE
from repro.faults.golden import CAMPAIGN_MEM_WORDS, _pack_mask_rows
from repro.faults.injector import SIMULATE, triage_fault
from repro.faults.kernels import N_REGS, N_ROWS, ZERO_ROW, cext_tables
from repro.faults.models import FaultColumns
from repro.faults.parallel import Shard, sampling_rng, schedule_rng
from repro.faults.streams import SCHEDULE_STREAM
from repro.verify import Coverage, cosim, generate_program
from repro.verify.diff import DEFAULT_MAX_CYCLES
from repro.verify.progen import (FUZZ_MEM_WORDS, PROLOGUE_LINES,
                                 program_strategy)
from repro.workloads import DEFAULT_SEED, KERNELS
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


@needs_cext
def test_tables_that_are_not_a_13_tuple_are_refused(ttsprk_golden):
    """Every kernel entry point that gathers through the tables raises
    TypeError for anything but a 13-tuple (it used to release buffers
    it had never acquired, and crash)."""
    module = kernels.cext_module()
    golden = ttsprk_golden
    S = np.zeros((N_ROWS, 1), dtype=np.uint32)
    M = np.zeros((1, 16), dtype=np.uint32)
    stim = np.zeros(1, dtype=np.uint32)
    one = np.zeros(1, dtype=np.int64)
    for tables in (None, list(cext_tables()), cext_tables()[:12]):
        with pytest.raises(TypeError, match="13-tuple"):
            module.step(S, M, stim, tables, 1)
        with pytest.raises(TypeError, match="13-tuple"):
            module.golden(S, M, stim, tables, 10)
        with pytest.raises(TypeError, match="13-tuple"):
            module.inject(golden.state_matrix, golden.port_matrix, stim,
                          tables, golden._memory_index(), golden.read_mask,
                          golden.write_mask, _FULL_WRITE, one, one,
                          np.zeros(1, np.uint8), one, one + 1, one,
                          np.zeros((1, 18), np.uint32), one, 4, True, -1)


@needs_cext
def test_inject_refuses_a_window_outside_the_trace(ttsprk_golden):
    """A fault whose window [start, end) is empty or leaves the golden
    trace raises ValueError before any fault runs."""
    golden = ttsprk_golden
    n = golden.n_cycles
    engine = BatchInjectionEngine(golden)
    columns = FaultColumns.from_faults(
        [Fault(FlopRef("pc", 3), FaultKind.SOFT, 0)] * 2)
    engine._load(columns)
    for start, end in ((-1, 5), (5, 5), (6, 5), (0, n + 1), (n, n + 1)):
        engine._start = np.array([0, start], dtype=np.int64)
        engine._end = np.array([n, end], dtype=np.int64)
        with pytest.raises(ValueError, match="fault 1: window"):
            engine._inject(np.arange(2))
        assert engine._outcomes == [None, None]


# -- per-cycle semantics: the kernel against Cpu.step -------------------------

def _kernel_step_matches_cpu(S, M, stim, n, cpu) -> int:
    """One kernel step of lanes ``0..n-1``, each checked against ``cpu``.

    ``cpu`` is restored from the lane's pre-step column and memory and
    stepped once with ``Cpu.step()``.  Halted lanes are outside the
    kernel's contract and are not checked: ``Cpu.step`` freezes a
    halted core, while ``inject()`` has no run mask and never needs one
    (a lane that halts diverges from the golden ports, which never
    show ``halted``, and is retired before it would be stepped).
    Returns the number of lanes checked.
    """
    pre_state = S[:N_REGS, :n].T.tolist()
    pre_mem = M[:n].tolist()
    kernels.cext_module().step(S, M, stim, cext_tables(), n)
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
@pytest.mark.parametrize("trial,lanes", ((0, 8), (1, 32)))
def test_per_cycle_state_parity(ttsprk_golden, trial, lanes):
    """Lanes seeded from a random shard of real faults, as the engine
    seeds them (the golden state and memory where triage starts the
    fault, a soft fault's bit flipped), forces applied every cycle as
    ``inject()`` applies them, equal ``Cpu.step`` after every kernel
    step for 256 cycles."""
    golden = ttsprk_golden
    cfg = QUICK
    n_flops = len(sample_flops(cfg, sampling_rng(cfg.seed)))
    rnd = random.Random(5150 + trial)
    idxs = sorted(rnd.sample(range(n_flops), k=min(24, n_flops)))
    seeds = []
    for fault in _shard_faults(golden, idxs, cfg):
        decision, _, start, _ = triage_fault(golden, fault, cfg.prune,
                                             cfg.max_observe)
        if decision == SIMULATE:
            seeds.append((fault, start))
    seeds = seeds[:lanes]
    n = len(seeds)
    assert n > 0
    S = np.zeros((N_ROWS, n), dtype=np.uint32)
    M = np.zeros((n, golden.mem_words), dtype=np.uint32)
    rows = np.array([REG_INDEX[f.flop.reg] for f, _ in seeds])
    masks = np.array([1 << f.flop.bit for f, _ in seeds], dtype=np.uint32)
    force_and = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    force_or = np.zeros(n, dtype=np.uint32)
    for i, (fault, start) in enumerate(seeds):
        S[:N_REGS, i] = golden.state_at(start)
        M[i] = golden.memory_at(start).words
        if fault.kind is FaultKind.SOFT:
            S[rows[i], i] ^= masks[i]
        elif fault.kind is FaultKind.STUCK0:
            force_and[i] = ~masks[i]
        else:
            force_or[i] = masks[i]
    lane = np.arange(n)
    stim = np.array(golden.stimulus.values, dtype=np.uint32)
    cpu = Cpu(Memory(golden.mem_words), golden.stimulus)
    checked = 0
    for _ in range(256):
        S[rows, lane] = (S[rows, lane] & force_and) | force_or
        checked += _kernel_step_matches_cpu(S, M, stim, n, cpu)
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
#: same-word drains, stores exactly at and just below an MPU limit, and
#: a breakpoint on an instruction with register operands (generated
#: breakpoints sit on a NOP), which ``Cpu.step`` does not read when the
#: instruction traps.
_CORNER_PROGRAMS = {
    "bkpt_operands": """
    addi r5, r0, 7
    addi r6, r0, 9
    addi r1, r0, bkpt_add
    csrw r1, 8
    addi r1, r0, 1
    csrw r1, 11
    nop
bkpt_add:
    add  r7, r5, r6
    out  r7, 0
""",
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


#: Generated programs that together reach every ``REQUIRED_EVENT_BINS``
#: bin (``test_pinned_programs_reach_every_event_bin``).
_EVENT_BIN_PROGRAMS = tuple(f"kernel-pin-{i}" for i in range(12))


def _corner_source(name: str) -> str:
    """A directed corner program, between the fuzz prologue and HALT."""
    return "\n".join(PROLOGUE_LINES) + _CORNER_PROGRAMS[name] + "    halt\n"


def _program_workload(source: str, stimulus: list[int]) -> Workload:
    """A test program as a workload, to record golden traces of."""
    return Workload(name="engine_diff", description="test program",
                    source=source, stimulus=lambda seed: list(stimulus),
                    reference=lambda values: [])


def _pin_every_cycle(source: str, stimulus: list[int]) -> None:
    """Every cycle of a program up to HALT, one lane per cycle, equals
    ``Cpu.step`` after one kernel step."""
    program = assemble(source)
    cpu = Cpu(Memory.from_program(program, size_words=FUZZ_MEM_WORDS),
              InputStream(stimulus), entry=program.entry)
    states, memories = [], []
    while not cpu.halted:
        states.append(cpu.snapshot())
        memories.append(list(cpu.mem.words))
        cpu.step()
    S = np.zeros((N_ROWS, len(states)), dtype=np.uint32)
    S[:N_REGS] = np.array(states, dtype=np.uint32).T
    M = np.array(memories, dtype=np.uint32)
    assert _kernel_step_matches_cpu(S, M, np.array(stimulus, dtype=np.uint32),
                                    len(states), cpu) == len(states)


@needs_cext
@pytest.mark.parametrize("name", sorted(_CORNER_PROGRAMS))
def test_step_matches_cpu_step_on_corner_programs(name):
    _pin_every_cycle(_corner_source(name), [0])


@needs_cext
def test_pinned_programs_reach_every_event_bin():
    """The kernel is pinned on every cycle of generated programs that
    together reach every ``REQUIRED_EVENT_BINS`` bin (traps, MPU, IRQ,
    watchpoints, stalls, store-buffer drains), which the random draws
    of the properties above do not guarantee."""
    coverage = Coverage()
    for name in _EVENT_BIN_PROGRAMS:
        prog = generate_program(name)
        result = cosim(prog, coverage=coverage)
        assert result.ok and not result.hung_both
        _pin_every_cycle(prog.source(), prog.stimulus)
    bins = coverage.event_bins()
    assert all(bins.values()), f"event bins not reached: {bins}"


# -- golden recording: the kernel's golden() against the Python build -------

#: Every array a trace holds, in the order a difference is reported.
_TRACE_ARRAYS = ("state_matrix", "port_matrix", "read_mask", "write_mask",
                 "write_log", "state_hashes")


def _mask_registers(row: np.ndarray) -> list[str]:
    """The registers a def/use mask row sets."""
    return [spec.name for k, spec in enumerate(REGISTRY)
            if (int(row[k // 64]) >> (k % 64)) & 1]


def _assert_golden_builds_equal(workload: Workload, seed: int = DEFAULT_SEED,
                                max_cycles: int = 100_000,
                                mem_words: int = CAMPAIGN_MEM_WORDS):
    """The compiled build equals ``GoldenTrace(...)``, the specification,
    in every array (dtype, shape and values), or raises the error the
    Python build raises.  Returns the compiled trace, or None when both
    raised."""
    build = (workload, seed, max_cycles, mem_words)
    try:
        python = GoldenTrace(*build)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError) as compiled_error:
            GoldenTrace._compiled(kernels.cext_module(), *build)
        assert str(compiled_error.value) == str(exc)
        return None
    compiled = GoldenTrace._compiled(kernels.cext_module(), *build)
    for name in _TRACE_ARRAYS:
        want, got = getattr(python, name), getattr(compiled, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        differs = got != want
        if differs.ndim > 1:
            differs = differs.any(axis=1)
        rows = np.nonzero(differs)[0]
        if len(rows):
            t = int(rows[0])
            detail = ""
            if name.endswith("_mask"):
                detail = (f": compiled only {_mask_registers(got[t] & ~want[t])}, "
                          f"Python only {_mask_registers(want[t] & ~got[t])}")
            pytest.fail(f"{name} differs from row {t} of {len(got)} on"
                        f"{detail}")
    return compiled


@needs_cext
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_golden_build_matches_python_build_on_workloads(name):
    _assert_golden_builds_equal(KERNELS[name])


@needs_cext
@pytest.mark.parametrize("name", sorted(_CORNER_PROGRAMS))
def test_golden_build_matches_python_build_on_corner_programs(name):
    assert _assert_golden_builds_equal(
        _program_workload(_corner_source(name), [0]),
        max_cycles=DEFAULT_MAX_CYCLES, mem_words=FUZZ_MEM_WORDS) is not None


@needs_cext
def test_golden_build_matches_python_build_on_event_bin_programs():
    """Traps, MPU, IRQ, watchpoints, stalls and store-buffer drains: the
    programs that together reach every event bin."""
    for name in _EVENT_BIN_PROGRAMS:
        prog = generate_program(name)
        assert _assert_golden_builds_equal(
            _program_workload(prog.source(), prog.stimulus),
            max_cycles=DEFAULT_MAX_CYCLES, mem_words=FUZZ_MEM_WORDS) is not None


@needs_cext
@settings(max_examples=40, deadline=None)
@given(prog=program_strategy())
def test_golden_build_matches_python_build_on_generated_programs(prog):
    """Property: on ``verify.progen`` programs the two builds give equal
    traces, or both refuse a program that does not halt."""
    _assert_golden_builds_equal(
        _program_workload(prog.source(), prog.stimulus),
        max_cycles=DEFAULT_MAX_CYCLES, mem_words=FUZZ_MEM_WORDS)


@needs_cext
def test_golden_build_stops_at_max_cycles():
    """A run that halts in its last allowed cycle is recorded in full
    (the compiled buffers grow past their first 1,024 rows and stop at
    ``max_cycles``); one cycle fewer raises as the Python build does."""
    workload = KERNELS["ttsprk"]
    n = _assert_golden_builds_equal(workload).n_cycles
    assert _assert_golden_builds_equal(workload, max_cycles=n).n_cycles == n
    assert _assert_golden_builds_equal(workload, max_cycles=n - 1) is None


# -- engine-level parity through the kernel's inject() ------------------------

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
    try:
        return GoldenTrace(_program_workload(source, stimulus),
                           max_cycles=DEFAULT_MAX_CYCLES,
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
    ``inject()`` calls give the scalar engine's records and PruneStats
    for faults scheduled on random flops."""
    golden = _program_golden(prog.source(), prog.stimulus)
    assume(golden is not None)
    faults = _random_faults(golden, fault_seed, n_flops=16)
    _assert_cext_parity(golden, faults, _DIFF_CFG, prune=prune, batch=batch)


@needs_cext
@pytest.mark.parametrize("name", sorted(_CORNER_PROGRAMS))
def test_engines_agree_on_corner_programs(name):
    """The same records/PruneStats parity on the directed corners."""
    golden = _program_golden(_corner_source(name), [0])
    assert golden is not None
    faults = _random_faults(golden, seed=1701, n_flops=256)
    _assert_cext_parity(golden, faults, _DIFF_CFG, batch=16)


# -- compiled liveness triage -------------------------------------------------

_TRIAGE_GOLDENS: dict[str, GoldenTrace] = {}


def _named_golden(name: str) -> GoldenTrace:
    """A workload's golden trace, or a directed corner program's (cached)."""
    golden = _TRIAGE_GOLDENS.get(name)
    if golden is None:
        if name in KERNELS:
            golden = GoldenTrace.cached(KERNELS[name])
        else:
            golden = _program_golden(_corner_source(name), [0])
        _TRIAGE_GOLDENS[name] = golden
    return golden


def _assert_triage_matches(golden: GoldenTrace, data) -> None:
    """``_cstep.triage`` equals ``triage_fault`` on drawn faults, fault for
    fault: any kind, cycles in and just outside the trace, ``prune`` on
    or off, ``max_observe`` None or finite."""
    n = golden.n_cycles
    fault = st.builds(
        lambda spec, bit, kind, cycle: Fault(
            FlopRef(spec.name, bit % spec.width), kind, cycle),
        st.sampled_from(REGISTRY), st.integers(0, 31), st.sampled_from(FaultKind),
        st.one_of(st.integers(0, n - 1), st.integers(-3, -1),
                  st.integers(n, n + 3)))
    faults = data.draw(st.lists(fault, min_size=1, max_size=64))
    prune = data.draw(st.booleans())
    max_observe = data.draw(st.one_of(st.none(), st.integers(1, 2 * n)))
    engine = BatchInjectionEngine(golden, max_observe=max_observe,
                                  prune=prune, batch=1)
    columns = FaultColumns.from_faults(faults)
    engine._load(columns)
    got = engine._triage(engine._reg, engine._bit, columns.kind, columns.cycle)
    assert list(zip(*(column.tolist() for column in got))) == [
        triage_fault(golden, f, prune, max_observe) for f in faults]


@needs_cext
@pytest.mark.parametrize("name", (*sorted(KERNELS), *sorted(_CORNER_PROGRAMS)))
@settings(deadline=None)
@given(data=st.data())
def test_triage_matches_golden_queries(name, data):
    """Property: on every workload and directed corner program, the
    compiled triage decides each fault as the per-fault ``GoldenTrace``
    queries do (decision, activation, start, end)."""
    _assert_triage_matches(_named_golden(name), data)


@needs_cext
@settings(max_examples=40, deadline=None)
@given(prog=program_strategy(), data=st.data())
def test_triage_matches_golden_queries_on_generated_programs(prog, data):
    """The same property on golden traces of ``verify.progen`` programs."""
    golden = _program_golden(prog.source(), prog.stimulus)
    assume(golden is not None)
    _assert_triage_matches(golden, data)


_DENSITY = st.sampled_from((0.0, 0.05, 0.2, 0.5, 0.9, 1.0))


@needs_cext
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       p_read=_DENSITY, p_write=_DENSITY, data=st.data())
def test_triage_matches_golden_queries_on_random_traces(n, seed, p_read,
                                                        p_write, data):
    """The same property on random state rows and def/use masks, which
    reach mask patterns no program trace has (a register without
    ``full_write`` written but not read), calling the kernel directly."""
    rng = np.random.default_rng(seed)
    # Registers whose bits mostly hold still, so stuck-ats often never
    # activate; reads and writes at the drawn densities.
    moving = rng.integers(0, 2**32, N_REGS) & rng.integers(0, 2**32, N_REGS)
    states = rng.integers(0, 2**32, (n, N_REGS)) & moving
    reads = rng.random((n, N_REGS)) < p_read
    writes = rng.random((n, N_REGS)) < p_write
    golden = GoldenTrace.__new__(GoldenTrace)
    golden.n_cycles = n
    golden.state_matrix = states.astype(np.uint32)
    golden.read_mask, golden.write_mask = (
        _pack_mask_rows([sum(1 << b for b in np.flatnonzero(row).tolist())
                         for row in bits], n)
        for bits in (reads, writes))
    golden._liveness_cache, golden._active_cache = {}, {}
    # 200 faults of any kind, at cycles in and just outside the trace.
    kinds = tuple(FaultKind)
    faults = []
    for i in rng.integers(len(REGISTRY), size=200).tolist():
        spec = REGISTRY[i]
        faults.append(Fault(FlopRef(spec.name, int(rng.integers(spec.width))),
                            kinds[int(rng.integers(3))],
                            int(rng.integers(-2, n + 2))))
    prune = data.draw(st.booleans())
    max_observe = data.draw(st.one_of(st.none(), st.integers(1, 3),
                                      st.integers(1, n + 2)))
    columns = FaultColumns.from_faults(faults)
    got = tuple(np.empty(len(faults), dtype=dtype)
                for dtype in (np.uint8, np.int64, np.int64, np.int64))
    kernels.cext_module().triage(
        golden.state_matrix, golden.read_mask, golden.write_mask, _FULL_WRITE,
        np.array([REG_INDEX[f.flop.reg] for f in faults], dtype=np.int64),
        np.array([f.flop.bit for f in faults], dtype=np.int64),
        columns.kind, columns.cycle, *got, prune,
        -1 if max_observe is None else max_observe)
    assert list(zip(*(column.tolist() for column in got))) == [
        triage_fault(golden, f, prune, max_observe) for f in faults]


#: ttsprk registers that sit unread, and not overwritten, for up to 16
#: cycles: dense soft faults on them collide on (reg, bit, start).
_COLLIDING_REGS = ("rf10", "rf11", "rf12", "mpu_ctrl", "mul_pending",
                   "io_in_idx", "btb_tgt0", "sb_addr", "sb_data", "sb_op")


@needs_cext
@settings(max_examples=30, deadline=None)
@given(soft_per_flop=st.integers(4, 32),
       intervals=st.integers(128, 1414),
       regs=st.lists(st.sampled_from(_COLLIDING_REGS), min_size=1, max_size=4),
       others=st.lists(st.sampled_from(all_flops()), max_size=4),
       seed=st.integers(0, 2**32 - 1), batch=st.sampled_from((1, 7, 64)))
def test_equivalence_classes_match_scalar(ttsprk_golden, soft_per_flop,
                                          intervals, regs, others, seed,
                                          batch):
    """Property: on shards whose soft faults collide on (reg, bit, start),
    the batch engine's array-built equivalence classes and PruneStats
    equal the scalar engine's, record for record."""
    golden = ttsprk_golden
    cfg = CampaignConfig(soft_per_flop=soft_per_flop, intervals=intervals,
                         max_observe=600)
    flops = [FlopRef(reg, seed % 32 % spec.width)
             for reg in regs for spec in REGISTRY if spec.name == reg] + others
    faults = [fault for i, flop in enumerate(flops)
              for fault in schedule_faults(flop, golden.n_cycles, cfg,
                                           np.random.default_rng([seed, i]))]
    scalar = InjectionEngine(golden, max_observe=600)
    expected = [scalar.inject(f) for f in faults]
    assume(scalar.stats.equiv_hits > 0)
    engine = BatchInjectionEngine(golden, max_observe=600, batch=batch)
    assert engine.inject_all(faults) == expected
    assert engine.stats.as_dict() == scalar.stats.as_dict()


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


# -- usable CPUs --------------------------------------------------------------

def test_usable_cpus_without_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert kernels.usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert kernels.usable_cpus() == 1


# -- any batch width reproduces the scalar engine -----------------------------

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
@given(batch=st.integers(min_value=1, max_value=48))
def test_any_batch_reproduces_serial(ttsprk_golden, batch):
    """Property: every batch width reproduces the serial outcome
    sequence and pruning stats exactly."""
    cfg = QUICK
    faults, records, stats = _serial_reference(ttsprk_golden, cfg)
    engine = BatchInjectionEngine(ttsprk_golden, max_observe=cfg.max_observe,
                                  mask_check_stride=cfg.mask_check_stride,
                                  batch=batch)
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
    assert faults.faults() == want
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
