"""Simulator throughput micro-benchmarks (framework performance).

These are genuine pytest-benchmark timings of the hot paths that set
the campaign's wall-clock cost: the flip-flop-level CPU step, the
lockstep compare, the golden-trace build (Python and compiled) and its
cross-check, one differential injection, and the batch engine against
the scalar engine on an identical fault pool.
"""

import pytest
import numpy as np

from repro.cpu import Cpu, FlopRef, Memory
from repro.cpu.memory import InputStream
from repro.faults import (
    BatchInjectionEngine,
    Fault,
    FaultKind,
    GoldenTrace,
    InjectionEngine,
    cext_available,
    cext_build_error,
)
from repro.faults.golden import CAMPAIGN_MEM_WORDS, cross_check
from repro.faults.kernels import cext_module
from repro.lockstep import LockstepChecker, expand_ports
from repro.workloads import DEFAULT_SEED, KERNELS, build


def _fresh_cpu():
    program, stimulus = build(KERNELS["ttsprk"])
    return Cpu(Memory.from_program(program, size_words=2048),
               InputStream(stimulus.values), entry=program.entry)


def test_cpu_step_throughput(benchmark):
    cpu = _fresh_cpu()

    def run_block():
        for _ in range(1000):
            cpu.step()
        if cpu.halted:
            cpu.reset()

    benchmark(run_block)


def test_snapshot_throughput(benchmark):
    cpu = _fresh_cpu()
    cpu.run(100)
    benchmark(cpu.snapshot)


def test_lockstep_compare_throughput(benchmark):
    cpu = _fresh_cpu()
    out = cpu.port_state()
    checker = LockstepChecker()

    def compare_block():
        for _ in range(1000):
            checker.compare(out, out)

    benchmark(compare_block)


def test_port_expansion_throughput(benchmark):
    cpu = _fresh_cpu()
    cpu.run(100)
    out = cpu.port_state()

    def expand_block():
        for _ in range(1000):
            expand_ports(out)

    benchmark(expand_block)


def test_golden_trace_build(benchmark):
    """The Python build, ``GoldenTrace(...)``: ``Cpu.step`` with the
    access tracer attached, the specification of every trace array."""
    benchmark.pedantic(GoldenTrace, args=(KERNELS["ttsprk"],),
                       rounds=2, iterations=1)


def test_golden_trace_build_compiled(benchmark):
    """The compiled build ``GoldenTrace.cached`` runs on a miss when the
    kernel loaded: one ``_cstep.golden`` call plus the state hashes."""
    if not cext_available():
        pytest.skip(f"compiled kernel unavailable: {cext_build_error()}")
    trace = benchmark.pedantic(
        GoldenTrace._compiled,
        args=(cext_module(), KERNELS["ttsprk"], DEFAULT_SEED, 100_000,
              CAMPAIGN_MEM_WORDS),
        rounds=5, iterations=1)
    assert trace.n_cycles == 1414


def test_arch_trace_build(benchmark):
    """The architectural cross-check of a built trace.

    Compare against the two builds: in one session on ttsprk the
    compiled build took 3.2-3.7 ms, one ISA-level replay 5.0-5.4 ms and
    the Python build 62-78 ms (2-vCPU guest, cc 12.2, Python 3.11.7;
    minimum to median of repeated calls).  Against the Python build
    the cross-check is an order of magnitude cheaper, which made
    checking every trace ``GoldenTrace.cached`` returns affordable;
    with the compiled build it is the larger share of a cold
    ``GoldenTrace.cached``.
    """
    golden = GoldenTrace(KERNELS["ttsprk"])
    problems = benchmark.pedantic(cross_check, args=(golden,),
                                  rounds=5, iterations=1)
    assert problems == []


def test_golden_trace_cache_load(benchmark, tmp_path):
    GoldenTrace.cached(KERNELS["ttsprk"], cache_dir=tmp_path)  # populate

    def load():
        return GoldenTrace.cached(KERNELS["ttsprk"], cache_dir=tmp_path)

    trace = benchmark(load)
    assert trace.n_cycles > 0


def test_injection_throughput(benchmark):
    golden = GoldenTrace(KERNELS["ttsprk"])
    engine = InjectionEngine(golden, max_observe=2000)
    rng = np.random.default_rng(0)
    from repro.cpu.units import all_flops
    flops = all_flops()
    faults = [
        Fault(flops[int(rng.integers(len(flops)))],
              [FaultKind.SOFT, FaultKind.STUCK0, FaultKind.STUCK1][int(rng.integers(3))],
              int(rng.integers(golden.n_cycles - 1)))
        for _ in range(50)
    ]

    def inject_block():
        return sum(1 for f in faults if engine.inject(f) is not None)

    manifested = benchmark(inject_block)
    assert 0 < manifested <= len(faults)


def _fault_pool(golden: GoldenTrace, count: int) -> list[Fault]:
    """A reproducible mixed soft/stuck fault pool over all flops."""
    from repro.cpu.units import all_flops

    rng = np.random.default_rng(0)
    flops = all_flops()
    kinds = (FaultKind.SOFT, FaultKind.STUCK0, FaultKind.STUCK1)
    return [
        Fault(flops[int(rng.integers(len(flops)))],
              kinds[int(rng.integers(3))],
              int(rng.integers(golden.n_cycles - 1)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("batch", (0, 64, 256),
                         ids=("scalar", "b64-cext", "b256-cext"))
def test_batch_engine_throughput(benchmark, batch):
    """Scalar vs batch engine on one 2000-fault pool, outcomes asserted.

    ``batch=0`` is the scalar :class:`InjectionEngine` row every batch
    row is compared against (same group, so pytest-benchmark prints the
    relative speedups directly).  The batch rows skip on hosts where
    the compiled kernel is unavailable.
    """
    if batch and not cext_available():
        pytest.skip(f"compiled kernel unavailable: {cext_build_error()}")
    golden = GoldenTrace.cached(KERNELS["ttsprk"])
    faults = _fault_pool(golden, 2000)
    benchmark.group = "batch-vs-scalar-injection"

    if batch == 0:
        def run():
            engine = InjectionEngine(golden, max_observe=2000)
            return [engine.inject(f) for f in faults]
    else:
        def run():
            engine = BatchInjectionEngine(golden, max_observe=2000,
                                          batch=batch)
            return engine.inject_all(faults)

    outcomes = benchmark.pedantic(run, rounds=2, iterations=1)
    # Any engine/batch size must produce the identical outcome list.
    scalar_engine = InjectionEngine(golden, max_observe=2000)
    assert outcomes == [scalar_engine.inject(f) for f in faults]
