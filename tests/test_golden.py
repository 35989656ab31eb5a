"""Golden trace tests."""

import pytest

from repro.cpu import Cpu, Memory
from repro.cpu.units import REG_INDEX
from repro.faults import GOLDEN_CACHE_ENV, GoldenTrace, _cstep, kernels
from repro.lockstep.categories import expand_ports
from repro.workloads import KERNELS
from repro.workloads.kernels import Workload
from tests.conftest import replay_memory

needs_cext = pytest.mark.skipif(
    not kernels.cext_available(),
    reason=f"compiled kernel unavailable: {kernels.cext_build_error()}")

SPIN = Workload("spin", "never halts", "loop:\n jal r0, loop",
                lambda seed: [0], lambda stim: [])


class TestTrace:
    def test_lengths_consistent(self, ttsprk_golden):
        g = ttsprk_golden
        assert g.n_cycles == len(g.port_tuples())
        assert g.state_matrix.shape == (g.n_cycles, len(g.state_at(0)))
        assert g.port_matrix.shape == (g.n_cycles, len(g.port_tuples()[0]))
        assert g.state_hashes.shape == (g.n_cycles,)

    def test_states_record_pre_step_state(self, ttsprk_golden):
        g = ttsprk_golden
        cpu = Cpu(g.memory_at(0), g.stimulus, entry=g.program.entry)
        assert cpu.snapshot() == g.state_at(0)
        out = cpu.step()
        assert out == g.port_tuples()[0]
        assert expand_ports(out) == expand_ports(g.port_tuples()[0])
        assert cpu.snapshot() == g.state_at(1)

    def test_row_accessors_match_matrices(self, ttsprk_golden):
        g = ttsprk_golden
        assert g.state_at(-1) == tuple(g.state_matrix[-1].tolist())
        assert g.port_tuples()[:10] == [tuple(row) for row in
                                        g.port_matrix[:10].tolist()]
        assert g.state_hash_list()[7] == hash(g.state_at(7))

    def test_replay_matches_trace_everywhere(self, ttsprk_golden):
        g = ttsprk_golden
        cpu = Cpu(g.memory_at(0), g.stimulus, entry=g.program.entry)
        for t in range(0, g.n_cycles, 97):
            # fast-forward to t
            while cpu.cyc < t:
                cpu.step()
            assert cpu.snapshot() == g.state_at(t)

    def test_non_halting_program_rejected(self):
        with pytest.raises(RuntimeError, match="did not halt"):
            GoldenTrace(SPIN, max_cycles=500)


def _no_python_build(self, *args, **kwargs):
    raise AssertionError("GoldenTrace.cached ran the Python build")


def _no_compiled_build(*args, **kwargs):
    raise AssertionError("GoldenTrace.cached ran the compiled build")


class TestBuildSeam:
    """Which build ``GoldenTrace.cached`` runs on a miss (trace cache off):
    the compiled one whenever the kernel loaded, with no fallback."""

    @pytest.fixture(autouse=True)
    def _cache_off(self, monkeypatch):
        monkeypatch.setenv(GOLDEN_CACHE_ENV, "off")

    @needs_cext
    def test_kernel_build_never_runs_the_python_build(self, monkeypatch):
        monkeypatch.setattr(GoldenTrace, "__init__", _no_python_build)
        trace = GoldenTrace.cached(KERNELS["ttsprk"])
        assert trace.n_cycles == 1414

    def test_failing_compiled_build_raises(self, monkeypatch):
        """A kernel whose golden() fails is an error, not a reason to
        simulate in Python."""
        class BrokenKernel:
            def golden(self, *args):
                raise ValueError("inconsistent golden shapes")

        monkeypatch.setattr(_cstep, "MODULE", BrokenKernel())
        monkeypatch.setattr(GoldenTrace, "__init__", _no_python_build)
        with pytest.raises(ValueError, match="inconsistent golden shapes"):
            GoldenTrace.cached(KERNELS["ttsprk"])

    def test_no_kernel_runs_the_python_build(self, monkeypatch):
        monkeypatch.setattr(_cstep, "MODULE", None)
        monkeypatch.setattr(GoldenTrace, "_compiled", _no_compiled_build)
        assert GoldenTrace.cached(KERNELS["ttsprk"]).n_cycles == 1414

    @needs_cext
    def test_non_halting_program_raises_the_same_error(self, monkeypatch):
        errors = []
        for module in (kernels.cext_module(), None):
            monkeypatch.setattr(_cstep, "MODULE", module)
            with pytest.raises(RuntimeError) as info:
                GoldenTrace.cached(SPIN, max_cycles=500)
            errors.append(str(info.value))
        assert errors == ["golden run of 'spin' did not halt in 500 cycles"] * 2


class TestMemoryReconstruction:
    def test_memory_at_zero_is_initial_image(self, ttsprk_golden):
        g = ttsprk_golden
        mem = g.memory_at(0)
        assert mem.words[: len(g.program.words)] == g.program.words

    def test_memory_at_end_matches_replayed_run(self, ttsprk_golden):
        g = ttsprk_golden
        cpu = Cpu(g.memory_at(0), g.stimulus, entry=g.program.entry)
        cpu.run(g.n_cycles + 10)
        assert g.memory_at(g.n_cycles).words == cpu.mem.words

    def test_memory_at_midpoint_consistent(self, ttsprk_golden):
        g = ttsprk_golden
        mid = g.n_cycles // 2
        cpu = Cpu(g.memory_at(0), g.stimulus, entry=g.program.entry)
        for _ in range(mid):
            cpu.step()
        assert g.memory_at(mid).words == cpu.mem.words

    def test_memory_at_returns_fresh_objects(self, ttsprk_golden):
        a = ttsprk_golden.memory_at(5)
        b = ttsprk_golden.memory_at(5)
        assert a is not b
        a.write_word(0, 999)
        assert b.read_word(0) != 999 or b.words[0] == 999 and False

    def test_checkpointed_matches_naive_replay(self):
        """Checkpoint+bisect reconstruction equals full log replay at
        arbitrary cycles, including across checkpoint boundaries."""
        import random

        from repro.faults.golden import MEMORY_CHECKPOINT_EVERY

        g = GoldenTrace(KERNELS["canrdr"])

        # A dense synthetic log several checkpoint strides long, with
        # write bursts sharing a cycle stamp (as store-buffer drains do).
        rnd = random.Random(42)
        log = []
        cycle = 0
        while len(log) < 3 * MEMORY_CHECKPOINT_EVERY + 17:
            for _ in range(rnd.randrange(1, 4)):
                log.append((cycle, rnd.randrange(g.mem_words),
                            rnd.randrange(1 << 32)))
            cycle += rnd.randrange(1, 3)
        original = g.write_log
        try:
            g.reindex_write_log(log)
            probes = [0, 1, cycle // 3, cycle // 2, cycle - 1, cycle, cycle + 99]
            probes += [rnd.randrange(cycle) for _ in range(25)]
            for c in probes:
                assert g.memory_at(c).words == replay_memory(g, c), c
        finally:
            g.reindex_write_log(original)
        # and on the real (sparse) kernel log
        for c in (0, 1, g.n_cycles // 2, g.n_cycles):
            assert g.memory_at(c).words == replay_memory(g, c), c


class TestActivation:
    def test_toggling_flop_activates_immediately(self, ttsprk_golden):
        g = ttsprk_golden
        # cyc bit 0 toggles every cycle: a stuck-at-0 activates within 2.
        act = g.activation_cycle("cyc", 0, 0, 10)
        assert act is not None and act - 10 <= 1

    def test_constant_flop_never_activates(self, ttsprk_golden):
        g = ttsprk_golden
        # mpu_ctrl stays 0 for the whole run: stuck-at-0 never activates.
        assert g.activation_cycle("mpu_ctrl", 0, 0, 0) is None

    def test_constant_zero_flop_activates_for_stuck1(self, ttsprk_golden):
        g = ttsprk_golden
        assert g.activation_cycle("mpu_ctrl", 0, 1, 0) == 0

    def test_activation_respects_start(self, ttsprk_golden):
        g = ttsprk_golden
        start = g.n_cycles - 1
        act = g.activation_cycle("cyc", 0, 0, start)
        assert act is None or act >= start

    def test_activation_matches_state_matrix(self, ttsprk_golden):
        g = ttsprk_golden
        reg, bit, value = "pc", 2, 1
        act = g.activation_cycle(reg, bit, value, 0)
        col = g.state_matrix[:, REG_INDEX[reg]]
        manual = next(
            (t for t in range(g.n_cycles) if ((int(col[t]) >> bit) & 1) != value),
            None,
        )
        assert act == manual


class TestLoggingMemory:
    def test_log_records_writes_with_cycles(self):
        from repro.faults.golden import LoggingMemory
        mem = LoggingMemory(16)
        mem.now = 3
        mem.write_word(4, 42)
        mem.now = 7
        mem.write_byte(0, 0xAB)
        assert mem.log[0] == (3, 1, 42)
        assert mem.log[1][0] == 7
        assert mem.read_byte(0) == 0xAB

    def test_reads_do_not_log(self):
        from repro.faults.golden import LoggingMemory
        mem = LoggingMemory(16)
        mem.read_word(0)
        mem.read_byte(1)
        assert mem.log == []


def test_all_kernels_produce_traces():
    for name, workload in KERNELS.items():
        g = GoldenTrace(workload, max_cycles=20_000)
        assert g.n_cycles > 500, name
        assert len({len(expand_ports(p)) for p in g.port_tuples()[:50]}) == 1
