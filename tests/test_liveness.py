"""Liveness-pruned injection tests (schema v4).

The pruning layer must be *provably invisible*: every record a pruned
engine emits — masked-without-simulation, deferred-start, equivalence-
class replay — must be identical to what the plain v3 algorithm
produces, and the campaign digest must be bit-identical with pruning on
or off for any worker count.  These tests check the tracer semantics,
the mask matrices, the query functions against brute force, and then
the end-to-end guarantees.
"""

import dataclasses
from bisect import bisect_left

import numpy as np
import pytest

import repro.faults.golden as golden_mod
from repro.cpu.core import AccessTracer, Cpu
from repro.cpu.memory import Memory
from repro.cpu.units import (
    FULL_WRITE_MASK,
    MASK_WORDS,
    REG_BY_NAME,
    REG_INDEX,
    FlopRef,
    all_flops,
)
from repro.faults import CampaignConfig, ExecPlan, GoldenTrace, run_campaign
from repro.faults.campaign import schedule_faults
from repro.faults.injector import InjectionEngine
from repro.faults.models import Fault, FaultKind
from repro.faults.parallel import schedule_rng
from repro.workloads import KERNELS

#: Registers the compact port tuple reads at the top of every step().
PORT_REGS = ("imc_addr", "imc_valid", "imc_pred", "dmc_addr", "dmc_wdata",
             "dmc_ctrl", "dmc_strb", "bus_addr", "bus_data", "bus_ctrl",
             "io_out", "io_out_v", "ret_pc", "ret_val", "ret_rd",
             "ret_valid", "status", "halted", "br_taken", "br_valid")


def _mask_bit(matrix: np.ndarray, t: int, reg_idx: int) -> bool:
    word, bit = divmod(reg_idx, 64)
    return bool((int(matrix[t, word]) >> bit) & 1)


class TestAccessTracer:
    def test_stale_read_semantics(self):
        tracer = AccessTracer({"a": 1, "b": 2, "c": 3})
        tracer.arm()
        _ = tracer["a"]          # plain read: stale
        tracer["b"] = 5
        _ = tracer["b"]          # read after same-cycle write: fresh, not a use
        tracer["a"] = 9          # read-then-write (RMW shape): both recorded
        assert tracer.reads == {"a"}
        assert tracer.writes == {"b", "a"}
        tracer.arm()
        assert tracer.reads == set() and tracer.writes == set()

    def test_tracing_does_not_change_step_behaviour(self):
        def run(trace: bool):
            program = GoldenTrace(KERNELS["ttsprk"]).program
            mem = Memory(2048)
            mem.words[: len(program.words)] = program.words
            cpu = Cpu(mem, GoldenTrace(KERNELS["ttsprk"]).stimulus,
                      entry=program.entry)
            if trace:
                cpu.start_access_trace()
            out = [cpu.step() for _ in range(200)]
            if trace:
                cpu.stop_access_trace()
            assert type(cpu.__dict__) is dict
            return out, cpu.snapshot()

        assert run(False) == run(True)

    def test_stop_restores_plain_dict(self, sum_cpu):
        tracer = sum_cpu.start_access_trace()
        assert isinstance(sum_cpu.__dict__, AccessTracer)
        sum_cpu.step()
        assert tracer.reads and tracer.writes
        sum_cpu.stop_access_trace()
        assert type(sum_cpu.__dict__) is dict


class TestMaskMatrices:
    def test_shapes_and_cache_roundtrip(self, ttsprk_golden):
        g = ttsprk_golden
        assert g.read_mask.shape == (g.n_cycles, MASK_WORDS)
        assert g.write_mask.shape == (g.n_cycles, MASK_WORDS)
        assert g.read_mask.dtype == np.uint64

    def test_port_registers_read_every_cycle(self, ttsprk_golden):
        g = ttsprk_golden
        for reg in PORT_REGS:
            if reg not in REG_INDEX:
                continue
            idx = REG_INDEX[reg]
            word, bit = divmod(idx, 64)
            col = (g.read_mask[:, word] >> np.uint64(bit)) & np.uint64(1)
            assert col.all(), f"{reg} must be read (port tuple) every cycle"
            # ... which means a soft flip there is never deferred.
            assert g.soft_start(reg, 0) == 0

    def test_pc_read_every_cycle(self, ttsprk_golden):
        g = ttsprk_golden
        idx = REG_INDEX["pc"]
        word, bit = divmod(idx, 64)
        col = (g.read_mask[:, word] >> np.uint64(bit)) & np.uint64(1)
        # fetch consults the PC every cycle (it is *written* only on
        # non-stall cycles — which is exactly what the pruner exploits)
        assert col.all()
        assert g.soft_start("pc", 0) == 0


class TestLivenessQueries:
    def _brute_soft_start(self, g, reg, t0):
        idx = REG_INDEX[reg]
        full = bool((FULL_WRITE_MASK >> idx) & 1)
        for t in range(t0, g.n_cycles):
            read = _mask_bit(g.read_mask, t, idx)
            write = _mask_bit(g.write_mask, t, idx)
            if read or (write and not full):
                return t
            if full and write:
                return None  # killing overwrite before any use
        return None

    def test_soft_start_matches_bruteforce(self, ttsprk_golden):
        g = ttsprk_golden
        for reg in REG_BY_NAME:
            for t0 in (0, 1, 7, g.n_cycles // 2, g.n_cycles - 2,
                       g.n_cycles - 1):
                assert g.soft_start(reg, t0) == \
                    self._brute_soft_start(g, reg, t0), (reg, t0)

    def test_first_active_use_composes_activation_and_use(self, ttsprk_golden):
        g = ttsprk_golden
        for reg, bit in (("rf3", 5), ("pc", 0), ("scratch", 12),
                         ("mw_val", 31), ("cyc", 2)):
            for value in (0, 1):
                for t0 in (0, g.n_cycles // 3):
                    got = g.first_active_use(reg, bit, value, t0)
                    idx = REG_INDEX[reg]
                    use = g._liveness(reg)[0]
                    expected = None
                    for t in range(t0, g.n_cycles):
                        active = ((int(g.state_matrix[t, idx]) >> bit) & 1) \
                            != value
                        if active and use[t]:
                            expected = t
                            break
                    assert got == expected, (reg, bit, value, t0)
                    act = g.activation_cycle(reg, bit, value, t0)
                    if got is not None:
                        assert act is not None and act <= got


class TestPrunedInjectionSoundness:
    @pytest.fixture(scope="class")
    def engines(self, ttsprk_golden):
        return (InjectionEngine(ttsprk_golden, max_observe=600, prune=True),
                InjectionEngine(ttsprk_golden, max_observe=600, prune=False))

    def test_sampled_faults_identical_records(self, ttsprk_golden, engines):
        """N random faults: pruned records == full-from-t0 records."""
        g = ttsprk_golden
        pruned, plain = engines
        rng = np.random.default_rng(11)
        flops = all_flops()
        for i in rng.choice(len(flops), size=60, replace=False):
            flop = flops[int(i)]
            for kind in (FaultKind.SOFT, FaultKind.SOFT, FaultKind.STUCK0,
                         FaultKind.STUCK1):
                fault = Fault(flop, kind, int(rng.integers(0, g.n_cycles)))
                assert pruned.inject(fault) == plain.inject(fault), fault

    def test_pruning_actually_prunes(self, engines):
        pruned, plain = engines
        stats = pruned.stats
        assert stats.soft_pruned + stats.hard_pruned > 0
        assert stats.cycles_saved > 0
        assert stats.sim_cycles < plain.stats.sim_cycles

    def test_equivalence_class_collapsing(self, ttsprk_golden):
        g = ttsprk_golden
        # find a (reg, cycle) whose deferred start is shared by t0 and t0+1
        found = None
        for spec in REG_BY_NAME.values():
            for t0 in range(0, g.n_cycles - 1, 37):
                s0 = g.soft_start(spec.name, t0)
                if s0 is not None and s0 > t0 + 1 \
                        and g.soft_start(spec.name, t0 + 1) == s0:
                    found = (spec.name, t0)
                    break
            if found:
                break
        assert found, "no deferrable window in the trace?"
        reg, t0 = found
        engine = InjectionEngine(g, max_observe=600, prune=True)
        rec_a = engine.inject(Fault(FlopRef(reg, 0), FaultKind.SOFT, t0))
        rec_b = engine.inject(Fault(FlopRef(reg, 0), FaultKind.SOFT, t0 + 1))
        assert engine.stats.equiv_classes == 1
        assert engine.stats.equiv_hits == 1
        if rec_a is None:
            assert rec_b is None
        else:
            assert rec_b is not None
            assert rec_a.detect_cycle == rec_b.detect_cycle
            assert rec_a.diverged == rec_b.diverged
            assert rec_a.inject_cycle == t0
            assert rec_b.inject_cycle == t0 + 1


class TestDigestParity:
    def test_quick_campaign_digest_prune_vs_no_prune(self):
        cfg = CampaignConfig.quick()
        with_prune = run_campaign(cfg)
        without = run_campaign(dataclasses.replace(cfg, prune=False))
        assert with_prune.digest() == without.digest()
        assert with_prune.records == without.records
        # only the pruned run reports pruning work
        assert sum(with_prune.meta["pruning"].values()) > 0
        pruning_off = without.meta["pruning"]
        assert pruning_off["soft_pruned"] == pruning_off["hard_pruned"] == 0

    def test_digest_independent_of_workers(self):
        cfg = CampaignConfig.quick()
        assert run_campaign(cfg).digest() == \
            run_campaign(cfg, plan=ExecPlan(workers=2)).digest()


class TestMemoryScratchReuse:
    def test_out_buffer_matches_fresh_allocation(self):
        g = GoldenTrace(KERNELS["canrdr"])
        scratch = Memory(g.mem_words)
        for cycle in (0, 1, g.n_cycles // 2, g.n_cycles):
            fresh = g.memory_at(cycle)
            reused = g.memory_at(cycle, out=scratch)
            assert reused is scratch
            assert reused.words == fresh.words

    def test_exact_checkpoint_boundary(self, monkeypatch):
        """Reconstruction at a cycle whose log index is exactly k*stride."""
        g = GoldenTrace(KERNELS["canrdr"])
        assert len(g.write_log) >= 32
        monkeypatch.setattr(golden_mod, "MEMORY_CHECKPOINT_EVERY", 16)
        g.reindex_write_log(g.write_log)  # rebuild checkpoints at new stride
        target = None
        for cycle in range(g.n_cycles + 1):
            j = bisect_left(g._log_cycles, cycle)
            if j and j % 16 == 0:
                target = cycle
                break
        assert target is not None, "no exact-boundary cycle in the log"
        words = list(g._initial_words)
        for when, idx, value in g.write_log:
            if when >= target:
                break
            words[idx] = value
        assert g.memory_at(target).words == words
        scratch = Memory(g.mem_words)
        assert g.memory_at(target, out=scratch).words == words


class TestScheduleClamp:
    def test_interval_count_clamped_and_remainder_spread(self):
        """n_cycles % intervals != 0 must not create extra intervals."""
        flop = all_flops()[0]
        cfg = CampaignConfig(intervals=8, soft_per_flop=8, hard_per_flop=0)
        n_cycles = 27  # 8 intervals of length 4,4,4,3,3,3,3,3
        rng = schedule_rng(cfg.seed, 0, 0)
        faults = schedule_faults(flop, n_cycles, cfg, rng)
        assert len(faults) == 8
        base, extra = divmod(n_cycles, 8)
        bounds = []
        lo = 0
        for iv in range(8):
            hi = lo + base + (1 if iv < extra else 0)
            bounds.append((lo, hi))
            lo = hi
        assert lo == n_cycles  # intervals partition the run exactly
        hit = [sum(lo <= f.cycle < hi for f in faults) for lo, hi in bounds]
        # soft_per_flop == intervals: every interval holds exactly one fault
        assert hit == [1] * 8

    def test_cycles_always_in_range(self):
        flop = all_flops()[3]
        cfg = CampaignConfig(intervals=64, soft_per_flop=4, hard_per_flop=2)
        for n_cycles in (1, 2, 63, 64, 65, 100, 1414, 2999):
            rng = schedule_rng(cfg.seed, 1, 5)
            for fault in schedule_faults(flop, n_cycles, cfg, rng):
                assert 0 <= fault.cycle < n_cycles
