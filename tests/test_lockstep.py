"""Lockstep checker, DMR and TMR tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.divergence import DivergenceStatusRegister
from repro.cpu import NUM_SCS, assemble
from repro.cpu.memory import InputStream
from repro.lockstep import (
    PORT_FIELDS,
    SIGNAL_CATEGORIES,
    DmrLockstep,
    LockstepChecker,
    TmrLockstep,
    VotingChecker,
    diverged_set,
    dsr_value,
    expand_ports,
)
from tests.conftest import SUM_LOOP

#: Arbitrary-but-valid compact port tuples: each entry within its
#: SC-visible bit width (expand_ports is injective on these).
_port_tuple = st.tuples(
    *[st.integers(0, (1 << f.width) - 1) for f in PORT_FIELDS])


@pytest.fixture
def program():
    return assemble(SUM_LOOP)


class TestCategories:
    def test_exactly_62_categories(self):
        """The paper's Cortex-R5 categorisation count."""
        assert len(SIGNAL_CATEGORIES) == 62
        assert len(SIGNAL_CATEGORIES) == NUM_SCS

    def test_names_unique(self):
        names = [sc.name for sc in SIGNAL_CATEGORIES]
        assert len(set(names)) == len(names)

    def test_diverged_set_symmetric(self):
        a = tuple(range(NUM_SCS))
        b = tuple(0 if i == 5 else v for i, v in enumerate(a))
        assert diverged_set(a, b) == diverged_set(b, a) == frozenset({5})

    def test_no_divergence_on_equal(self):
        a = tuple(range(NUM_SCS))
        assert diverged_set(a, a) == frozenset()


def _latched(value: int) -> frozenset[int]:
    dsr = DivergenceStatusRegister()
    dsr.value = value
    return dsr.as_set


class TestDsrPacking:
    def test_pack_unpack(self):
        s = frozenset({0, 13, 61})
        assert _latched(dsr_value(s)) == s

    @given(bits=st.sets(st.integers(0, NUM_SCS - 1), max_size=NUM_SCS))
    def test_roundtrip_property(self, bits):
        s = frozenset(bits)
        assert _latched(dsr_value(s)) == s


class TestChecker:
    def test_no_error_on_identical(self):
        checker = LockstepChecker()
        out = tuple(range(NUM_SCS))
        assert not checker.compare(out, out)
        assert not checker.state.error

    def test_error_latches_dsr(self):
        checker = LockstepChecker()
        a = tuple(range(NUM_SCS))
        b = tuple(v + (i == 7) for i, v in enumerate(a))
        assert checker.compare(a, b)
        assert checker.state.error
        assert checker.state.diverged == frozenset({7})
        assert checker.state.error_cycle == 0

    def test_error_cycle_counts_comparisons(self):
        checker = LockstepChecker()
        out = tuple(range(NUM_SCS))
        for _ in range(5):
            checker.compare(out, out)
        bad = tuple(v + (i == 0) for i, v in enumerate(out))
        checker.compare(out, bad)
        assert checker.state.error_cycle == 5

    def test_latched_error_ignores_later_compares(self):
        checker = LockstepChecker()
        a = tuple(range(NUM_SCS))
        b = tuple(v + (i == 3) for i, v in enumerate(a))
        checker.compare(a, b)
        state = checker.state
        checker.compare(a, a)
        assert checker.state is state

    def test_reset_clears(self):
        checker = LockstepChecker()
        a = tuple(range(NUM_SCS))
        b = tuple(v + 1 for v in a)
        checker.compare(a, b)
        checker.reset()
        assert not checker.state.error


class TestVoting:
    def test_identifies_erring_cpu(self):
        checker = VotingChecker(3)
        good = tuple(range(NUM_SCS))
        bad = tuple(v + (i == 11) for i, v in enumerate(good))
        assert checker.compare([good, bad, good])
        assert checker.state.erring_cpu == 1
        assert checker.state.diverged == frozenset({11})

    def test_no_error_when_all_agree(self):
        checker = VotingChecker(3)
        out = tuple(range(NUM_SCS))
        assert not checker.compare([out, out, out])

    def test_requires_three_cores(self):
        with pytest.raises(ValueError):
            VotingChecker(2)

    def test_wrong_core_count_rejected(self):
        checker = VotingChecker(3)
        out = tuple(range(NUM_SCS))
        with pytest.raises(ValueError):
            checker.compare([out, out])


class TestVoterCompactParity:
    """The compact-entry vote must latch *identical* state to the
    full 62-SC expansion — the equivalence that makes the fast path a
    fix and not a behaviour change."""

    @staticmethod
    def _latched_states(group):
        compact = VotingChecker(3)
        expanded = VotingChecker(3)
        latched_c = compact.compare(list(group))
        latched_e = expanded.compare([expand_ports(o) for o in group])
        assert latched_c == latched_e
        return compact.state, expanded.state

    @staticmethod
    def _assert_equivalent(cs, es):
        assert cs.error == es.error
        if not cs.error:
            return
        assert cs.diverged == es.diverged
        assert cs.dsr == es.dsr
        assert cs.erring_cpu == es.erring_cpu
        assert cs.error_cycle == es.error_cycle
        voted = (cs.voted if len(cs.voted) == NUM_SCS
                 else expand_ports(cs.voted))
        assert voted == es.voted

    @given(base=_port_tuple, other=_port_tuple, slot=st.integers(0, 2))
    def test_single_erring_core(self, base, other, slot):
        # The TMR case the fast path exists for: a strict per-entry
        # majority always exists with one deviating core.
        group = [base, base, base]
        group[slot] = other
        self._assert_equivalent(*self._latched_states(group))

    @given(a=_port_tuple, b=_port_tuple, c=_port_tuple)
    def test_arbitrary_triples_fall_back_equivalently(self, a, b, c):
        # Byzantine multi-core cycles may lack a per-entry majority;
        # the fallback to full expansion must agree too.
        self._assert_equivalent(*self._latched_states([a, b, c]))

    def test_compact_vote_ports_exactness(self):
        base = tuple((1 << f.width) - 1 for f in PORT_FIELDS)
        bad = (0,) + base[1:]
        voter = VotingChecker(3)
        assert voter.vote_ports([base, bad, base]) == base
        # Three distinct values on entry 0 -> no strict majority ->
        # no compact vote.
        assert voter.vote_ports([base, bad, (1,) + base[1:]]) is None

    def test_compact_detection_keeps_attribution_tiebreak(self):
        # Worst-diverged core wins even when several disagree with the
        # vote; ties resolve to the first (matching the expanded path).
        base = tuple(0 for _ in PORT_FIELDS)
        one_sc = (1,) + base[1:]               # 1 diverged SC (imc_addr run)
        many_sc = base[:3] + (0xFFFF,) + base[4:]   # 4 diverged dmc_addr SCs
        voter = VotingChecker(3)
        assert voter.compare([one_sc, base, many_sc])
        assert voter.state.erring_cpu == 2


class TestDmr:
    def test_fault_free_run_never_diverges(self, program):
        dmr = DmrLockstep(program, InputStream([0]))
        state = dmr.run(2000)
        assert not state.error
        assert dmr.core_a.halted and dmr.core_b.halted
        assert dmr.core_a.reg(1) == sum(range(1, 51))

    def test_injected_flip_detected(self, program):
        dmr = DmrLockstep(program, InputStream([0]))
        for _ in range(20):
            dmr.step()
        dmr.core_b.pc ^= 4  # control-flow upset in the redundant core
        state = dmr.run(2000)
        assert state.error
        assert state.diverged
        assert dmr.stopped

    def test_register_flip_may_be_architecturally_masked(self, program):
        """A flip in a register that is overwritten before being read
        leaves no trace: the cores reconverge (this is exactly the
        masking that makes soft manifestation rates low)."""
        dmr = DmrLockstep(program, InputStream([0]))
        for _ in range(20):
            dmr.step()
        dmr.core_b.rf1 ^= 1
        state = dmr.run(2000)
        if not state.error:
            assert dmr.core_a.reg(1) == dmr.core_b.reg(1)

    def test_stopped_dmr_ignores_steps(self, program):
        dmr = DmrLockstep(program, InputStream([0]))
        dmr.core_b.pc ^= 4
        dmr.run(100)
        cycle = dmr.cycle
        dmr.step()
        assert dmr.cycle == cycle

    def test_reset_restores_lockstep(self, program):
        dmr = DmrLockstep(program, InputStream([0]))
        for _ in range(15):
            dmr.step()
        dmr.core_b.pc ^= 4
        dmr.run(2000)
        assert dmr.error.error
        dmr.reset(program)
        state = dmr.run(2000)
        assert not state.error
        assert dmr.core_a.reg(1) == sum(range(1, 51))


class TestTmr:
    def test_fault_free_run(self, program):
        tmr = TmrLockstep(program, InputStream([0]))
        state = tmr.run(2000)
        assert not state.error

    def test_identifies_and_recovers_erring_core(self, program):
        tmr = TmrLockstep(program, InputStream([0]))
        for _ in range(10):
            tmr.step()
        # Flip a directly-ported register so detection is guaranteed
        # regardless of what the pipeline is doing this cycle.
        tmr.cores[2].imc_addr ^= 1
        state = tmr.run(2000)
        assert state.error
        assert state.erring_cpu == 2
        recovered = tmr.forward_recover()
        assert recovered == 2
        final = tmr.run(3000)
        assert not final.error
        assert all(c.halted for c in tmr.cores)
        assert tmr.cores[2].reg(1) == sum(range(1, 51))

    def test_recover_without_error_rejected(self, program):
        tmr = TmrLockstep(program, InputStream([0]))
        with pytest.raises(RuntimeError):
            tmr.forward_recover()
