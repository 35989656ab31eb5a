"""Compact port tuple <-> 62-SC boundary equivalence.

The per-cycle lockstep fast path compares the compact port tuples that
``Cpu.step()`` returns; the refactor is sound only if (a) expanding the
compact tuple reproduces the eager 62-SC vector bit for bit, and
(b) compact-tuple equality is equivalent to SC-tuple equality.  These
properties are exercised over randomised flip-flop states constrained
to each register's declared width.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.divergence import DivergenceStatusRegister
from repro.cpu import Cpu, InputStream, Memory, NUM_PORTS, NUM_SCS, REGISTRY
from repro.lockstep.categories import (
    PORT_FIELDS,
    SC_INDEX,
    SIGNAL_CATEGORIES,
    diverged_ports,
    diverged_set,
    diverged_words,
    dsr_set,
    dsr_value,
    expand_ports,
)


def _fresh_cpu() -> Cpu:
    return Cpu(Memory(16), InputStream())


#: A full random flip-flop state, each register within its width.
state_strategy = st.tuples(
    *(st.integers(0, (1 << spec.width) - 1) for spec in REGISTRY))


class TestExpansionMatchesEagerOutputs:
    @given(state=state_strategy)
    @settings(max_examples=200, deadline=None)
    def test_expand_port_state_equals_outputs(self, state):
        cpu = _fresh_cpu()
        cpu.restore(state)
        assert expand_ports(cpu.port_state()) == cpu.outputs()

    def test_matches_along_a_real_execution(self, sum_cpu):
        for _ in range(300):
            before = sum_cpu.outputs()
            returned = sum_cpu.step()
            assert len(returned) == NUM_PORTS
            assert expand_ports(returned) == before

    def test_expanded_width_and_ranges(self):
        cpu = _fresh_cpu()
        cpu.restore(tuple((1 << spec.width) - 1 for spec in REGISTRY))
        expanded = expand_ports(cpu.port_state())
        assert len(expanded) == NUM_SCS
        for value, sc in zip(expanded, SIGNAL_CATEGORIES):
            assert 0 <= value < (1 << sc.width), sc.name


class TestEqualityEquivalence:
    @given(state_a=state_strategy, state_b=state_strategy)
    @settings(max_examples=100, deadline=None)
    def test_compact_equality_iff_sc_equality(self, state_a, state_b):
        cpu = _fresh_cpu()
        cpu.restore(state_a)
        ports_a, scs_a = cpu.port_state(), cpu.outputs()
        cpu.restore(state_b)
        ports_b, scs_b = cpu.port_state(), cpu.outputs()
        assert (ports_a == ports_b) == (scs_a == scs_b)
        assert diverged_ports(ports_a, ports_b) == diverged_set(scs_a, scs_b)

    def test_single_visible_bit_flips_diverge_both_ways(self):
        """Flipping any SC-visible flop diverges both representations."""
        rnd = random.Random(7)
        visible = {"imc_addr", "imc_valid", "imc_pred", "dmc_addr",
                   "dmc_wdata", "dmc_ctrl", "dmc_strb", "bus_addr",
                   "bus_data", "bus_ctrl", "io_out", "io_out_v", "ret_pc",
                   "ret_val", "ret_rd", "ret_valid", "halted", "br_taken",
                   "br_valid"} | {"status"}
        cpu = _fresh_cpu()
        for trial in range(200):
            state = tuple(rnd.randrange(1 << spec.width) for spec in REGISTRY)
            idx, spec = rnd.choice(
                [(i, s) for i, s in enumerate(REGISTRY) if s.name in visible])
            bit = 0 if spec.name == "status" else rnd.randrange(spec.width)
            flipped = list(state)
            flipped[idx] ^= 1 << bit
            cpu.restore(state)
            ports_a, scs_a = cpu.port_state(), cpu.outputs()
            cpu.restore(tuple(flipped))
            ports_b, scs_b = cpu.port_state(), cpu.outputs()
            assert ports_a != ports_b, spec.name
            assert scs_a != scs_b, spec.name


class TestPortFieldMetadata:
    def test_layout_covers_signal_categories(self):
        assert len(PORT_FIELDS) == NUM_PORTS
        widths = [f.split for f in PORT_FIELDS for _ in range(f.n_scs)]
        assert widths == [sc.width for sc in SIGNAL_CATEGORIES]

    def test_generic_expansion_matches_hand_unrolled(self):
        """expand_ports is a hand-unrolled copy of the PORT_FIELDS
        layout; a generic interpreter of the metadata must agree."""
        rnd = random.Random(11)
        for _ in range(50):
            ports = tuple(rnd.randrange(1 << f.width) for f in PORT_FIELDS)
            generic = tuple(
                (value >> (f.split * k)) & ((1 << f.split) - 1)
                for f, value in zip(PORT_FIELDS, ports)
                for k in range(f.n_scs)
            )
            assert expand_ports(ports) == generic


# -- DSR words: the vectorised diverged_ports ----------------------------------

#: A compact port tuple, each entry within its visible width.
ports_strategy = st.tuples(
    *(st.integers(0, (1 << f.width) - 1) for f in PORT_FIELDS))


@st.composite
def port_pairs(draw):
    """A port tuple and one that differs from it in a drawn subset of
    its entries: none, one, some or all of them."""
    a = draw(ports_strategy)
    b = tuple(value ^ draw(st.integers(1, (1 << f.width) - 1))
              if draw(st.booleans()) else value
              for f, value in zip(PORT_FIELDS, a))
    return a, b


def _matrix(rows) -> np.ndarray:
    return np.array(rows, dtype=np.uint32).reshape(len(rows), NUM_PORTS)


def _assert_words(pairs) -> list[int]:
    """diverged_words of the pairs as matrices equals diverged_ports
    row by row; returns the words."""
    a_rows = [a for a, _ in pairs]
    b_rows = [b for _, b in pairs]
    words = diverged_words(_matrix(a_rows), _matrix(b_rows))
    assert words.dtype == np.dtype("<u8") and words.shape == (len(pairs),)
    assert words.tolist() == [dsr_value(diverged_ports(a, b))
                              for a, b in pairs]
    return words.tolist()


class TestDivergedWords:
    @given(pairs=st.lists(port_pairs(), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_diverged_ports(self, pairs):
        _assert_words(pairs)

    def test_no_rows(self):
        assert _assert_words([]) == []

    def test_equal_rows_give_zero(self):
        rnd = random.Random(3)
        rows = [tuple(rnd.randrange(1 << f.width) for f in PORT_FIELDS)
                for _ in range(4)]
        assert _assert_words([(row, row) for row in rows]) == [0] * 4

    def test_each_field_alone_and_every_field(self):
        """A row per entry differing in that entry's top visible bit
        alone (the last SC of its run), one differing in its lowest bit,
        and one differing in every bit of every entry."""
        base = tuple(0 for _ in PORT_FIELDS)
        pairs = []
        for k, f in enumerate(PORT_FIELDS):
            for bit in (f.width - 1, 0):
                other = list(base)
                other[k] = 1 << bit
                pairs.append((base, tuple(other)))
        full = tuple((1 << f.width) - 1 for f in PORT_FIELDS)
        pairs.append((base, full))
        words = _assert_words(pairs)
        first = 0
        for k, f in enumerate(PORT_FIELDS):
            assert words[2 * k] == 1 << (first + f.n_scs - 1), f.name
            assert words[2 * k + 1] == 1 << first, f.name
            first += f.n_scs
        assert words[-1] == (1 << NUM_SCS) - 1

    def test_ev_br_is_the_top_bit(self):
        """SC 61 (ev_br), the last entry's only SC, is the word's top
        bit, and it survives the packing."""
        assert SC_INDEX["ev_br"] == NUM_SCS - 1 == 61
        base = tuple(0 for _ in PORT_FIELDS)
        for value in (1, 2, 3):
            other = base[:-1] + (value,)
            assert _assert_words([(base, other), (other, base)]) == [1 << 61] * 2


class TestDsrSet:
    @given(bits=st.sets(st.integers(0, NUM_SCS - 1), max_size=NUM_SCS))
    def test_inverts_dsr_value(self, bits):
        s = frozenset(bits)
        assert dsr_set(dsr_value(s)) == s
        dsr = DivergenceStatusRegister()
        dsr.value = dsr_value(s)
        assert dsr.as_set == s

    def test_as_set_keeps_the_register_width(self):
        dsr = DivergenceStatusRegister(n_bits=8)
        dsr.value = dsr_value(frozenset({2, 7, 8, 61}))
        assert dsr.as_set == frozenset({2, 7})
