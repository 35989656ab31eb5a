"""Signal categories (SCs) on the CPU output port boundary.

A *signal category* is a group of related output port signals (paper
Fig. 3a): e.g. the low byte of the data address bus.  The checker
OR-reduces the per-bit comparison of each SC into one divergence bit,
and the concatenation of those bits is the Divergence Status Register
(DSR).  The SR5 core exposes exactly 62 SCs, matching the Cortex-R5
categorisation used in the paper.

The order of :data:`SIGNAL_CATEGORIES` matches the tuple returned by
:meth:`repro.cpu.core.Cpu.outputs`.

Fast path: ``Cpu.step()`` returns the *compact* port tuple (the
:data:`~repro.cpu.core.NUM_PORTS` underlying interface registers with
only their SC-visible bits kept).  :func:`expand_ports` maps a compact
tuple to the canonical 62-SC vector.  Because every signal category is
a fixed bit field of exactly one compact entry, the expansion is
injective per entry, so compact-tuple equality is equivalent to
SC-tuple equality — per-cycle lockstep comparison runs on the compact
tuples and only a divergence pays for the expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..cpu.core import NUM_PORTS, NUM_SCS


@dataclass(frozen=True)
class SignalCategory:
    """A named group of output port signals.

    Attributes:
        name: human-readable identifier.
        width: number of signals (bits) in the category.
        group: coarse port group ("iside", "dside", "bus", "io",
            "trace", "wb", "branch", "status", "pfu", "sbuf").
    """

    name: str
    width: int
    group: str


def _bus_bytes(prefix: str, group: str) -> list[SignalCategory]:
    return [SignalCategory(f"{prefix}[{8 * i + 7}:{8 * i}]", 8, group) for i in range(4)]


def _bus_nibbles(prefix: str, group: str) -> list[SignalCategory]:
    return [SignalCategory(f"{prefix}[{4 * i + 3}:{4 * i}]", 4, group) for i in range(8)]


#: The 62 signal categories, in output-tuple order.
SIGNAL_CATEGORIES: tuple[SignalCategory, ...] = tuple(
    _bus_bytes("iaddr", "iside")
    + [SignalCategory("ivalid", 1, "iside"), SignalCategory("ipred", 1, "iside")]
    + _bus_nibbles("daddr", "dside")
    + _bus_nibbles("dwdata", "dside")
    + [SignalCategory("dctrl", 4, "dside"), SignalCategory("dstrb", 4, "dside")]
    + _bus_bytes("busaddr", "bus")
    + _bus_nibbles("busdata", "bus")
    + [SignalCategory("busctrl", 4, "bus")]
    + _bus_nibbles("ioout", "io")
    + [SignalCategory("iostrobe", 1, "io")]
    + _bus_bytes("retpc", "trace")
    + _bus_nibbles("retval", "trace")
    + [
        SignalCategory("retrd", 4, "trace"),
        SignalCategory("retvalid", 1, "trace"),
        SignalCategory("ev_sys", 2, "event"),
        SignalCategory("ev_br", 2, "event"),
    ]
)

assert len(SIGNAL_CATEGORIES) == NUM_SCS, "SC table must match CPU output tuple"

#: SC name -> index in the output tuple / DSR bit position.
SC_INDEX: dict[str, int] = {sc.name: i for i, sc in enumerate(SIGNAL_CATEGORIES)}

#: Total number of compared output port signals per CPU.
TOTAL_PORT_SIGNALS: int = sum(sc.width for sc in SIGNAL_CATEGORIES)


@dataclass(frozen=True)
class PortField:
    """One entry of the compact port tuple (:meth:`Cpu.port_state`).

    Attributes:
        name: the underlying interface register (or composite event).
        width: SC-visible bits of the entry.
        split: bits per signal category the entry expands into (equal
            to ``width`` when the entry is a single SC).
    """

    name: str
    width: int
    split: int

    @property
    def n_scs(self) -> int:
        """Signal categories this entry expands into."""
        return self.width // self.split


#: Layout of the compact port tuple, in tuple order.  Expanding each
#: entry into ``width // split`` little-endian ``split``-bit fields, in
#: order, reproduces :data:`SIGNAL_CATEGORIES` exactly.
PORT_FIELDS: tuple[PortField, ...] = (
    PortField("imc_addr", 32, 8),
    PortField("imc_valid", 1, 1),
    PortField("imc_pred", 1, 1),
    PortField("dmc_addr", 32, 4),
    PortField("dmc_wdata", 32, 4),
    PortField("dmc_ctrl", 4, 4),
    PortField("dmc_strb", 4, 4),
    PortField("bus_addr", 32, 8),
    PortField("bus_data", 32, 4),
    PortField("bus_ctrl", 4, 4),
    PortField("io_out", 32, 4),
    PortField("io_out_v", 1, 1),
    PortField("ret_pc", 32, 8),
    PortField("ret_val", 32, 4),
    PortField("ret_rd", 4, 4),
    PortField("ret_valid", 1, 1),
    PortField("ev_sys", 2, 2),   # (status & 1) | (halted << 1)
    PortField("ev_br", 2, 2),    # br_taken | (br_valid << 1)
)

assert len(PORT_FIELDS) == NUM_PORTS, "port layout must match CPU port tuple"
assert sum(f.n_scs for f in PORT_FIELDS) == NUM_SCS, \
    "port expansion must cover every signal category"


def expand_ports(ports: tuple[int, ...]) -> tuple[int, ...]:
    """Expand a compact port tuple into the canonical 62-SC vector.

    Bit-for-bit identical to :meth:`repro.cpu.core.Cpu.outputs` on the
    same state (tested property), and injective per entry, so two
    compact tuples are equal iff their expansions are.  This runs once
    per detected divergence, not once per cycle.
    """
    (ia, iv, ip, da, dw, dc, ds, ba, bd, bc, io, iov,
     rp, rv, rr, rvld, evs, evb) = ports
    return (
        ia & 0xFF, (ia >> 8) & 0xFF, (ia >> 16) & 0xFF, (ia >> 24) & 0xFF,
        iv,
        ip,
        da & 0xF, (da >> 4) & 0xF, (da >> 8) & 0xF, (da >> 12) & 0xF,
        (da >> 16) & 0xF, (da >> 20) & 0xF, (da >> 24) & 0xF, (da >> 28) & 0xF,
        dw & 0xF, (dw >> 4) & 0xF, (dw >> 8) & 0xF, (dw >> 12) & 0xF,
        (dw >> 16) & 0xF, (dw >> 20) & 0xF, (dw >> 24) & 0xF, (dw >> 28) & 0xF,
        dc,
        ds,
        ba & 0xFF, (ba >> 8) & 0xFF, (ba >> 16) & 0xFF, (ba >> 24) & 0xFF,
        bd & 0xF, (bd >> 4) & 0xF, (bd >> 8) & 0xF, (bd >> 12) & 0xF,
        (bd >> 16) & 0xF, (bd >> 20) & 0xF, (bd >> 24) & 0xF, (bd >> 28) & 0xF,
        bc,
        io & 0xF, (io >> 4) & 0xF, (io >> 8) & 0xF, (io >> 12) & 0xF,
        (io >> 16) & 0xF, (io >> 20) & 0xF, (io >> 24) & 0xF, (io >> 28) & 0xF,
        iov,
        rp & 0xFF, (rp >> 8) & 0xFF, (rp >> 16) & 0xFF, (rp >> 24) & 0xFF,
        rv & 0xF, (rv >> 4) & 0xF, (rv >> 8) & 0xF, (rv >> 12) & 0xF,
        (rv >> 16) & 0xF, (rv >> 20) & 0xF, (rv >> 24) & 0xF, (rv >> 28) & 0xF,
        rr,
        rvld,
        evs,
        evb,
    )


#: Compact-entry -> (first SC index, bits per SC, SC count), derived
#: from PORT_FIELDS: every entry expands into a contiguous run of
#: little-endian ``split``-bit signal categories.
_FIELD_SC_RUNS: tuple[tuple[int, int, int], ...] = tuple(
    (base, f.split, f.n_scs)
    for base, f in zip(
        [sum(g.n_scs for g in PORT_FIELDS[:k]) for k in range(NUM_PORTS)],
        PORT_FIELDS)
)


@lru_cache(maxsize=1 << 16)
def diverged_ports(ports_a: tuple[int, ...], ports_b: tuple[int, ...]) -> frozenset[int]:
    """Diverged SC set of two *compact* port tuples.

    Equivalent to ``diverged_set(expand_ports(a), expand_ports(b))``
    (tested property) — the lazy-expansion entry point the injection
    engine and checkers use at the detection event.  Entries that
    compare equal are skipped without expansion: a detection typically
    differs in one or two of the 18 compact entries, so only their SC
    runs are field-tested (via XOR — a ``split``-bit field diverges iff
    its XOR field is nonzero).  Memoized: a campaign detects the same
    handful of divergence patterns thousands of times, and the result
    is an immutable frozenset, safe to share.
    """
    diverged = []
    for (a, b), (base, split, n_scs) in zip(
            zip(ports_a, ports_b), _FIELD_SC_RUNS):
        delta = a ^ b
        if not delta:
            continue
        mask = (1 << split) - 1
        for j in range(n_scs):
            if (delta >> (j * split)) & mask:
                diverged.append(base + j)
    return frozenset(diverged)


def diverged_set(outputs_a: tuple[int, ...], outputs_b: tuple[int, ...]) -> frozenset[int]:
    """SC indices where two output port vectors disagree.

    This is the diverged SC set of paper Fig. 3c; an empty set means
    the cores are in lockstep this cycle.
    """
    return frozenset(i for i, (a, b) in enumerate(zip(outputs_a, outputs_b)) if a != b)


def dsr_value(diverged: frozenset[int]) -> int:
    """Pack a diverged SC set into the DSR's bit representation."""
    value = 0
    for idx in diverged:
        value |= 1 << idx
    return value

