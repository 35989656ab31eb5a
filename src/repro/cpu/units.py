"""CPU logical unit taxonomy and the flip-flop registry.

The paper organises the Arm Cortex-R5 into seven coarse logical units
(Fig. 8) and, for the fine-granularity study (Section V-D), splits the
Data Processing Unit into seven sub-units for a 13-unit organisation.
We mirror both taxonomies for the simulated SR5 core.

Every sequential element (flip-flop) in the core belongs to exactly one
fine unit; coarse units are obtained by folding the seven DPU sub-units
back into ``DPU``.  Faults are addressed as ``FlopRef(reg, bit)`` where
``reg`` names a multi-bit register from :data:`REGISTRY`.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- coarse (7-unit) taxonomy, mirroring the paper's Fig. 8 ------------------

PFU = "PFU"    # Prefetch Unit: program counter, branch target buffer
DPU = "DPU"    # Data Processing Unit: decode, register file, execute
LSU = "LSU"    # Load/Store Unit: request registers, store buffer
BIU = "BIU"    # Bus Interface Unit: external bus + I/O port registers
IMC = "IMC"    # Instruction Memory Controller: fetch interface
DMC = "DMC"    # Data Memory Controller: data-side interface
SCU = "SCU"    # System Control Unit: status, exceptions, counters

COARSE_UNITS: tuple[str, ...] = (PFU, DPU, LSU, BIU, IMC, DMC, SCU)

# -- fine (13-unit) taxonomy: DPU split into seven sub-units -----------------

DPU_DEC = "DPU.DEC"      # decode input latch
DPU_RF = "DPU.RF"        # architectural register file
DPU_EX = "DPU.EX"        # execute/writeback pipeline latch
DPU_MUL = "DPU.MUL"      # multiplier operand pipeline
DPU_FLAGS = "DPU.FLAGS"  # condition flags
DPU_BR = "DPU.BR"        # branch resolution status registers
DPU_RET = "DPU.RET"      # retire/trace port registers

DPU_SUBUNITS: tuple[str, ...] = (
    DPU_DEC, DPU_RF, DPU_EX, DPU_MUL, DPU_FLAGS, DPU_BR, DPU_RET,
)

FINE_UNITS: tuple[str, ...] = (PFU, LSU, BIU, IMC, DMC, SCU) + DPU_SUBUNITS


def coarse_unit(fine: str) -> str:
    """Map a fine unit name to its coarse (7-unit) parent."""
    return DPU if fine.startswith("DPU.") else fine


@dataclass(frozen=True)
class RegSpec:
    """One multi-bit register of the core.

    Attributes:
        name: attribute name on :class:`repro.cpu.core.Cpu` (register
            file entries use the synthetic names ``rf1`` .. ``rf15``).
        width: number of flip-flops.
        unit: owning fine unit.
        full_write: True when every write site in the core rewrites the
            whole register from freshly computed inputs (a plain
            assignment).  Registers with any read-modify-write site
            (``|=``/``&=``/``^=`` or increments) are flagged False: a
            write to them may merge stale bits, so the liveness pruner
            treats such a write as a *use* of the old value rather than
            a kill.  Mis-flagging a register True is still sound for
            RMW sites, because an RMW reads the old value and the
            recorded read blocks the kill — the flag is belt-and-braces
            for hypothetical partial writes that bypass a read.
    """

    name: str
    width: int
    unit: str
    full_write: bool = True


#: Full flip-flop inventory of the core, in canonical snapshot order.
#: ``Cpu.snapshot()`` returns values in exactly this order.
REGISTRY: tuple[RegSpec, ...] = (
    # PFU: program counter and a 4-entry direct-mapped branch target buffer.
    RegSpec("pc", 32, PFU),
    RegSpec("btb_tag0", 32, PFU), RegSpec("btb_tag1", 32, PFU),
    RegSpec("btb_tag2", 32, PFU), RegSpec("btb_tag3", 32, PFU),
    RegSpec("btb_tgt0", 32, PFU), RegSpec("btb_tgt1", 32, PFU),
    RegSpec("btb_tgt2", 32, PFU), RegSpec("btb_tgt3", 32, PFU),
    RegSpec("btb_v", 4, PFU, full_write=False),  # per-entry |= / &= updates
    # IMC: fetch interface (registered fetch address + prefetch buffer).
    RegSpec("imc_addr", 32, IMC),
    RegSpec("imc_data", 32, IMC),
    RegSpec("imc_valid", 1, IMC),
    RegSpec("imc_pred", 1, IMC),
    RegSpec("imc_ptgt", 32, IMC),
    # DPU.DEC: decode input latch.
    RegSpec("if_ir", 32, DPU_DEC),
    RegSpec("if_pc", 32, DPU_DEC),
    RegSpec("if_valid", 1, DPU_DEC),
    RegSpec("if_pred", 1, DPU_DEC),
    RegSpec("if_ptgt", 32, DPU_DEC),
    # DPU.RF: architectural register file (r0 is hardwired zero).
    *(RegSpec(f"rf{i}", 32, DPU_RF) for i in range(1, 16)),
    # DPU.EX: execute -> memory/writeback pipeline latch.
    RegSpec("mw_val", 32, DPU_EX),
    RegSpec("mw_pc", 32, DPU_EX),
    RegSpec("mw_rd", 4, DPU_EX),
    RegSpec("mw_wen", 1, DPU_EX),
    RegSpec("mw_valid", 1, DPU_EX),
    RegSpec("mw_isload", 1, DPU_EX),
    # DPU.MUL: two-cycle multiplier operand pipeline.
    RegSpec("mul_a", 32, DPU_MUL),
    RegSpec("mul_b", 32, DPU_MUL),
    RegSpec("mul_pending", 1, DPU_MUL),
    # DPU.FLAGS: NZCV condition flags plus the exception-shadow copy.
    RegSpec("flags", 4, DPU_FLAGS),
    RegSpec("sflags", 4, DPU_FLAGS),
    # DPU.BR: branch resolution status (feeds the branch-status ports).
    RegSpec("br_target", 32, DPU_BR),
    RegSpec("br_taken", 1, DPU_BR),
    RegSpec("br_valid", 1, DPU_BR),
    # DPU.RET: retire/trace port registers.
    RegSpec("ret_pc", 32, DPU_RET),
    RegSpec("ret_val", 32, DPU_RET),
    RegSpec("ret_rd", 4, DPU_RET),
    RegSpec("ret_valid", 1, DPU_RET),
    # LSU: registered memory request plus a single-entry store buffer.
    RegSpec("lsu_addr", 32, LSU),
    RegSpec("lsu_wdata", 32, LSU),
    RegSpec("lsu_op", 3, LSU),
    RegSpec("lsu_valid", 1, LSU),
    RegSpec("sb_addr", 32, LSU),
    RegSpec("sb_data", 32, LSU),
    RegSpec("sb_valid", 1, LSU),
    RegSpec("sb_op", 1, LSU),
    # DMC: data-side interface registers plus the memory protection unit
    # (configured off at reset, programmable through CSRs).
    RegSpec("dmc_addr", 32, DMC),
    RegSpec("dmc_wdata", 32, DMC),
    RegSpec("dmc_rdata", 32, DMC),
    RegSpec("dmc_ctrl", 4, DMC),
    RegSpec("dmc_strb", 4, DMC),
    RegSpec("mpu_base0", 32, DMC), RegSpec("mpu_base1", 32, DMC),
    RegSpec("mpu_base2", 32, DMC), RegSpec("mpu_base3", 32, DMC),
    RegSpec("mpu_limit0", 32, DMC), RegSpec("mpu_limit1", 32, DMC),
    RegSpec("mpu_limit2", 32, DMC), RegSpec("mpu_limit3", 32, DMC),
    RegSpec("mpu_ctrl", 8, DMC),
    # BIU: unified external bus view and I/O port registers.
    RegSpec("bus_addr", 32, BIU),
    RegSpec("bus_data", 32, BIU),
    RegSpec("bus_ctrl", 4, BIU),
    RegSpec("io_out", 32, BIU),
    RegSpec("io_out_v", 1, BIU, full_write=False),  # strobe toggles (^=)
    RegSpec("io_in", 32, BIU),
    RegSpec("io_in_idx", 16, BIU),
    # SCU: status, exception state, scratch, cycle counter, and the
    # debug/interrupt/performance-monitor blocks (off at reset).
    RegSpec("status", 8, SCU, full_write=False),  # exception entry sets bit 0 (|=)
    RegSpec("cause", 4, SCU),
    RegSpec("epc", 32, SCU),
    RegSpec("scratch", 32, SCU),
    RegSpec("cyc", 32, SCU, full_write=False),  # free-running increment
    RegSpec("halted", 1, SCU),
    RegSpec("dbg_bkpt0", 32, SCU),
    RegSpec("dbg_bkpt1", 32, SCU),
    RegSpec("dbg_watch0", 32, SCU),
    RegSpec("dbg_ctrl", 4, SCU),
    RegSpec("irq_mask", 8, SCU),
    RegSpec("irq_pending", 8, SCU),
    RegSpec("cnt_branch", 32, SCU, full_write=False),  # event-count increment
    RegSpec("cnt_mem", 32, SCU, full_write=False),     # event-count increment
)

#: Register name -> index in the canonical snapshot order.
REG_INDEX: dict[str, int] = {spec.name: i for i, spec in enumerate(REGISTRY)}

#: Register name -> spec.
REG_BY_NAME: dict[str, RegSpec] = {spec.name: spec for spec in REGISTRY}

#: uint64 words needed for a one-bit-per-register liveness mask row.
MASK_WORDS: int = (len(REGISTRY) + 63) // 64


def pack_register_mask(names) -> int:
    """Fold register names into one Python-int bitmask (REGISTRY order).

    Unknown names (non-flop attributes like ``mem`` or ``retire_hook``)
    are ignored, so the golden-trace access tracer can feed raw key
    sets straight in.
    """
    mask = 0
    index = REG_INDEX
    for name in names:
        i = index.get(name)
        if i is not None:
            mask |= 1 << i
    return mask


#: Bitmask (as :func:`pack_register_mask`) of registers whose writes
#: always replace the whole register.
FULL_WRITE_MASK: int = pack_register_mask(
    spec.name for spec in REGISTRY if spec.full_write)


#: Register name -> owning fine / coarse unit.
_FINE_UNIT_OF: dict[str, str] = {spec.name: spec.unit for spec in REGISTRY}
_COARSE_UNIT_OF: dict[str, str] = {
    spec.name: coarse_unit(spec.unit) for spec in REGISTRY}


@dataclass(frozen=True, order=True)
class FlopRef:
    """Address of a single flip-flop: register name plus bit position."""

    reg: str
    bit: int

    def __post_init__(self) -> None:
        spec = REG_BY_NAME.get(self.reg)
        if spec is None:
            raise ValueError(f"unknown register {self.reg!r}")
        if not 0 <= self.bit < spec.width:
            raise ValueError(f"bit {self.bit} out of range for {self.reg} (width {spec.width})")

    @property
    def unit(self) -> str:
        """Owning fine unit."""
        return _FINE_UNIT_OF[self.reg]

    @property
    def coarse(self) -> str:
        """Owning coarse (7-taxonomy) unit."""
        return _COARSE_UNIT_OF[self.reg]


#: Every flip-flop of the core in canonical order, built (and so
#: validated) once: ``FlopRef`` is frozen, so the lists below share them.
_ALL_FLOPS: tuple[FlopRef, ...] = tuple(
    FlopRef(spec.name, bit) for spec in REGISTRY for bit in range(spec.width))

#: Fine / coarse unit name -> the unit's flops, in canonical order.
_FINE_FLOPS: dict[str, list[FlopRef]] = {}
_COARSE_FLOPS: dict[str, list[FlopRef]] = {}
for _flop in _ALL_FLOPS:
    _FINE_FLOPS.setdefault(_flop.unit, []).append(_flop)
    _COARSE_FLOPS.setdefault(_flop.coarse, []).append(_flop)


def all_flops() -> list[FlopRef]:
    """Every flip-flop in the core in canonical order (a fresh list)."""
    return list(_ALL_FLOPS)


def flops_of_unit(unit: str, fine: bool = False) -> list[FlopRef]:
    """The flip-flops owned by ``unit``, in canonical order (a fresh list).

    Args:
        unit: a coarse unit name (default) or fine unit name.
        fine: when True, ``unit`` is interpreted against the 13-unit
            taxonomy; otherwise against the coarse 7-unit taxonomy.
    """
    return list((_FINE_FLOPS if fine else _COARSE_FLOPS).get(unit, ()))


def unit_flop_counts(fine: bool = False) -> dict[str, int]:
    """Number of flip-flops per unit for the chosen taxonomy."""
    units = FINE_UNITS if fine else COARSE_UNITS
    counts = {u: 0 for u in units}
    for spec in REGISTRY:
        key = spec.unit if fine else coarse_unit(spec.unit)
        counts[key] += spec.width
    return counts


TOTAL_FLOPS = sum(spec.width for spec in REGISTRY)
