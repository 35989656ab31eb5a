"""Instruction set architecture of the simulated safety core.

The simulated CPU implements a small 32-bit RISC ISA ("SR5" -- *Safety
RISC 5-stage-class*).  It is deliberately not binary-compatible with any
commercial architecture; what matters for the reproduction is that real
programs execute through real pipeline logic so that injected faults
propagate microarchitecturally.

Encoding (32-bit fixed width)::

    [31:26] opcode
    [25:22] rd
    [21:18] ra
    [17:14] rb
    [13:0]  imm14 (signed two's complement)

Special formats:

* ``LUI rd, imm16`` keeps ``imm16`` in bits ``[15:0]``.
* ``JAL rd, imm18`` keeps a signed *word* offset in bits ``[17:0]``.
* Branches use ``ra``/``rb`` as comparands and ``imm14`` as a signed
  word offset relative to the instruction after the branch.
* ``IN rd, port`` / ``OUT rb, port`` keep the port number in ``imm14``.
* ``CSRR rd, csr`` / ``CSRW rb, csr`` keep the CSR number in ``imm14``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

WORD_MASK = 0xFFFFFFFF
WORD_BITS = 32


class Op(enum.IntEnum):
    """Opcode space of the SR5 ISA."""

    NOP = 0
    # Register-register ALU operations.
    ADD = 1
    SUB = 2
    AND = 3
    OR = 4
    XOR = 5
    SHL = 6
    SHR = 7
    SRA = 8
    SLT = 9
    SLTU = 10
    MUL = 11
    MULH = 12
    # Register-immediate ALU operations.
    ADDI = 16
    ANDI = 17
    ORI = 18
    XORI = 19
    SHLI = 20
    SHRI = 21
    SRAI = 22
    SLTI = 23
    LUI = 24
    # Memory operations.
    LD = 32
    LDB = 33
    ST = 34
    STB = 35
    # Control flow.
    BEQ = 40
    BNE = 41
    BLT = 42
    BGE = 43
    BLTU = 44
    BGEU = 45
    JAL = 46
    JALR = 47
    # I/O and system.
    IN = 52
    OUT = 53
    CSRR = 54
    CSRW = 55
    HALT = 63


#: ALU register-register opcodes.
ALU_RR_OPS = frozenset(
    {Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.SRA,
     Op.SLT, Op.SLTU, Op.MUL, Op.MULH}
)
#: ALU register-immediate opcodes.
ALU_RI_OPS = frozenset(
    {Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SHLI, Op.SHRI, Op.SRAI, Op.SLTI}
)
#: Conditional branch opcodes.
BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU})
#: Memory access opcodes.
MEM_OPS = frozenset({Op.LD, Op.LDB, Op.ST, Op.STB})

#: Valid opcode numbers; anything else decodes as an illegal instruction.
VALID_OPCODES = frozenset(int(op) for op in Op)

# -- table-driven step semantics ---------------------------------------------
#
# The pipeline's DX dispatch is a pure function of the 6-bit opcode
# field.  These dense tables expose that dispatch as *data* so that
# consumers which cannot branch per instruction — the compiled
# fault-injection kernel gathers them — agree
# with ``Cpu.step()`` by construction instead of by parallel
# re-implementation.  ``core.py`` builds its own dispatch from the same
# tables.

#: Execution classes of the DX stage (values are arbitrary but stable).
CLS_ILLEGAL = 0
CLS_NOP = 1
CLS_ALU = 2      # single-cycle ALU, register or immediate operand
CLS_MUL = 3      # two-cycle multiplier (MUL/MULH)
CLS_LUI = 4
CLS_MEM = 5      # LD/LDB/ST/STB
CLS_BRANCH = 6   # conditional branches
CLS_JAL = 7
CLS_JALR = 8
CLS_IN = 9
CLS_OUT = 10
CLS_CSRR = 11
CLS_CSRW = 12
CLS_HALT = 13


def _op_class(opnum: int) -> int:
    if opnum not in VALID_OPCODES:
        return CLS_ILLEGAL
    if opnum == Op.NOP:
        return CLS_NOP
    if opnum in (Op.MUL, Op.MULH):
        return CLS_MUL
    if 1 <= opnum <= 23:
        return CLS_ALU
    return {
        int(Op.LUI): CLS_LUI,
        int(Op.LD): CLS_MEM, int(Op.LDB): CLS_MEM,
        int(Op.ST): CLS_MEM, int(Op.STB): CLS_MEM,
        int(Op.BEQ): CLS_BRANCH, int(Op.BNE): CLS_BRANCH,
        int(Op.BLT): CLS_BRANCH, int(Op.BGE): CLS_BRANCH,
        int(Op.BLTU): CLS_BRANCH, int(Op.BGEU): CLS_BRANCH,
        int(Op.JAL): CLS_JAL, int(Op.JALR): CLS_JALR,
        int(Op.IN): CLS_IN, int(Op.OUT): CLS_OUT,
        int(Op.CSRR): CLS_CSRR, int(Op.CSRW): CLS_CSRW,
        int(Op.HALT): CLS_HALT,
    }[opnum]


#: opcode -> execution class, dense over the 6-bit opcode space.
OPCODE_CLASS: tuple[int, ...] = tuple(_op_class(n) for n in range(64))

#: opcode -> 1 when the opcode carries a valid instruction.
OPCODE_VALID: tuple[int, ...] = tuple(
    1 if n in VALID_OPCODES else 0 for n in range(64))

#: opcode -> 1 when an ALU-class opcode substitutes ``imm`` for ``rb``.
OPCODE_ALU_IMM: tuple[int, ...] = tuple(
    1 if (16 <= n <= 23) else 0 for n in range(64))

#: Control and status register numbers readable via CSRR/CSRW.
CSR_CYCLE = 0
CSR_STATUS = 1
CSR_SCRATCH = 2
CSR_FLAGS = 3
CSR_CAUSE = 4
CSR_EPC = 5
CSR_CNT_BRANCH = 6
CSR_CNT_MEM = 7
CSR_DBG_BKPT0 = 8
CSR_DBG_BKPT1 = 9
CSR_DBG_WATCH0 = 10
CSR_DBG_CTRL = 11
CSR_IRQ_MASK = 12
CSR_IRQ_PENDING = 13
CSR_MPU_BASE0 = 14   # .. CSR_MPU_BASE0+3
CSR_MPU_LIMIT0 = 18  # .. CSR_MPU_LIMIT0+3
CSR_MPU_CTRL = 22

#: STATUS register bit enabling the performance counters.
STATUS_CNT_EN = 0x80

#: CSRW-writable registers: csr number -> (core register name, width mask).
#: ``STATUS``/``SCRATCH`` are listed too; every entry is a plain masked
#: assignment in the DX stage.  (``status`` writes keep 8 bits.)
CSR_WRITE_REG: dict[int, tuple[str, int]] = {
    CSR_STATUS: ("status", 0xFF),
    CSR_SCRATCH: ("scratch", WORD_MASK),
    CSR_DBG_BKPT0: ("dbg_bkpt0", WORD_MASK),
    CSR_DBG_BKPT1: ("dbg_bkpt1", WORD_MASK),
    CSR_DBG_WATCH0: ("dbg_watch0", WORD_MASK),
    CSR_DBG_CTRL: ("dbg_ctrl", 0xF),
    CSR_IRQ_MASK: ("irq_mask", 0xFF),
    CSR_IRQ_PENDING: ("irq_pending", 0xFF),
    CSR_MPU_CTRL: ("mpu_ctrl", 0xFF),
    **{CSR_MPU_BASE0 + i: (f"mpu_base{i}", WORD_MASK) for i in range(4)},
    **{CSR_MPU_LIMIT0 + i: (f"mpu_limit{i}", WORD_MASK) for i in range(4)},
}

#: CSRR-readable registers: csr number -> core register name.  Reads of
#: unmapped numbers return 0.
CSR_READ_REG: dict[int, str] = {
    CSR_CYCLE: "cyc",
    CSR_STATUS: "status",
    CSR_SCRATCH: "scratch",
    CSR_FLAGS: "flags",
    CSR_CAUSE: "cause",
    CSR_EPC: "epc",
    CSR_CNT_BRANCH: "cnt_branch",
    CSR_CNT_MEM: "cnt_mem",
    **{num: reg for num, (reg, _mask) in CSR_WRITE_REG.items()
       if num not in (CSR_STATUS, CSR_SCRATCH)},
    # status/scratch read back through their own entries above.
}

#: Exception cause codes recorded in the SCU.
CAUSE_NONE = 0
CAUSE_ILLEGAL = 1
CAUSE_MISALIGNED = 2
CAUSE_MPU = 3
CAUSE_BKPT = 4
CAUSE_WATCH = 5
CAUSE_IRQ = 6

#: Exception vector address (byte address of the handler).
EXC_VECTOR = 0x8

NUM_REGS = 16
REG_ALIASES = {"zero": 0, "sp": 14, "lr": 15}


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded (field overflow)."""


def to_signed(value: int, bits: int) -> int:
    """Interpret ``value`` (unsigned, ``bits`` wide) as two's complement."""
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def to_unsigned(value: int, bits: int) -> int:
    """Encode a signed ``value`` into an unsigned ``bits``-wide field."""
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    if not lo <= value <= hi:
        raise EncodingError(f"immediate {value} does not fit in {bits} bits")
    return value & ((1 << bits) - 1)


@dataclass(frozen=True)
class Instruction:
    """A decoded SR5 instruction."""

    op: Op
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0

    def encode(self) -> int:
        """Return the 32-bit machine word for this instruction."""
        for name, reg in (("rd", self.rd), ("ra", self.ra), ("rb", self.rb)):
            if not 0 <= reg < NUM_REGS:
                raise EncodingError(f"{name}={reg} out of range")
        word = (int(self.op) << 26) | (self.rd << 22) | (self.ra << 18) | (self.rb << 14)
        if self.op == Op.LUI:
            if not 0 <= self.imm <= 0xFFFF:
                raise EncodingError(f"LUI immediate {self.imm} out of range")
            # imm16 overlaps the ra/rb fields deliberately.
            word = (int(self.op) << 26) | (self.rd << 22) | (self.imm & 0xFFFF)
        elif self.op == Op.JAL:
            word = (int(self.op) << 26) | (self.rd << 22) | to_unsigned(self.imm, 18)
        else:
            word |= to_unsigned(self.imm, 14)
        return word


def decode(word: int) -> Instruction:
    """Decode a 32-bit machine word into an :class:`Instruction`.

    Illegal opcodes decode to an ``Instruction`` whose ``op`` attribute
    is unavailable; callers must first check :func:`is_legal`.
    """
    opnum = (word >> 26) & 0x3F
    op = Op(opnum)
    rd = (word >> 22) & 0xF
    if op == Op.LUI:
        return Instruction(op, rd=rd, imm=word & 0xFFFF)
    if op == Op.JAL:
        return Instruction(op, rd=rd, imm=to_signed(word & 0x3FFFF, 18))
    ra = (word >> 18) & 0xF
    rb = (word >> 14) & 0xF
    imm = to_signed(word & 0x3FFF, 14)
    return Instruction(op, rd=rd, ra=ra, rb=rb, imm=imm)


def is_legal(word: int) -> bool:
    """Return True when ``word`` carries a valid opcode."""
    return ((word >> 26) & 0x3F) in VALID_OPCODES
