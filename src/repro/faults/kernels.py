"""The compiled step kernel behind the batch fault-injection engine.

The :class:`~repro.faults.batch.BatchInjectionEngine` advances its
structure-of-arrays lanes with the fused C drive loop in
:mod:`repro.faults._cstep` (one call runs force / golden compare /
step for many cycles, returning to Python only on rare-path events,
see DESIGN §5.15).  It is the only batch kernel: tests/test_kernels.py
pins it per cycle to the specification, ``Cpu.step``.  The same step
records golden traces (``_cstep.golden``, used by
:meth:`~repro.faults.golden.GoldenTrace.cached`), and this module holds
the row layout and the decode tables every kernel call gathers
through.

The batch engine is every campaign driver's default.  When the
extension cannot load (no C compiler, a sandboxed cache directory,
``REPRO_CSTEP_BUILD=0``), the drivers run the scalar
:class:`~repro.faults.injector.InjectionEngine` instead
(:meth:`repro.faults.parallel.ExecPlan.resolve`): identical records and
PruneStats, at scalar speed.  The engine never enters campaign cache
keys.
"""

from __future__ import annotations

import os

import numpy as np

from ..cpu import isa
from ..cpu.units import REG_INDEX, REGISTRY

#: Number of genuine flop registers (rows 0 .. N_REGS-1 of ``S``).
N_REGS = len(REGISTRY)
#: Hardwired-zero read row: ``r0`` operand reads and unmapped CSRR.
ZERO_ROW = N_REGS
#: Write-sink row: ``rd=0`` writebacks, unmapped CSRW, soft-lane force.
TRASH_ROW = N_REGS + 1
N_ROWS = N_REGS + 2

# -- compiled kernel tables ---------------------------------------------------
# Decode tables from repro.cpu.isa (the ones core.py dispatches on),
# laid out as the dense buffers the C kernel gathers through.

#: opcode -> execution class (CLS_*).
OPC_CLS = np.array(isa.OPCODE_CLASS, dtype=np.int64)
OPC_VALID = np.array(isa.OPCODE_VALID, dtype=bool)
OPC_IMM = np.array(isa.OPCODE_ALU_IMM, dtype=bool)

#: opcode -> single-cycle ALU operation (0 = none, 1 = ADD .. 10 = SLTU;
#: immediate forms alias their register-register op).
ALU_SEL = np.zeros(64, dtype=np.int64)
for _n in range(1, 11):
    ALU_SEL[_n] = _n
for _n, _rr in ((16, 1), (17, 3), (18, 4), (19, 5), (20, 6), (21, 7), (22, 8), (23, 9)):
    ALU_SEL[_n] = _rr

#: opcode -> next lsu_op for the CLS_MEM opcodes.
LSU_OP_OF = np.zeros(64, dtype=np.uint32)
LSU_OP_OF[int(isa.Op.LD)] = 1
LSU_OP_OF[int(isa.Op.LDB)] = 2
LSU_OP_OF[int(isa.Op.ST)] = 3
LSU_OP_OF[int(isa.Op.STB)] = 4

#: register-file field value -> S row (field 0 reads zero, writes sink).
RF_READ_ROW = np.array(
    [ZERO_ROW] + [REG_INDEX[f"rf{i}"] for i in range(1, 16)], dtype=np.int64)
RF_WRITE_ROW = np.array(
    [TRASH_ROW] + [REG_INDEX[f"rf{i}"] for i in range(1, 16)], dtype=np.int64)

#: CSR number (14-bit imm field, unsigned) -> S row / write mask.  A
#: negative imm has bit 13 set, indexing the unmapped upper half —
#: exactly the scalar dict-miss behaviour (read 0 / write dropped).
CSR_READ_ROW = np.full(1 << 14, ZERO_ROW, dtype=np.int64)
for _num, _reg in isa.CSR_READ_REG.items():
    CSR_READ_ROW[_num] = REG_INDEX[_reg]
CSR_WRITE_ROW = np.full(1 << 14, TRASH_ROW, dtype=np.int64)
CSR_WRITE_MASK = np.zeros(1 << 14, dtype=np.uint32)
for _num, (_reg, _mask) in isa.CSR_WRITE_REG.items():
    CSR_WRITE_ROW[_num] = REG_INDEX[_reg]
    CSR_WRITE_MASK[_num] = _mask

#: S rows of the 16 register-valued entries of the compact port tuple
#: (ev_sys / ev_br, entries 16 and 17, are derived bit combines).
PORT_ROWS16 = np.array([REG_INDEX[name] for name in (
    "imc_addr", "imc_valid", "imc_pred",
    "dmc_addr", "dmc_wdata", "dmc_ctrl", "dmc_strb",
    "bus_addr", "bus_data", "bus_ctrl",
    "io_out", "io_out_v",
    "ret_pc", "ret_val", "ret_rd", "ret_valid")], dtype=np.int64)

#: S-row names in the exact order of the C kernel's RowMap struct
#: (_cstepmodule.c).  The per-cycle ``Cpu.step`` oracle test catches
#: any drift.
_ROW_ORDER = (
    "pc", "btb_tag0", "btb_tgt0", "btb_v",
    "imc_addr", "imc_data", "imc_valid", "imc_pred", "imc_ptgt",
    "if_ir", "if_pc", "if_valid", "if_pred", "if_ptgt",
    "mw_val", "mw_pc", "mw_rd", "mw_wen", "mw_valid", "mw_isload",
    "mul_a", "mul_b", "mul_pending",
    "flags", "sflags",
    "br_target", "br_taken", "br_valid",
    "ret_pc", "ret_val", "ret_rd", "ret_valid",
    "lsu_addr", "lsu_wdata", "lsu_op", "lsu_valid",
    "sb_addr", "sb_data", "sb_valid", "sb_op",
    "dmc_addr", "dmc_wdata", "dmc_rdata", "dmc_ctrl", "dmc_strb",
    "mpu_base0", "mpu_limit0", "mpu_ctrl",
    "bus_addr", "bus_data", "bus_ctrl",
    "io_out", "io_out_v", "io_in", "io_in_idx",
    "status", "cause", "epc", "cyc", "halted",
    "dbg_bkpt0", "dbg_bkpt1", "dbg_watch0", "dbg_ctrl",
    "irq_mask", "irq_pending", "cnt_branch", "cnt_mem",
)

_CEXT_TABLES: tuple | None = None


def cext_tables() -> tuple:
    """The 13 lookup buffers the C kernel gathers through.

    Order and dtypes match ``TABLE_SPECS`` in ``_cstepmodule.c``; the
    first two entries fill the RowMap/Consts structs by memcpy in the
    declaration order above.  Built once per process — the arrays are
    immutable shared tables.
    """
    global _CEXT_TABLES
    if _CEXT_TABLES is None:
        rowmap = np.array([REG_INDEX[name] for name in _ROW_ORDER],
                          dtype=np.int64)
        consts = np.array([
            isa.CLS_ALU, isa.CLS_MUL, isa.CLS_LUI, isa.CLS_MEM,
            isa.CLS_BRANCH, isa.CLS_JAL, isa.CLS_JALR, isa.CLS_IN,
            isa.CLS_OUT, isa.CLS_CSRR, isa.CLS_CSRW, isa.CLS_NOP,
            isa.CLS_HALT,
            isa.CAUSE_ILLEGAL, isa.CAUSE_BKPT, isa.CAUSE_IRQ,
            isa.CAUSE_MPU, isa.CAUSE_WATCH, isa.CAUSE_MISALIGNED,
            isa.EXC_VECTOR, isa.STATUS_CNT_EN,
            int(isa.Op.MUL), int(isa.Op.LD), int(isa.Op.LDB),
            int(isa.Op.ST), int(isa.Op.STB), int(isa.Op.BEQ),
            N_REGS,
        ], dtype=np.int64)
        _CEXT_TABLES = (
            rowmap, consts, OPC_CLS, OPC_VALID, OPC_IMM, ALU_SEL,
            LSU_OP_OF, RF_READ_ROW, RF_WRITE_ROW, CSR_READ_ROW,
            CSR_WRITE_ROW, CSR_WRITE_MASK, PORT_ROWS16,
        )
    return _CEXT_TABLES


def usable_cpus() -> int:
    """CPUs this process may run on.

    The affinity mask, not ``os.cpu_count()``: a process pinned to one
    CPU of a larger host gets one.  Falls back to ``os.cpu_count()``
    where the platform has no affinity call.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def cext_module():
    """The compiled kernel module, or None when unavailable."""
    from . import _cstep
    return _cstep.MODULE


def cext_available() -> bool:
    return cext_module() is not None


def cext_build_error() -> str | None:
    """Why the compiled kernel is unavailable (None when it loaded)."""
    from . import _cstep
    return _cstep.BUILD_ERROR


def resolve_kernel() -> str:
    """The engine a batch request runs on in this process.

    ``"cext"`` when the compiled kernel loaded, else ``"scalar"``: the
    drivers then fall back to the scalar engine.
    """
    return "cext" if cext_available() else "scalar"
