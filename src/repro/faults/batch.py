"""Batch fault injection: many scenarios per compiled-kernel call.

The scalar :class:`~repro.faults.injector.InjectionEngine` advances one
faulty core per Python ``Cpu.step()`` call.  This module keeps the
*same algorithm* — deferred starts, masking checks, stuck-at
re-convergence fast-forward, dynamic equivalence classes — but lays the
microarchitectural state of many in-flight fault scenarios out as a
structure-of-arrays matrix and advances them with the compiled kernel
in :mod:`repro.faults._cstep`:

* ``S`` is a ``(n_regs + 2, B)`` uint32 matrix (the datapath is 32 bits
  wide, so wrap-around replaces explicit truncation masks): one column
  per live lane (scenario), one row per
  :data:`~repro.cpu.units.REGISTRY` flop register, plus a
  hardwired-zero read row and a write-sink row so that every decode
  gather/scatter is total (``r0`` reads, ``rd=0`` writes and unmapped
  CSR accesses index those rows instead of branching);
* ``M`` is a ``(B, mem_words)`` uint32 matrix of per-lane memories;
* decode goes through dense opcode tables from :mod:`repro.cpu.isa`
  (the same tables ``core.py`` dispatches on), handed to the kernel
  once per process by :func:`_cext_tables`;
* one ``drive()`` call runs every lane to its own next rare-path event
  (horizon, state equal to golden at a check cycle, or a port
  divergence), and Python handles those events with whole-lane numpy
  compares against the packed golden ``port_matrix``/``state_matrix``
  rows;
* retired lanes (detected, masked, or fast-forward-pruned) are
  compacted out by moving the last live column into the hole, so the
  batch stays dense and refills from the pending fault queue.

Lanes run at *independent* cycle indices: a per-lane time vector ``t``
addresses the golden matrices row-wise, so a freshly seeded lane and
a lane deep into its observation window share the same kernel call.

Equivalence with the scalar engine (digest parity) is by construction:

* the scalar loop compares the port tuple *returned by* ``step()`` —
  i.e. the port view of the pre-step state at cycle ``t``.  The batch
  driver compares the state's port rows at ``t`` *before* stepping,
  which is the same value; a detection therefore fires at the same
  cycle with the same port tuple (one extra ``sim_cycles`` is charged
  at detection to mirror the scalar step that produced the tuple);
* the scalar soft masking check runs after stepping cycle ``t`` when
  ``(t - start) % stride == 0``, against golden state ``t + 1`` — the
  batch check runs pre-step at ``t'`` for ``t'`` in ``start + 1``,
  ``start + 1 + stride``, ...: the same cycles, same states;
* the scalar stuck-at re-convergence check runs post-step at
  ``t == next_check`` on the unforced snapshot — the batch check runs
  pre-step at ``t == next_chk`` *before* the per-cycle force is
  re-applied: the same unforced state.  Fast-forward reseeds the lane
  from the golden state/memory at the next (observed) activation;
* a halted lane never needs stepping: the golden trace ends at HALT and
  never shows ``halted`` on its ``ev_sys`` port, so a lane that halts
  is caught by the port compare (divergence) or runs out of window
  (masked) before its halted state could matter — there is no frozen
  state to preserve, hence no run-mask in the kernel.

The kernel's cycle semantics are pinned per cycle to ``Cpu.step`` by
``tests/test_kernels.py``.  This is the campaign drivers' default
engine.  Without a C compiler the kernel cannot load and this engine
refuses to start; the drivers then run the scalar engine instead
(:func:`repro.faults.parallel.resolve_batch`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..cpu import isa
from ..cpu.units import REG_INDEX, REGISTRY
from ..lockstep.categories import diverged_ports
from . import kernels as _kernels
from .golden import GoldenTrace
from .injector import _CONVERGE_CHECK_START, PruneStats
from .models import ErrorRecord, Fault, FaultKind
from .parallel import DEFAULT_BATCH

#: The datapath is 32 bits wide (no REGISTRY flop exceeds 32 bits), so
#: lane state runs in uint32: half the memory traffic of the packed
#: uint64 golden matrices, and 32-bit wrap-around makes every
#: ``& 0xFFFFFFFF`` truncation free.
_U32 = np.uint32
_M32 = 0xFFFFFFFF

#: Number of genuine flop registers (rows 0 .. N_REGS-1 of ``S``).
N_REGS = len(REGISTRY)
#: Hardwired-zero read row: ``r0`` operand reads and unmapped CSRR.
ZERO_ROW = N_REGS
#: Write-sink row: ``rd=0`` writebacks, unmapped CSRW, soft-lane force.
TRASH_ROW = N_REGS + 1
N_ROWS = N_REGS + 2

_R = REG_INDEX
#: Register rows of the two derived port entries (ev_sys / ev_br).
STATUS = _R["status"]; HALTED = _R["halted"]
BR_TAKEN = _R["br_taken"]; BR_VALID = _R["br_valid"]

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
LSU_OP_OF = np.zeros(64, dtype=_U32)
LSU_OP_OF[int(isa.Op.LD)] = 1
LSU_OP_OF[int(isa.Op.LDB)] = 2
LSU_OP_OF[int(isa.Op.ST)] = 3
LSU_OP_OF[int(isa.Op.STB)] = 4

#: register-file field value -> S row (field 0 reads zero, writes sink).
RF_READ_ROW = np.array(
    [ZERO_ROW] + [_R[f"rf{i}"] for i in range(1, 16)], dtype=np.int64)
RF_WRITE_ROW = np.array(
    [TRASH_ROW] + [_R[f"rf{i}"] for i in range(1, 16)], dtype=np.int64)

#: CSR number (14-bit imm field, unsigned) -> S row / write mask.  A
#: negative imm has bit 13 set, indexing the unmapped upper half —
#: exactly the scalar dict-miss behaviour (read 0 / write dropped).
CSR_READ_ROW = np.full(1 << 14, ZERO_ROW, dtype=np.int64)
for _num, _reg in isa.CSR_READ_REG.items():
    CSR_READ_ROW[_num] = _R[_reg]
CSR_WRITE_ROW = np.full(1 << 14, TRASH_ROW, dtype=np.int64)
CSR_WRITE_MASK = np.zeros(1 << 14, dtype=_U32)
for _num, (_reg, _mask) in isa.CSR_WRITE_REG.items():
    CSR_WRITE_ROW[_num] = _R[_reg]
    CSR_WRITE_MASK[_num] = _mask

#: S rows of the 16 register-valued entries of the compact port tuple
#: (ev_sys / ev_br, entries 16 and 17, are derived bit combines).
PORT_ROWS16 = np.array([_R[name] for name in (
    "imc_addr", "imc_valid", "imc_pred",
    "dmc_addr", "dmc_wdata", "dmc_ctrl", "dmc_strb",
    "bus_addr", "bus_data", "bus_ctrl",
    "io_out", "io_out_v",
    "ret_pc", "ret_val", "ret_rd", "ret_valid")], dtype=np.int64)

_FULL32 = _U32(0xFFFFFFFF)

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


def _cext_tables() -> tuple:
    """The 13 lookup buffers the C kernel gathers through.

    Order and dtypes match ``TABLE_SPECS`` in ``_cstepmodule.c``; the
    first two entries fill the RowMap/Consts structs by memcpy in the
    declaration order above.  Built once per process — the arrays are
    immutable shared tables.
    """
    global _CEXT_TABLES
    if _CEXT_TABLES is None:
        rowmap = np.array([_R[name] for name in _ROW_ORDER], dtype=np.int64)
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


def _golden_c_matrices(golden: GoldenTrace) -> tuple[np.ndarray, np.ndarray]:
    """Row-major uint32 copies of the golden state and port matrices.

    The kernel walks one cycle row at a time; seeding, checks and the
    port compare index the same rows.  Cached on the trace so every
    engine (and every shard in a worker process) shares one copy.
    """
    sm32 = getattr(golden, "_cstep_sm32", None)
    if sm32 is None:
        sm32 = np.ascontiguousarray(golden.state_matrix, dtype=_U32)
        pm32 = np.ascontiguousarray(golden.port_matrix, dtype=_U32)
        golden._cstep_sm32 = sm32
        golden._cstep_pm32 = pm32
    return sm32, golden._cstep_pm32


class BatchInjectionEngine:
    """Structure-of-arrays fault-injection engine (digest parity with scalar).

    Drop-in algorithmic twin of
    :class:`~repro.faults.injector.InjectionEngine`: identical records,
    identical :class:`~repro.faults.injector.PruneStats`, batched
    execution.  Use :meth:`inject_all` with the full per-shard fault
    list (equivalence classes and the convergence caches live across
    the whole list, as they do across sequential ``inject`` calls).
    """

    def __init__(self, golden: GoldenTrace, max_observe: int | None = None,
                 mask_check_stride: int = 4, prune: bool = True,
                 batch: int = DEFAULT_BATCH, threads: int | None = None):
        self._cext = _kernels.cext_module()
        if self._cext is None:
            raise RuntimeError(
                "the batch engine needs the compiled kernel, which is "
                f"unavailable: {_kernels.cext_build_error() or 'import failed'}")
        self.golden = golden
        self.max_observe = max_observe
        self.mask_check_stride = max(1, mask_check_stride)
        self.prune = prune
        self.batch = max(1, batch)
        #: Drive-loop thread count.  Any value is digest-identical —
        #: lane slices merge in lane order — so this is purely a
        #: wall-clock knob; see DESIGN §5.17 for the slice-width math.
        self.threads = _kernels.resolve_threads(threads, lanes=self.batch)
        self.stats = PruneStats()

        B = self.batch
        #: SoA state: one uint32 column per live lane.
        self.S = np.zeros((N_ROWS, B), dtype=_U32)
        #: Per-lane memory images.
        self.M = np.zeros((B, golden.mem_words), dtype=_U32)
        self._sm32, self._pm32 = _golden_c_matrices(golden)
        self._g_ports = golden.port_tuples()
        self._stim = np.array(golden.stimulus.values, dtype=_U32)
        self._tables = _cext_tables()

        # Per-lane bookkeeping.
        self.t = np.zeros(B, dtype=np.int64)          # current cycle
        self.end = np.zeros(B, dtype=np.int64)        # observation horizon
        self.start = np.zeros(B, dtype=np.int64)      # simulation start
        self.next_chk = np.zeros(B, dtype=np.int64)   # next masking/convergence check
        self.chk_iv = np.zeros(B, dtype=np.int64)     # stuck-at check interval
        self.seq = np.zeros(B, dtype=np.int64)        # index into the outcome list
        # int64 (not intp): the C kernel reads this buffer as 8-byte rows.
        self.force_row = np.full(B, TRASH_ROW, dtype=np.int64)
        self.force_and = np.full(B, _FULL32, dtype=_U32)
        self.force_or = np.zeros(B, dtype=_U32)
        self.is_hard = np.zeros(B, dtype=bool)
        self.info: list[tuple[Fault, tuple[str, int, int] | None] | None] = [None] * B
        self._n = 0

        #: (reg, bit, start) -> (outcome, span); shared across inject_all calls.
        self._soft_classes: dict[
            tuple[str, int, int],
            tuple[tuple[int, frozenset[int]] | None, int]] = {}
        self._parked: dict[tuple[str, int, int], list[tuple[int, int]]] = {}
        self._outcomes: list[ErrorRecord | None] = []

    # -- public API ----------------------------------------------------------

    def inject_all(self, faults) -> list[ErrorRecord | None]:
        """Run every fault; returns outcomes aligned with the input order.

        ``None`` entries are masked faults, exactly as the scalar
        engine's ``inject`` returns.
        """
        faults = list(faults)
        outcomes: list[ErrorRecord | None] = [None] * len(faults)
        self._outcomes = outcomes
        pending = self._triage(faults)
        # Longest observation windows first (LPT) so stragglers overlap
        # the bulk instead of trailing it with a near-empty batch.
        # Order cannot affect results: equivalence representatives are
        # fixed at triage (input order), each lane's outcome depends
        # only on its own seed state, and stats are order-independent
        # sums — so the digest is unchanged.
        pending = deque(sorted(pending, key=lambda s: s[3] - s[2], reverse=True))
        self._drive(pending)
        # Any key still parked had its representative retired in this
        # call (the queue drained), so _finish resolved it; leftover
        # parked entries would be a driver bug.
        assert not self._parked, "unresolved equivalence classes"
        return outcomes

    # -- triage (pure Python, mirrors scalar inject()) -----------------------

    def _triage(self, faults: list[Fault]) -> deque:
        golden = self.golden
        n = golden.n_cycles
        stats = self.stats
        prune = self.prune
        pending: deque = deque()
        for seq, fault in enumerate(faults):
            t0 = fault.cycle
            if not 0 <= t0 < n:
                continue
            if fault.kind is FaultKind.SOFT:
                if not prune:
                    pending.append((seq, fault, t0, n, None))
                    continue
                start = golden.soft_start(fault.flop.reg, t0)
                if start is None:
                    stats.soft_pruned += 1
                    stats.cycles_saved += n - t0
                    continue
                if start > t0:
                    stats.soft_deferred += 1
                    stats.cycles_saved += start - t0
                key = (fault.flop.reg, fault.flop.bit, start)
                cached = self._soft_classes.get(key)
                if cached is not None:
                    stats.equiv_hits += 1
                    outcome, span = cached
                    stats.cycles_saved += span
                    outcomes = self._outcomes
                    outcomes[seq] = self._replay(fault, t0, outcome)
                    continue
                lst = self._parked.get(key)
                if lst is not None:
                    # Representative already queued: replay at resolution.
                    lst.append((seq, t0))
                    continue
                self._parked[key] = []
                pending.append((seq, fault, start, n, key))
            else:
                value = 1 if fault.kind is FaultKind.STUCK1 else 0
                t_act = golden.activation_cycle(
                    fault.flop.reg, fault.flop.bit, value, t0)
                if t_act is None:
                    continue
                end = n if self.max_observe is None else min(n, t_act + self.max_observe)
                if prune:
                    t_start = golden.first_active_use(
                        fault.flop.reg, fault.flop.bit, value, t_act)
                    if t_start is None or t_start >= end:
                        stats.hard_pruned += 1
                        stats.cycles_saved += end - t_act
                        continue
                    if t_start > t_act:
                        stats.hard_deferred += 1
                        stats.cycles_saved += t_start - t_act
                else:
                    t_start = t_act
                pending.append((seq, fault, t_start, end, None))
        return pending

    def _replay(self, fault: Fault, t0: int,
                outcome: tuple[int, frozenset[int]] | None) -> ErrorRecord | None:
        if outcome is None:
            return None
        detect_cycle, diverged = outcome
        return ErrorRecord(
            benchmark=self.golden.workload.name, flop=fault.flop,
            kind=fault.kind, inject_cycle=t0, detect_cycle=detect_cycle,
            diverged=diverged,
        )

    # -- lane lifecycle ------------------------------------------------------

    def _seed_many(self, pending: deque) -> None:
        """Seed up to ``batch - n`` lanes from the fault queue in bulk.

        Vectorised counterpart of :meth:`_seed`: under the compiled
        kernel whole generations of lanes retire at once, so refills
        arrive hundreds at a time and per-lane numpy dispatch dominated
        the seeding phase.  Same lane state, one fancy-indexed
        assignment per array (only the per-start memory reconstruction
        stays a loop — each start replays a different write-log span).
        """
        take = min(self.batch - self._n, len(pending))
        if take <= 0:
            return
        specs = [pending.popleft() for _ in range(take)]
        i0 = self._n
        self._n = i0 + take
        sl = slice(i0, i0 + take)
        starts = np.fromiter((s[2] for s in specs), np.int64, count=take)
        self.S[:N_REGS, sl] = self._sm32[starts].T
        self.S[ZERO_ROW, sl] = 0
        self.S[TRASH_ROW, sl] = 0
        info = self.info
        mem = self.golden.memory_words_at
        for j, (seq, fault, start, end, key) in enumerate(specs):
            mem(start, out=self.M[i0 + j])
            info[i0 + j] = (fault, key)
        self.t[sl] = starts
        self.start[sl] = starts
        self.end[sl] = np.fromiter((s[3] for s in specs), np.int64,
                                   count=take)
        self.seq[sl] = np.fromiter((s[0] for s in specs), np.int64,
                                   count=take)
        reg_rows = np.fromiter(
            (REG_INDEX[s[1].flop.reg] for s in specs), np.int64, count=take)
        masks = np.fromiter(
            ((1 << s[1].flop.bit) & _M32 for s in specs), _U32, count=take)
        soft = np.fromiter(
            (s[1].kind is FaultKind.SOFT for s in specs), bool, count=take)
        stuck1 = np.fromiter(
            (s[1].kind is FaultKind.STUCK1 for s in specs), bool, count=take)
        self.is_hard[sl] = ~soft
        flip_cols = np.arange(i0, i0 + take)[soft]
        self.S[reg_rows[soft], flip_cols] ^= masks[soft]
        self.force_row[sl] = np.where(soft, TRASH_ROW, reg_rows)
        self.force_and[sl] = np.where(soft | stuck1, _FULL32, ~masks)
        self.force_or[sl] = np.where(stuck1, masks, _U32(0))
        self.next_chk[sl] = starts + np.where(soft, 1, _CONVERGE_CHECK_START)
        self.chk_iv[sl] = np.where(soft, self.mask_check_stride,
                                   _CONVERGE_CHECK_START)

    def _seed(self, spec) -> None:
        """Scalar reference for :meth:`_seed_many` (pinned by tests)."""
        seq, fault, start, end, key = spec
        i = self._n
        self._n = i + 1
        self.S[:N_REGS, i] = self._sm32[start]
        self.S[ZERO_ROW, i] = 0
        self.S[TRASH_ROW, i] = 0
        self.golden.memory_words_at(start, out=self.M[i])
        self.t[i] = start
        self.end[i] = end
        self.start[i] = start
        self.seq[i] = seq
        self.info[i] = (fault, key)
        reg_row = REG_INDEX[fault.flop.reg]
        mask = 1 << fault.flop.bit
        if fault.kind is FaultKind.SOFT:
            self.is_hard[i] = False
            self.S[reg_row, i] ^= _U32(mask)
            self.force_row[i] = TRASH_ROW
            self.force_and[i] = _FULL32
            self.force_or[i] = 0
            self.next_chk[i] = start + 1
            self.chk_iv[i] = self.mask_check_stride
        else:
            self.is_hard[i] = True
            self.force_row[i] = reg_row
            if fault.kind is FaultKind.STUCK1:
                self.force_and[i] = _FULL32
                self.force_or[i] = mask
            else:
                self.force_and[i] = _U32(~mask & _M32)
                self.force_or[i] = 0
            self.next_chk[i] = start + _CONVERGE_CHECK_START
            self.chk_iv[i] = _CONVERGE_CHECK_START

    def _finish(self, i: int, record: ErrorRecord | None) -> None:
        """Record lane ``i``'s outcome and resolve its equivalence class."""
        outcomes = self._outcomes
        outcomes[self.seq[i]] = record
        fault, key = self.info[i]
        if key is None:
            return
        span = int(self.t[i] - self.start[i]) + (1 if record is not None else 0)
        outcome = None if record is None else (record.detect_cycle, record.diverged)
        self._soft_classes[key] = (outcome, span)
        self.stats.equiv_classes += 1
        stats = self.stats
        name = self.golden.workload.name
        for pseq, pt0 in self._parked.pop(key, ()):
            stats.equiv_hits += 1
            stats.cycles_saved += span
            if outcome is not None:
                detect_cycle, diverged = outcome
                outcomes[pseq] = ErrorRecord(
                    benchmark=name, flop=fault.flop, kind=fault.kind,
                    inject_cycle=pt0, detect_cycle=detect_cycle,
                    diverged=diverged)

    def _compact(self, dead) -> None:
        """Remove retired lanes by moving live tail columns into the holes.

        One fancy-indexed copy per array instead of a per-lane scalar
        shuffle: retirements arrive hundreds at a time under the
        compiled kernel, and lane order is immaterial (every decision
        is lane-local and outcomes are keyed by ``seq``).
        """
        dead_set = set(dead)
        n = self._n
        new_n = n - len(dead_set)
        self._n = new_n
        # Surviving tail lanes drop into the holes below the new count,
        # in order; |holes| == |movers| by construction.
        holes = sorted(i for i in dead_set if i < new_n)
        movers = [i for i in range(new_n, n) if i not in dead_set]
        info = self.info
        for hole, mover in zip(holes, movers):
            info[hole] = info[mover]
        for i in range(new_n, n):
            info[i] = None
        if not holes:
            return
        self.S[:, holes] = self.S[:, movers]
        self.M[holes] = self.M[movers]
        for arr in (self.t, self.end, self.start, self.next_chk,
                    self.chk_iv, self.seq, self.force_row, self.force_and,
                    self.force_or, self.is_hard):
            arr[holes] = arr[movers]

    # -- main driver ---------------------------------------------------------

    def _drive(self, pending: deque) -> None:
        golden = self.golden
        stats = self.stats
        name = golden.workload.name
        g_ports = self._g_ports
        t = self.t
        while self._n or pending:
            self._seed_many(pending)
            n = self._n
            # One C call runs *every* lane to its own next rare-path
            # event (lanes outer, cycles inner — each lane's column stays
            # L1-resident however wide the batch is): force re-assert,
            # golden port compare, step, and the routine check-interval
            # bumps of phase (b) all run inline.  On return every lane is
            # parked at its horizon, at a check cycle where its state
            # equals golden (pre-force), or pre-step at a port divergence
            # with its force applied, so the phases below re-derive the
            # event kind from the lane state itself.  A parked lane that
            # re-enters the call parks again at zero cycles, so each
            # iteration progresses: it retires, records or fast-forwards
            # at least one lane.
            ran, diverged = self._cext.drive(
                self.S, self.M, self._sm32, self._pm32, self._stim,
                t, self.end, self.next_chk, self.chk_iv,
                self.is_hard, self.force_row, self.force_and,
                self.force_or, self._tables, n,
                self.mask_check_stride, 1 << 30, self.threads)
            stats.sim_cycles += ran

            # (a) lanes past their observation horizon: masked.
            done = np.nonzero(t[:n] >= self.end[:n])[0]
            if done.size:
                for i in done:
                    self._finish(int(i), None)
                self._compact(done.tolist())
                continue

            # (b) masking / re-convergence checks (pre-step, pre-force:
            # the scalar snapshot at the same cycle is equally unforced).
            chk = np.nonzero(t[:n] == self.next_chk[:n])[0]
            if chk.size:
                eq = (self.S[:N_REGS, chk] == self._sm32[t[chk]].T).all(axis=0)
                retire = []
                for j, idx in enumerate(chk):
                    i = int(idx)
                    if not self.is_hard[i]:
                        if eq[j]:
                            retire.append(i)  # re-converged: masked
                        else:
                            self.next_chk[i] += self.mask_check_stride
                        continue
                    if not eq[j]:
                        self.chk_iv[i] *= 2
                        self.next_chk[i] = int(t[i]) + self.chk_iv[i]
                        continue
                    # Stuck-at lane bit-identical to golden: fast-forward
                    # to the next (observed) activation, as the scalar
                    # engine does post-step.
                    fault, _key = self.info[i]
                    value = 1 if fault.kind is FaultKind.STUCK1 else 0
                    tcur = int(t[i])
                    if self.prune:
                        t_next = golden.first_active_use(
                            fault.flop.reg, fault.flop.bit, value, tcur)
                    else:
                        t_next = golden.activation_cycle(
                            fault.flop.reg, fault.flop.bit, value, tcur)
                    if t_next is None or t_next >= self.end[i]:
                        retire.append(i)  # force is a no-op henceforth
                    elif t_next > tcur:
                        self.S[:N_REGS, i] = self._sm32[t_next]
                        golden.memory_words_at(t_next, out=self.M[i])
                        t[i] = t_next
                        self.chk_iv[i] = _CONVERGE_CHECK_START
                        self.next_chk[i] = t_next + _CONVERGE_CHECK_START
                    else:
                        self.next_chk[i] = tcur + self.chk_iv[i]
                if retire:
                    for i in retire:
                        self._finish(i, None)
                    self._compact(retire)
                    continue

            # (c) detections: lanes parked at a port divergence.  Lanes
            # that (b) left in place or fast-forwarded equal golden, so
            # their ports cannot differ.
            if not diverged:
                continue
            tt = t[:n]
            gp = self._pm32[tt]
            Sa = self.S[:, :n]
            P16 = Sa[PORT_ROWS16]
            evs = (Sa[STATUS] & 1) | (Sa[HALTED] << 1)
            evb = Sa[BR_TAKEN] | (Sa[BR_VALID] << 1)
            div = (P16 != gp[:, :16].T).any(axis=0)
            div |= evs != gp[:, 16]
            div |= evb != gp[:, 17]
            det = np.nonzero(div)[0]
            # One bulk extraction instead of 18 scalar conversions per
            # detection — detections arrive hundreds at a time.
            det_l = det.tolist()
            ports16 = P16[:, det].T.tolist()
            ev_l = np.stack((evs[det], evb[det]), axis=1).tolist()
            t_l = tt[det].tolist()
            for i, tcur, p16, ev in zip(det_l, t_l, ports16, ev_l):
                out = tuple(p16) + tuple(ev)
                fault, _key = self.info[i]
                record = ErrorRecord(
                    benchmark=name, flop=fault.flop, kind=fault.kind,
                    inject_cycle=fault.cycle, detect_cycle=tcur,
                    diverged=diverged_ports(out, g_ports[tcur]))
                stats.sim_cycles += 1  # the scalar step that showed this tuple
                self._finish(i, record)
            self._compact(det_l)
