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
  once per process by :func:`repro.faults.kernels.cext_tables`;
* a shard arrives as :class:`~repro.faults.models.FaultColumns`; one
  ``triage()`` call decides every fault as
  :func:`~repro.faults.injector.triage_fault` does (masked, deferred,
  or simulated from when), array operations count the PruneStats and
  form the equivalence classes, and a lane is the index of its fault
  in those columns (``seq``), seeded in bulk;
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
(:meth:`repro.faults.parallel.ExecPlan.resolve`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..cpu.units import FULL_WRITE_MASK, REG_INDEX
from ..lockstep.categories import diverged_ports
from . import kernels as _kernels
from .golden import GoldenTrace
from .injector import (
    _CONVERGE_CHECK_START,
    HARD_PRUNED,
    SIMULATE,
    SOFT_PRUNED,
    PruneStats,
)
from .kernels import N_REGS, N_ROWS, PORT_ROWS16, TRASH_ROW, ZERO_ROW
from .models import FAULT_KINDS, ErrorRecord, FaultColumns, FaultKind
from .parallel import DEFAULT_BATCH

#: The datapath is 32 bits wide (no REGISTRY flop exceeds 32 bits), so
#: lane state runs in uint32: half the memory traffic of the packed
#: uint64 golden matrices, and 32-bit wrap-around makes every
#: ``& 0xFFFFFFFF`` truncation free.
_U32 = np.uint32

_R = REG_INDEX
#: Register rows of the two derived port entries (ev_sys / ev_br).
STATUS = _R["status"]; HALTED = _R["halted"]
BR_TAKEN = _R["br_taken"]; BR_VALID = _R["br_valid"]

_FULL32 = _U32(0xFFFFFFFF)

_SOFT = FAULT_KINDS.index(FaultKind.SOFT)
_STUCK1 = FAULT_KINDS.index(FaultKind.STUCK1)

#: Per S row: 1 when every write of the register replaces it whole
#: (``RegSpec.full_write``), which makes a write without a stale read a
#: kill for the liveness triage.
_FULL_WRITE = np.array([(FULL_WRITE_MASK >> i) & 1 for i in range(N_REGS)],
                       dtype=np.uint8)


class BatchInjectionEngine:
    """Structure-of-arrays fault-injection engine (digest parity with scalar).

    Drop-in algorithmic twin of
    :class:`~repro.faults.injector.InjectionEngine`: identical records,
    identical :class:`~repro.faults.injector.PruneStats`, batched
    execution.  Use :meth:`inject_all` with the full per-shard fault
    list: equivalence classes live across one call's whole list, as
    they do across sequential ``inject`` calls of the scalar engine.
    """

    def __init__(self, golden: GoldenTrace, max_observe: int | None = None,
                 mask_check_stride: int = 4, prune: bool = True,
                 batch: int = DEFAULT_BATCH):
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
        self.stats = PruneStats()

        B = self.batch
        #: SoA state: one uint32 column per live lane.
        self.S = np.zeros((N_ROWS, B), dtype=_U32)
        #: Per-lane memory images.
        self.M = np.zeros((B, golden.mem_words), dtype=_U32)
        # The kernel walks one cycle row at a time; seeding, checks and
        # the port compare index the same rows of the trace's own
        # row-major uint32 matrices.
        self._sm32, self._pm32 = golden.state_matrix, golden.port_matrix
        self._g_ports = golden.port_tuples()
        self._stim = np.array(golden.stimulus.values, dtype=_U32)
        self._tables = _kernels.cext_tables()

        # Per-lane bookkeeping.
        self.t = np.zeros(B, dtype=np.int64)          # current cycle
        self.end = np.zeros(B, dtype=np.int64)        # observation horizon
        self.start = np.zeros(B, dtype=np.int64)      # simulation start
        self.next_chk = np.zeros(B, dtype=np.int64)   # next masking/convergence check
        self.chk_iv = np.zeros(B, dtype=np.int64)     # stuck-at check interval
        self.seq = np.zeros(B, dtype=np.int64)        # the lane's fault (input index)
        # int64 (not intp): the C kernel reads this buffer as 8-byte rows.
        self.force_row = np.full(B, TRASH_ROW, dtype=np.int64)
        self.force_and = np.full(B, _FULL32, dtype=_U32)
        self.force_or = np.zeros(B, dtype=_U32)
        self.is_hard = np.zeros(B, dtype=bool)
        self._n = 0
        self._load(FaultColumns.from_faults(()))

    # -- public API ----------------------------------------------------------

    def inject_all(self, faults) -> list[ErrorRecord | None]:
        """Run every fault; returns outcomes aligned with the input order.

        ``faults`` is a :class:`~repro.faults.models.FaultColumns` or
        any iterable of :class:`~repro.faults.models.Fault` (converted
        once here).  ``None`` entries are masked faults, exactly as the
        scalar engine's ``inject`` returns.
        """
        if not isinstance(faults, FaultColumns):
            faults = FaultColumns.from_faults(faults)
        queue, hits, reps = self._plan(faults)
        self._drive(queue)
        self._replay(hits, reps)
        return self._outcomes

    # -- triage (one C call, held to injector.triage_fault) ------------------

    def _plan(self, faults: FaultColumns) -> tuple[np.ndarray, ...]:
        """Triage ``faults`` and count what it saves.

        Returns the queue of faults to simulate, longest observation
        window first, and the equivalence hits with the representative
        each one replays.
        """
        self._load(faults)
        decision, act, start, end = self._triage(
            self._reg, self._bit, faults.kind, faults.cycle)
        self._start, self._end = start, end
        self._count_pruning(decision, act, start, end)
        simulate = decision == SIMULATE
        hits = reps = np.empty(0, dtype=np.int64)
        if self.prune:
            simulate, hits, reps = self._equivalence_classes(simulate)
        queue = np.flatnonzero(simulate)
        # Longest observation windows first (LPT) so stragglers overlap
        # the bulk instead of trailing it with a near-empty batch.
        # Order cannot affect results: equivalence representatives are
        # fixed at triage (input order), each lane's outcome depends
        # only on its own seed state, and stats are order-independent
        # sums — so the digest is unchanged.
        order = np.argsort(start[queue] - end[queue], kind="stable")
        return queue[order], hits, reps

    def _load(self, faults: FaultColumns) -> None:
        """Make ``faults`` the columns that lanes index by ``seq``."""
        self._faults = faults
        flops = faults.flops
        self._reg = np.array([REG_INDEX[f.reg] for f in flops],
                             dtype=np.int64)[faults.flop]
        self._bit = np.array([f.bit for f in flops], dtype=np.int64)[faults.flop]
        self._start = self._end = np.zeros(len(faults), dtype=np.int64)
        self._span = np.zeros(len(faults), dtype=np.int64)
        self._outcomes: list[ErrorRecord | None] = [None] * len(faults)

    def _triage(self, reg, bit, kind, cycle) -> tuple[np.ndarray, ...]:
        """``triage_fault`` of every fault given as columns, in one call:
        ``(decision, activation, start, end)`` columns."""
        golden = self.golden
        count = len(cycle)
        decision = np.empty(count, dtype=np.uint8)
        act, start, end = (np.empty(count, dtype=np.int64) for _ in range(3))
        max_observe = (-1 if self.max_observe is None
                       else min(self.max_observe, golden.n_cycles))
        self._cext.triage(self._sm32, golden.read_mask, golden.write_mask,
                          _FULL_WRITE, reg, bit, kind, cycle, decision, act,
                          start, end, self.prune, max_observe)
        return decision, act, start, end

    def _count_pruning(self, decision, act, start, end) -> None:
        """Add triage's share of the PruneStats, as the scalar engine's
        ``inject`` counts it per fault."""
        stats = self.stats
        soft = self._faults.kind == _SOFT
        pruned = (decision == SOFT_PRUNED) | (decision == HARD_PRUNED)
        deferred = (decision == SIMULATE) & (start > act)
        stats.soft_pruned += int(np.count_nonzero(pruned & soft))
        stats.hard_pruned += int(np.count_nonzero(pruned & ~soft))
        stats.soft_deferred += int(np.count_nonzero(deferred & soft))
        stats.hard_deferred += int(np.count_nonzero(deferred & ~soft))
        stats.cycles_saved += int((end - act)[pruned].sum()
                                  + (start - act)[deferred].sum())

    def _equivalence_classes(self, simulate) -> tuple[np.ndarray, ...]:
        """Split the simulated soft faults into dynamic equivalence classes.

        Soft faults on one (reg, bit) with one deferred start share
        their whole future, so only the first of each class in input
        order (its representative) is simulated.  Returns the faults
        still to simulate, the other members (hits) and each hit's
        representative.
        """
        members = np.flatnonzero(simulate & (self._faults.kind == _SOFT))
        keys = ((self._reg[members] * 32 + self._bit[members])
                * (self.golden.n_cycles + 1) + self._start[members])
        _, first, cls = np.unique(keys, return_index=True, return_inverse=True)
        reps = members[first][cls]
        is_hit = reps != members
        simulate = simulate.copy()
        simulate[members[is_hit]] = False
        self.stats.equiv_classes += len(first)
        return simulate, members[is_hit], reps[is_hit]

    def _replay(self, hits, reps) -> None:
        """Give each equivalence hit its representative's outcome, with
        its own injection cycle."""
        stats = self.stats
        stats.equiv_hits += len(hits)
        stats.cycles_saved += int(self._span[reps].sum())
        outcomes = self._outcomes
        cycles = self._faults.cycle
        for hit, rep in zip(hits.tolist(), reps.tolist()):
            record = outcomes[rep]
            if record is not None:
                outcomes[hit] = dataclasses.replace(
                    record, inject_cycle=int(cycles[hit]))

    # -- lane lifecycle ------------------------------------------------------

    def _seed_many(self, queue: np.ndarray) -> np.ndarray:
        """Seed lanes from the head of ``queue`` (fault indices) up to
        the batch width; returns the rest of the queue.

        One gather per lane array, and one bulk reconstruction of every
        new lane's memory (:meth:`GoldenTrace.memory_rows_at`).
        """
        take = min(self.batch - self._n, len(queue))
        if take <= 0:
            return queue
        seqs = queue[:take]
        i0 = self._n
        self._n = i0 + take
        lanes = np.arange(i0, i0 + take)
        sl = slice(i0, i0 + take)
        starts = self._start[seqs]
        self.S[:N_REGS, sl] = self._sm32[starts].T
        self.S[ZERO_ROW, sl] = 0
        self.S[TRASH_ROW, sl] = 0
        self.golden.memory_rows_at(starts, self.M, lanes)
        self.t[sl] = starts
        self.start[sl] = starts
        self.end[sl] = self._end[seqs]
        self.seq[sl] = seqs
        kind = self._faults.kind[seqs]
        soft = kind == _SOFT
        stuck1 = kind == _STUCK1
        reg_rows = self._reg[seqs]
        masks = np.left_shift(1, self._bit[seqs]).astype(_U32)
        self.is_hard[sl] = ~soft
        self.S[reg_rows[soft], lanes[soft]] ^= masks[soft]
        self.force_row[sl] = np.where(soft, TRASH_ROW, reg_rows)
        self.force_and[sl] = np.where(soft | stuck1, _FULL32, ~masks)
        self.force_or[sl] = np.where(stuck1, masks, _U32(0))
        self.next_chk[sl] = starts + np.where(soft, 1, _CONVERGE_CHECK_START)
        self.chk_iv[sl] = np.where(soft, self.mask_check_stride,
                                   _CONVERGE_CHECK_START)
        return queue[take:]

    def _retire(self, lanes: np.ndarray, detected: bool = False) -> None:
        """Retire ``lanes``: note each one's simulated span (what an
        equivalence hit replays) and compact them out."""
        self._span[self.seq[lanes]] = (self.t[lanes] - self.start[lanes]
                                       + int(detected))
        self._compact(lanes)

    def _compact(self, dead) -> None:
        """Remove retired lanes by moving live tail columns into the holes.

        One fancy-indexed copy per array: retirements arrive hundreds
        at a time under the compiled kernel, and lane order is
        immaterial (every decision is lane-local and outcomes are keyed
        by ``seq``).
        """
        n = self._n
        gone = np.zeros(n, dtype=bool)
        gone[dead] = True
        new_n = n - int(np.count_nonzero(gone))
        self._n = new_n
        # Surviving tail lanes drop into the holes below the new count,
        # in order; |holes| == |movers| by construction.
        holes = np.flatnonzero(gone[:new_n])
        if not holes.size:
            return
        movers = new_n + np.flatnonzero(~gone[new_n:])
        self.S[:, holes] = self.S[:, movers]
        self.M[holes] = self.M[movers]
        for arr in (self.t, self.end, self.start, self.next_chk,
                    self.chk_iv, self.seq, self.force_row, self.force_and,
                    self.force_or, self.is_hard):
            arr[holes] = arr[movers]

    # -- main driver ---------------------------------------------------------

    def _drive(self, queue: np.ndarray) -> None:
        golden = self.golden
        stats = self.stats
        name = golden.workload.name
        g_ports = self._g_ports
        faults = self._faults
        outcomes = self._outcomes
        t = self.t
        while self._n or len(queue):
            queue = self._seed_many(queue)
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
                self.mask_check_stride, 1 << 30)
            stats.sim_cycles += ran

            # (a) lanes past their observation horizon: masked.
            done = np.flatnonzero(t[:n] >= self.end[:n])
            if done.size:
                self._retire(done)
                continue

            # (b) masking / re-convergence checks (pre-step, pre-force:
            # the scalar snapshot at the same cycle is equally unforced).
            chk = np.flatnonzero(t[:n] == self.next_chk[:n])
            if chk.size and self._check(chk):
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
            det = np.flatnonzero(div)
            # One bulk extraction instead of 18 scalar conversions per
            # detection — detections arrive hundreds at a time.
            seqs = self.seq[det]
            ports16 = P16[:, det].T.tolist()
            ev_l = np.stack((evs[det], evb[det]), axis=1).tolist()
            for s, flop, kind, t0, tcur, p16, ev in zip(
                    seqs.tolist(), faults.flop[seqs].tolist(),
                    faults.kind[seqs].tolist(), faults.cycle[seqs].tolist(),
                    tt[det].tolist(), ports16, ev_l):
                out = tuple(p16) + tuple(ev)
                outcomes[s] = ErrorRecord(
                    benchmark=name, flop=faults.flops[flop],
                    kind=FAULT_KINDS[kind], inject_cycle=t0,
                    detect_cycle=tcur,
                    diverged=diverged_ports(out, g_ports[tcur]))
            # The scalar step that showed each tuple.
            stats.sim_cycles += len(det)
            self._retire(det, detected=True)

    def _check(self, chk: np.ndarray) -> bool:
        """Phase (b) for the lanes ``chk`` parked at a check cycle.

        A soft lane equal to golden has re-converged (masked); one that
        differs re-checks a stride later.  A stuck-at lane that differs
        backs off; one equal to golden fast-forwards to the stuck bit's
        next (observed) activation, as the scalar engine does post-step,
        or retires when there is none in its window.  Returns whether
        any lane retired.
        """
        t = self.t
        eq = (self.S[:N_REGS, chk] == self._sm32[t[chk]].T).all(axis=0)
        hard = self.is_hard[chk]
        soft_on = chk[~hard & ~eq]
        self.next_chk[soft_on] += self.mask_check_stride
        hard_on = chk[hard & ~eq]
        self.chk_iv[hard_on] *= 2
        self.next_chk[hard_on] = t[hard_on] + self.chk_iv[hard_on]
        retire = chk[~hard & eq]
        ff = chk[hard & eq]
        if ff.size:
            seqs = self.seq[ff]
            tcur = t[ff]
            # The triage start of a stuck-at "injected" now is its next
            # activation (observed, when pruning), or -1 for none.
            t_next = self._triage(self._reg[seqs], self._bit[seqs],
                                  self._faults.kind[seqs], tcur)[2]
            gone = (t_next < 0) | (t_next >= self.end[ff])
            jump = ~gone & (t_next > tcur)
            stay = ff[~gone & ~jump]
            self.next_chk[stay] = t[stay] + self.chk_iv[stay]
            lanes, t_jump = ff[jump], t_next[jump]
            if lanes.size:
                self.S[:N_REGS, lanes] = self._sm32[t_jump].T
                self.golden.memory_rows_at(t_jump, self.M, lanes)
                t[lanes] = t_jump
                self.chk_iv[lanes] = _CONVERGE_CHECK_START
                self.next_chk[lanes] = t_jump + _CONVERGE_CHECK_START
            # A force that is a no-op for the rest of the window.
            retire = np.concatenate((retire, ff[gone]))
        if not retire.size:
            return False
        self._retire(retire)
        return True
