"""Batch fault injection: a shard's faults through the compiled kernel.

The scalar :class:`~repro.faults.injector.InjectionEngine` advances one
faulty core per Python ``Cpu.step()`` call.  This module keeps the
*same algorithm* — deferred starts, masking checks, stuck-at
re-convergence fast-forward, dynamic equivalence classes — and hands
the simulation to the compiled kernel in :mod:`repro.faults._cstep`:

* a shard arrives as :class:`~repro.faults.models.FaultColumns`; one
  ``triage()`` call decides every fault as
  :func:`~repro.faults.injector.triage_fault` does (masked, deferred,
  or simulated from when), and array operations count the PruneStats
  and form the equivalence classes;
* one ``inject()`` call runs up to ``batch`` of the faults left to
  simulate, each on one lane from its seed to its retirement, with the
  GIL released.  A lane is a ``(n_regs + 2)``-word uint32 state column
  (the datapath is 32 bits wide, so wrap-around replaces truncation
  masks), one row per :data:`~repro.cpu.units.REGISTRY` flop register
  plus a hardwired-zero read row and a write-sink row so that every
  decode gather/scatter is total, and a ``mem_words`` memory image.
  Seeding, checks, fast-forward and retirement all run in C; decode
  goes through the dense opcode tables of
  :func:`repro.faults.kernels.cext_tables`;
* the call returns each fault's detect cycle (or masked), its port
  tuple at detection and its simulated span.  One
  :func:`~repro.lockstep.categories.diverged_words` call turns all of a
  shard's detections into DSR words against the golden port rows, each
  distinct word is unpacked once, and the shard's records share one
  frozenset per diverged set; the spans replay the equivalence hits.

Equivalence with the scalar engine (digest parity) is by construction:

* the scalar loop compares the port tuple *returned by* ``step()`` —
  i.e. the port view of the pre-step state at cycle ``t``.  The kernel
  compares the state's port rows at ``t`` *before* stepping, which is
  the same value; a detection therefore fires at the same cycle with
  the same port tuple (one extra ``sim_cycles`` is charged at detection
  to mirror the scalar step that produced the tuple);
* the scalar soft masking check runs after stepping cycle ``t`` when
  ``(t - start) % stride == 0``, against golden state ``t + 1`` — the
  kernel's check runs pre-step at ``t'`` for ``t'`` in ``start + 1``,
  ``start + 1 + stride``, ...: the same cycles, same states;
* the scalar stuck-at re-convergence check runs post-step at
  ``t == next_check`` on the unforced snapshot — the kernel's check
  runs pre-step at the same cycle *before* the per-cycle force is
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

from ..cpu.core import NUM_PORTS
from ..cpu.units import FULL_WRITE_MASK, REG_INDEX
from ..lockstep.categories import diverged_words, dsr_set
from . import kernels as _kernels
from .golden import GoldenTrace
from .injector import HARD_PRUNED, SIMULATE, SOFT_PRUNED, PruneStats
from .kernels import N_REGS
from .models import FAULT_KINDS, ErrorRecord, FaultColumns, FaultKind
from .parallel import DEFAULT_BATCH

_SOFT = FAULT_KINDS.index(FaultKind.SOFT)

#: Per S row: 1 when every write of the register replaces it whole
#: (``RegSpec.full_write``), which makes a write without a stale read a
#: kill for the liveness triage.
_FULL_WRITE = np.array([(FULL_WRITE_MASK >> i) & 1 for i in range(N_REGS)],
                       dtype=np.uint8)


class BatchInjectionEngine:
    """Compiled fault-injection engine (digest parity with scalar).

    Drop-in algorithmic twin of
    :class:`~repro.faults.injector.InjectionEngine`: identical records,
    identical :class:`~repro.faults.injector.PruneStats`, compiled
    execution.  Use :meth:`inject_all` with the full per-shard fault
    list: equivalence classes live across one call's whole list, as
    they do across sequential ``inject`` calls of the scalar engine.
    ``batch`` is the most faults one kernel call takes.
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
        self._stim = np.array(golden.stimulus.values, dtype=np.uint32)
        self._tables = _kernels.cext_tables()
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
        self._inject(queue)
        self._replay(hits, reps)
        return self._outcomes

    # -- triage (one C call, held to injector.triage_fault) ------------------

    def _plan(self, faults: FaultColumns) -> tuple[np.ndarray, ...]:
        """Triage ``faults`` and count what it saves.

        Returns the faults to simulate, in input order, and the
        equivalence hits with the representative each one replays.
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
        return np.flatnonzero(simulate), hits, reps

    def _load(self, faults: FaultColumns) -> None:
        """Make ``faults`` the columns the engine works on."""
        self._faults = faults
        flops = faults.flops
        self._reg = np.array([REG_INDEX[f.reg] for f in flops],
                             dtype=np.int64)[faults.flop]
        self._bit = np.array([f.bit for f in flops], dtype=np.int64)[faults.flop]
        self._start = self._end = np.zeros(len(faults), dtype=np.int64)
        self._span = np.zeros(len(faults), dtype=np.int64)
        self._outcomes: list[ErrorRecord | None] = [None] * len(faults)

    def _max_observe(self) -> int:
        """``max_observe`` as the kernel takes it: clamped to the trace
        length, ``-1`` for no cap."""
        if self.max_observe is None:
            return -1
        return min(self.max_observe, self.golden.n_cycles)

    def _triage(self, reg, bit, kind, cycle) -> tuple[np.ndarray, ...]:
        """``triage_fault`` of every fault given as columns, in one call:
        ``(decision, activation, start, end)`` columns."""
        golden = self.golden
        count = len(cycle)
        decision = np.empty(count, dtype=np.uint8)
        act, start, end = (np.empty(count, dtype=np.int64) for _ in range(3))
        self._cext.triage(golden.state_matrix, golden.read_mask,
                          golden.write_mask, _FULL_WRITE, reg, bit, kind,
                          cycle, decision, act, start, end, self.prune,
                          self._max_observe())
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

    # -- simulation (the kernel's inject(), held to InjectionEngine) ---------

    def _inject(self, queue: np.ndarray) -> None:
        """Simulate the faults ``queue`` names, ``batch`` per kernel call,
        and record their detections and spans.

        A detection's diverged set is its DSR word against the golden
        port row of its cycle (one ``diverged_words`` call for the
        queue, the vectorised ``diverged_ports``), unpacked once per
        distinct word, so records with one signature share its set.
        """
        golden = self.golden
        count = len(queue)
        columns = (self._reg[queue], self._bit[queue],
                   self._faults.kind[queue], self._start[queue],
                   self._end[queue])
        detect = np.empty(count, dtype=np.int64)
        ports = np.empty((count, NUM_PORTS), dtype=np.uint32)
        span = np.empty(count, dtype=np.int64)
        memory = golden._memory_index()
        max_observe = self._max_observe()
        for lo in range(0, count, self.batch):
            part = slice(lo, lo + self.batch)
            self.stats.sim_cycles += self._cext.inject(
                golden.state_matrix, golden.port_matrix, self._stim,
                self._tables, memory, golden.read_mask, golden.write_mask,
                _FULL_WRITE, *(column[part] for column in columns),
                detect[part], ports[part], span[part],
                self.mask_check_stride, self.prune, max_observe)
        self._span[queue] = span
        detected = np.flatnonzero(detect >= 0)
        seqs, cycles = queue[detected], detect[detected]
        words = diverged_words(ports[detected], golden.port_matrix[cycles])
        faults = self._faults
        name = golden.workload.name
        sets: dict[int, frozenset[int]] = {}
        outcomes = self._outcomes
        for s, flop, kind, t0, tcur, word in zip(
                seqs.tolist(), faults.flop[seqs].tolist(),
                faults.kind[seqs].tolist(), faults.cycle[seqs].tolist(),
                cycles.tolist(), words.tolist()):
            diverged = sets.get(word)
            if diverged is None:
                diverged = sets[word] = dsr_set(word)
            outcomes[s] = ErrorRecord(
                benchmark=name, flop=faults.flops[flop],
                kind=FAULT_KINDS[kind], inject_cycle=t0, detect_cycle=tcur,
                diverged=diverged)
