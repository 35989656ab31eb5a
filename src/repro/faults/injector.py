"""Differential fault-injection engine.

For every injection the engine simulates only the *faulty* core,
starting from the golden snapshot at (or after) the injection point,
and compares its compact output-port tuple against the golden trace
every cycle — behaviourally identical to running a dual-core lockstep
pair with the fault in one core, at a fraction of the cost:

* per-cycle comparison happens on the compact port tuples ``step()``
  returns; the 62-SC divergence set is expanded lazily, only on the
  detection cycle (compact equality is equivalent to SC equality);
* a transient whose architectural effects re-converge to the golden
  state is declared masked the moment states match (outputs-equal up
  to that point implies memory-equal, because any differing store
  manifests on the data/bus port SCs in its commit cycle); the exact
  state comparison is gated behind a precomputed snapshot-hash check;
* a stuck-at fault is simulated only from its *activation cycle* — the
  first cycle the golden flop value differs from the stuck value — and
  is masked outright if never activated.  While active, periodic
  re-convergence checks (exponentially backed off) let the engine
  fast-forward over stretches where the forced core is bit-identical
  to the golden core, jumping straight to the next activation cycle.

Liveness pruning (schema v4, default on) adds three further levers on
top, all provably behaviour-preserving — the campaign digest is
bit-identical with pruning on or off:

* a soft flip into a register that is fully overwritten before its
  next read (or never touched again) is **masked with zero simulated
  cycles** (:meth:`GoldenTrace.soft_start` returns None);
* otherwise the simulation is **deferred**: in the window between the
  injection and the first cycle the flipped value is observed, the
  register is neither read nor written, so the real faulty core's
  state there is exactly golden XOR flip — the engine constructs that
  state directly and starts at the first-use cycle;
* soft faults on the same ``(reg, bit)`` whose deferred start cycles
  coincide are **dynamically equivalent**: the shared start state
  determines the whole future, so one representative is simulated and
  its ``(detect_cycle, diverged)`` outcome is replayed for the rest of
  the class, each record keeping its own ``inject_cycle``.  Stuck-at
  activation search composes with liveness the same way
  (:meth:`GoldenTrace.first_active_use` skips forced-but-unread
  stretches).  ``PruneStats`` counts what was avoided.
"""

from __future__ import annotations

from ..cpu.core import Cpu
from ..cpu.memory import Memory
from ..cpu.units import REG_INDEX
from ..lockstep.categories import diverged_ports
from .golden import GoldenTrace
from .models import ErrorRecord, Fault, FaultKind

#: Cycles after a stuck-at activation before the first re-convergence
#: check; the interval doubles after every failed check so persistently
#: diverged-but-undetected runs pay O(log) checks, not O(n).  The
#: compiled kernel's ``CONVERGE_CHECK_START`` has the same value.
_CONVERGE_CHECK_START = 8

#: Triage decisions (:func:`triage_fault`), numbered as the compiled
#: kernel's ``triage`` writes them.
OUT_OF_RANGE, SOFT_PRUNED, NEVER_ACTIVE, HARD_PRUNED, SIMULATE = range(5)


def triage_fault(golden: GoldenTrace, fault: Fault, prune: bool = True,
                 max_observe: int | None = None) -> tuple[int, int, int, int]:
    """What the engines do with ``fault`` before simulating anything.

    Returns ``(decision, activation, start, end)``, with ``-1`` for the
    cycles a decision leaves undefined:

    * ``OUT_OF_RANGE``: the cycle lies outside the trace; masked;
    * ``SOFT_PRUNED``: :meth:`GoldenTrace.soft_start` proves the flip
      masked (``activation`` is the injection cycle, ``end`` the trace
      length);
    * ``NEVER_ACTIVE``: the stuck-at flop always holds the stuck value
      from the injection on (:meth:`GoldenTrace.activation_cycle`);
    * ``HARD_PRUNED``: the stuck-at is never observed while active
      before ``end`` (:meth:`GoldenTrace.first_active_use`; ``start`` is
      that observation, or ``-1`` when there is none);
    * ``SIMULATE``: simulate from ``start`` until ``end``.

    ``end`` is the observation horizon: the trace length, or for a
    stuck-at ``max_observe`` cycles after its activation.  Without
    ``prune`` a soft flip starts at its injection and a stuck-at at its
    activation.  This is the specification of triage: the scalar engine
    runs it per fault, and the batch engine's compiled ``triage`` is
    held to it fault for fault.
    """
    n = golden.n_cycles
    t0 = fault.cycle
    if not 0 <= t0 < n:
        return OUT_OF_RANGE, -1, -1, -1
    reg, bit = fault.flop.reg, fault.flop.bit
    if fault.kind is FaultKind.SOFT:
        if not prune:
            return SIMULATE, t0, t0, n
        start = golden.soft_start(reg, t0)
        if start is None:
            return SOFT_PRUNED, t0, -1, n
        return SIMULATE, t0, start, n
    value = 1 if fault.kind is FaultKind.STUCK1 else 0
    t_act = golden.activation_cycle(reg, bit, value, t0)
    if t_act is None:
        return NEVER_ACTIVE, -1, -1, -1
    # The observation window stays anchored at the plain activation
    # cycle even when the start is deferred — same absolute horizon as
    # the un-pruned path, so verdicts (and digests) match.
    end = n if max_observe is None else min(n, t_act + max_observe)
    if not prune:
        return SIMULATE, t_act, t_act, end
    # Compose activation with liveness: forced-but-unread stretches
    # cannot influence anything (ports are registers too, and reading
    # one counts as a use), so start at the first cycle the active
    # stuck bit is actually observed.
    t_start = golden.first_active_use(reg, bit, value, t_act)
    if t_start is None:
        return HARD_PRUNED, t_act, -1, end
    return (HARD_PRUNED if t_start >= end else SIMULATE), t_act, t_start, end


# -- reusable single-fault perturbation (non-campaign callers) ---------------

def flip_bit(cpu: Cpu, reg: str, bit: int) -> None:
    """Invert one flip-flop bit of a live core (a soft-error event)."""
    cpu.__dict__[reg] ^= 1 << bit


def force_bit(cpu: Cpu, reg: str, bit: int, value: int) -> None:
    """Force one flip-flop bit of a live core to ``value`` (stuck-at)."""
    if value:
        cpu.__dict__[reg] |= 1 << bit
    else:
        cpu.__dict__[reg] &= ~(1 << bit)


class FaultDriver:
    """Applies one :class:`~repro.faults.models.Fault` to a live core.

    The campaign engine (:class:`InjectionEngine`) never simulates the
    fault-free prefix, so it bakes the perturbation into a restored
    snapshot.  Callers that *do* step a core cycle-by-cycle from reset
    — the fault-fuzz harness, examples, ad-hoc experiments — need the
    time-domain semantics instead: call :meth:`before_step` once per
    cycle, immediately before ``cpu.step()``.

    * ``SOFT``: the bit is inverted exactly once, before the cycle
      ``fault.cycle`` evaluates;
    * ``STUCK0``/``STUCK1``: the bit is forced before every cycle from
      ``fault.cycle`` on, mirroring the engine's per-cycle re-assert.
    """

    __slots__ = ("fault", "_value")

    def __init__(self, fault: Fault):
        self.fault = fault
        self._value = 1 if fault.kind is FaultKind.STUCK1 else 0

    def before_step(self, cpu: Cpu, cycle: int) -> None:
        """Perturb ``cpu`` for the cycle about to evaluate."""
        fault = self.fault
        if fault.kind is FaultKind.SOFT:
            if cycle == fault.cycle:
                flip_bit(cpu, fault.flop.reg, fault.flop.bit)
        elif cycle >= fault.cycle:
            force_bit(cpu, fault.flop.reg, fault.flop.bit, self._value)


class PruneStats:
    """Counters describing how much work liveness pruning avoided.

    ``cycles_saved`` aggregates golden-window cycles the engine skipped
    without simulating (masked windows, deferral windows, and the
    representative spans replayed for equivalence-class hits);
    ``sim_cycles`` is what it actually simulated.  All counters are
    per-engine, i.e. per shard in a parallel campaign; the campaign
    layer sums them.
    """

    __slots__ = ("soft_pruned", "soft_deferred", "hard_pruned",
                 "hard_deferred", "equiv_classes", "equiv_hits",
                 "cycles_saved", "sim_cycles")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (picklable, mergeable by key-wise sum)."""
        return {name: getattr(self, name) for name in self.__slots__}


class InjectionEngine:
    """Runs fault-injection experiments against one golden trace."""

    def __init__(self, golden: GoldenTrace, max_observe: int | None = None,
                 mask_check_stride: int = 4, prune: bool = True):
        """Args:
            golden: the fault-free reference trace.
            max_observe: cap on simulated cycles after a hard fault's
                activation (None = until the benchmark completes).  The
                paper's detection latencies are heavy-tailed; the cap
                trades the extreme tail for campaign throughput.
            mask_check_stride: how often (in cycles) the transient
                masking check compares full states.
            prune: exploit the golden trace's def/use liveness masks
                (masking without simulation, deferred starts, dynamic
                equivalence classes).  Off = the plain v3 algorithm;
                records are bit-identical either way.
        """
        self.golden = golden
        self.max_observe = max_observe
        self.mask_check_stride = max(1, mask_check_stride)
        self.prune = prune
        # One scratch memory reused across all experiments: memory_at
        # overwrites it in place instead of allocating a fresh word
        # list per injection.
        self._scratch_mem = Memory(golden.mem_words)
        self._cpu = Cpu(self._scratch_mem, golden.stimulus)
        self._g_ports = golden.port_tuples()
        self._g_hashes = golden.state_hash_list()
        #: (reg, bit, deferred start) -> (outcome, simulated span) where
        #: outcome is None (masked) or (detect_cycle, diverged).
        self._soft_classes: dict[
            tuple[str, int, int],
            tuple[tuple[int, frozenset[int]] | None, int]] = {}
        self.stats = PruneStats()

    def inject(self, fault: Fault) -> ErrorRecord | None:
        """Run one experiment; returns the error record or None if masked."""
        decision, t_act, start, end = triage_fault(
            self.golden, fault, self.prune, self.max_observe)
        if decision == OUT_OF_RANGE or decision == NEVER_ACTIVE:
            return None
        stats = self.stats
        soft = fault.kind is FaultKind.SOFT
        if decision != SIMULATE:
            # Masked without simulation: the whole window is saved.
            if soft:
                stats.soft_pruned += 1
            else:
                stats.hard_pruned += 1
            stats.cycles_saved += end - t_act
            return None
        if start > t_act:
            if soft:
                stats.soft_deferred += 1
            else:
                stats.hard_deferred += 1
            stats.cycles_saved += start - t_act
        if soft:
            return self._inject_soft(fault, start)
        return self._inject_hard(fault, start, end)

    # -- transient -----------------------------------------------------------

    def _inject_soft(self, fault: Fault, start: int) -> ErrorRecord | None:
        if not self.prune:
            return self._run_soft(fault, fault.cycle, start)[0]
        # Dynamic equivalence: the state at `start` (golden XOR flip)
        # is the same for every fault in the class, so the outcome is
        # too — only inject_cycle differs per record.
        stats = self.stats
        key = (fault.flop.reg, fault.flop.bit, start)
        cached = self._soft_classes.get(key)
        if cached is not None:
            stats.equiv_hits += 1
            outcome, sim_span = cached
            stats.cycles_saved += sim_span
            if outcome is None:
                return None
            detect_cycle, diverged = outcome
            return ErrorRecord(
                benchmark=self.golden.workload.name,
                flop=fault.flop,
                kind=fault.kind,
                inject_cycle=fault.cycle,
                detect_cycle=detect_cycle,
                diverged=diverged,
            )
        record, span = self._run_soft(fault, fault.cycle, start)
        outcome = None if record is None else (record.detect_cycle, record.diverged)
        self._soft_classes[key] = (outcome, span)
        stats.equiv_classes += 1
        return record

    def _run_soft(self, fault: Fault, t0: int,
                  start: int) -> tuple[ErrorRecord | None, int]:
        """Simulate a soft flip from ``start`` (= ``t0`` unless deferred).

        Returns the record (inject_cycle stays ``t0``) and the number
        of cycles actually simulated.  The masking-check stride is
        anchored at ``start``; check placement cannot change the
        verdict — an early masked return requires exact state equality
        with golden, after which divergence is impossible.
        """
        golden = self.golden
        reg_idx = REG_INDEX[fault.flop.reg]
        state = list(golden.state_at(start))
        state[reg_idx] ^= 1 << fault.flop.bit

        cpu = self._cpu
        cpu.restore(tuple(state))
        cpu.mem = golden.memory_at(start, out=self._scratch_mem)
        g_ports = self._g_ports
        g_hashes = self._g_hashes
        state_at = golden.state_at
        n = golden.n_cycles
        stride = self.mask_check_stride
        step = cpu.step
        snapshot = cpu.snapshot
        stats = self.stats
        for t in range(start, n):
            out = step()
            if out != g_ports[t]:
                span = t + 1 - start
                stats.sim_cycles += span
                return ErrorRecord(
                    benchmark=golden.workload.name,
                    flop=fault.flop,
                    kind=fault.kind,
                    inject_cycle=t0,
                    detect_cycle=t,
                    diverged=diverged_ports(out, g_ports[t]),
                ), span
            if t + 1 < n and (t - start) % stride == 0:
                snap = snapshot()
                # Hash precheck: equality requires equal hashes, so the
                # exact tuple compare (the semantic decision) runs only
                # on a hash hit — same verdict, ~90x cheaper per miss.
                if hash(snap) == g_hashes[t + 1] and snap == state_at(t + 1):
                    span = t + 1 - start
                    stats.sim_cycles += span
                    return None, span  # fully re-converged: masked
        span = n - start
        stats.sim_cycles += span
        return None, span  # ran to completion without divergence: masked

    # -- permanent -----------------------------------------------------------

    def _inject_hard(self, fault: Fault, t_start: int,
                     end: int) -> ErrorRecord | None:
        """Simulate a stuck-at from ``t_start`` until ``end``."""
        golden = self.golden
        t0 = fault.cycle
        reg = fault.flop.reg
        bit = fault.flop.bit
        value = 1 if fault.kind is FaultKind.STUCK1 else 0
        stats = self.stats
        prune = self.prune
        reg_idx = REG_INDEX[reg]
        mask = 1 << bit
        g_ports = self._g_ports
        g_hashes = self._g_hashes
        state_at = golden.state_at

        cpu = self._cpu
        state = list(state_at(t_start))
        state[reg_idx] = (state[reg_idx] | mask) if value else (state[reg_idx] & ~mask)
        cpu.restore(tuple(state))
        cpu.mem = golden.memory_at(t_start, out=self._scratch_mem)
        d = cpu.__dict__
        step = cpu.step
        snapshot = cpu.snapshot

        t = t_start
        seg_start = t_start
        interval = _CONVERGE_CHECK_START
        next_check = t_start + interval
        while t < end:
            # Re-assert the stuck-at before the cycle evaluates.
            if value:
                d[reg] |= mask
            else:
                d[reg] &= ~mask
            out = step()
            if out != g_ports[t]:
                stats.sim_cycles += t + 1 - seg_start
                return ErrorRecord(
                    benchmark=golden.workload.name,
                    flop=fault.flop,
                    kind=fault.kind,
                    inject_cycle=t0,
                    detect_cycle=t,
                    diverged=diverged_ports(out, g_ports[t]),
                )
            t += 1
            if t == next_check and t < end:
                # Re-convergence fast-forward.  All outputs since the
                # start matched golden, so memory matches golden
                # (differing stores surface on port SCs in their commit
                # cycle); if the flop state matches too, the forced
                # core is bit-identical to golden until the flop next
                # needs to hold the complementary value — skip straight
                # there (to the next *observed* active cycle when
                # pruning).
                snap = snapshot()
                if hash(snap) == g_hashes[t] and snap == state_at(t):
                    if prune:
                        t_next = golden.first_active_use(reg, bit, value, t)
                    else:
                        t_next = golden.activation_cycle(reg, bit, value, t)
                    if t_next is None or t_next >= end:
                        stats.sim_cycles += t - seg_start
                        return None  # force is a no-op for the rest of the window
                    if t_next > t:
                        state = list(state_at(t_next))
                        state[reg_idx] = ((state[reg_idx] | mask) if value
                                          else (state[reg_idx] & ~mask))
                        cpu.restore(tuple(state))
                        cpu.mem = golden.memory_at(t_next, out=self._scratch_mem)
                        stats.sim_cycles += t - seg_start
                        seg_start = t_next
                        t = t_next
                        interval = _CONVERGE_CHECK_START
                else:
                    interval *= 2
                next_check = t + interval
        stats.sim_cycles += t - seg_start
        return None
