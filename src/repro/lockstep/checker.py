"""The lockstep error checker.

The checker sits at the sphere-of-replication boundary: it compares the
output ports of the redundant CPUs every cycle, OR-reduces each signal
category and raises the error signal on the first divergence.  When the
error fires it freezes the Divergence Status Register (DSR) with the
diverged-SC bitmap of the detection cycle — the raw material of the
error correlation predictor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cpu.core import NUM_SCS
from .categories import diverged_ports, diverged_set, dsr_value, expand_ports


def port_equal(outputs_a: tuple[int, ...], outputs_b: tuple[int, ...]) -> bool:
    """The checker's per-cycle comparison: are the two port vectors equal?

    A module-level hook on purpose: both checkers resolve it at call
    time through this module's globals, so the mutation-testing harness
    (:mod:`repro.verify.mutation`) can plant a broken comparator — a
    dropped port comparison, a masked bit — and measure whether the
    fault-fuzz flow notices.  Production semantics are exact tuple
    equality over whatever representation arrived (compact port tuples
    or 62-SC vectors; both sides must match).
    """
    return outputs_a == outputs_b


def checker_diverged(outputs_a: tuple[int, ...],
                     outputs_b: tuple[int, ...]) -> frozenset[int]:
    """Diverged SC set the checker freezes into the DSR on detection.

    Like :func:`port_equal`, a late-bound mutation hook: ``diverged_set``
    is looked up in this module's globals so a planted off-by-one in the
    SC extraction is observable through every checker-driven flow.
    """
    return diverged_set(_as_sc_vector(outputs_a), _as_sc_vector(outputs_b))


def vote_value(values: tuple[int, ...]) -> int:
    """Majority vote over one signal's per-core values.

    The voter's value-resolution kernel — per signal category on the
    expanded path, per compact entry on the fast path.  Like
    :func:`port_equal`, a module-level mutation hook: both voting paths
    resolve it through this module's globals at call time, so a planted
    broken majority (picking the minimum, say) is observable through
    every voter-driven flow regardless of which representation the
    error cycle happened to use.
    """
    return max(set(values), key=values.count)


def _as_sc_vector(outputs: tuple[int, ...]) -> tuple[int, ...]:
    """Normalise checker input to the 62-SC vector.

    ``Cpu.step()`` hands the checkers compact port tuples; legacy
    callers (and the DSR tests) pass 62-SC vectors directly.  Only the
    divergence path pays for this — the per-cycle equality fast path
    compares whatever representation arrived, which is sound because
    compact-tuple equality is equivalent to SC-tuple equality.
    """
    if len(outputs) != NUM_SCS:
        return expand_ports(outputs)
    return outputs


@dataclass
class CheckerState:
    """Latched result of a lockstep comparison."""

    error: bool = False
    error_cycle: int | None = None
    dsr: int = 0
    diverged: frozenset[int] = field(default_factory=frozenset)
    #: In MMR configurations, the ID of the erring CPU (None in DMR).
    erring_cpu: int | None = None
    #: In MMR configurations, the voter's resolved output of the error
    #: cycle — a compact port tuple when the cores handed the checker
    #: compact tuples, a 62-SC vector otherwise (None in DMR).  This is
    #: the value forward recovery would drive into the erring core's
    #: boundary, held for the error handler like the DSR.
    voted: tuple[int, ...] | None = None


class LockstepChecker:
    """Cycle-by-cycle comparator for two output port vectors (DMR).

    Once an error is latched, further comparisons are ignored until
    :meth:`reset` — exactly like hardware, where the checker stops the
    CPUs and holds the DSR for the error handler to read.
    """

    def __init__(self) -> None:
        self.state = CheckerState()
        self._cycle = 0

    def reset(self) -> None:
        """Clear the latched error and the DSR."""
        self.state = CheckerState()
        self._cycle = 0

    def compare(self, outputs_a: tuple[int, ...], outputs_b: tuple[int, ...]) -> bool:
        """Compare one cycle's outputs; returns True if an error latched.

        Accepts either compact port tuples (what ``Cpu.step()`` returns)
        or expanded 62-SC vectors; both sides must use the same
        representation.  Signal categories are only materialised on the
        cycle the error latches.
        """
        if self.state.error:
            return True
        if not port_equal(outputs_a, outputs_b):
            diverged = checker_diverged(outputs_a, outputs_b)
            self.state = CheckerState(
                error=True,
                error_cycle=self._cycle,
                dsr=dsr_value(diverged),
                diverged=diverged,
            )
            self._cycle += 1
            return True
        self._cycle += 1
        return False


class VotingChecker:
    """Majority-voting comparator for three or more cores (MMR/TMR).

    Unlike the DMR checker, the voter identifies the erring CPU: the
    core whose outputs disagree with the per-SC majority.  The diverged
    SC set is taken between the erring core and the voted value.
    """

    def __init__(self, n_cores: int = 3) -> None:
        if n_cores < 3:
            raise ValueError("voting requires at least three cores")
        self.n_cores = n_cores
        self.state = CheckerState()
        self._cycle = 0

    def reset(self) -> None:
        """Clear the latched error."""
        self.state = CheckerState()
        self._cycle = 0

    def vote(self, outputs: list[tuple[int, ...]]) -> tuple[int, ...]:
        """Per-SC majority value across cores (62-SC vectors)."""
        voted = []
        for sc in range(NUM_SCS):
            values = tuple(o[sc] for o in outputs)
            voted.append(vote_value(values))
        return tuple(voted)

    def vote_ports(self, outputs: list[tuple[int, ...]]) -> tuple[int, ...] | None:
        """Per-entry majority over *compact* port tuples.

        Returns None unless every entry has a strict majority (more
        than half the cores agree on the whole entry).  When it exists,
        the per-entry majority expands bit-for-bit to the per-SC
        majority — an entry whose value ``v`` holds a strict majority
        holds that majority in every one of its SC bit fields — so the
        compact vote is exact, not an approximation.  The resolved
        value itself still flows through the :func:`vote_value` hook so
        a mutated majority is observable on this path too.
        """
        n = len(outputs[0])
        voted = []
        for i in range(n):
            values = tuple(o[i] for o in outputs)
            majority = None
            for v in values:
                if 2 * values.count(v) > len(values):
                    majority = v
                    break
            if majority is None:
                return None
            voted.append(vote_value(values))
        return tuple(voted)

    def compare(self, outputs: list[tuple[int, ...]]) -> bool:
        """Compare one cycle across all cores; returns True on error.

        Accepts compact port tuples or expanded 62-SC vectors (uniform
        across cores).  The all-agree fast path never expands.  On the
        error cycle, compact inputs vote at compact-entry granularity
        (exact whenever a strict per-entry majority exists — always the
        case for a single erring core) and only the diverged entries'
        SC runs are materialised; the full 62-SC expansion runs solely
        for legacy expanded inputs or a no-majority (multi-core
        Byzantine) cycle.  Both paths latch identical state
        (equivalence pinned by tests).
        """
        if self.state.error:
            return True
        if len(outputs) != self.n_cores:
            raise ValueError(f"expected {self.n_cores} output vectors")
        if all(port_equal(o, outputs[0]) for o in outputs[1:]):
            self._cycle += 1
            return False
        voted = None
        if len(outputs[0]) != NUM_SCS:
            voted = self.vote_ports(outputs)
        if voted is not None:
            # Erring core = most diverged SCs vs the vote; the XOR
            # field test counts SCs without expanding equal entries.
            diffs_of = [len(diverged_ports(o, voted)) for o in outputs]
            diverged_from = checker_diverged
        else:
            outputs = [_as_sc_vector(o) for o in outputs]
            voted = self.vote(outputs)
            diffs_of = [sum(1 for a, b in zip(o, voted) if a != b)
                        for o in outputs]
            diverged_from = diverged_set
        erring = None
        worst = -1
        for cpu_id, diffs in enumerate(diffs_of):
            if diffs > worst:
                worst = diffs
                erring = cpu_id if diffs else erring
        diverged = diverged_from(outputs[erring], voted)
        self.state = CheckerState(
            error=True,
            error_cycle=self._cycle,
            dsr=dsr_value(diverged),
            diverged=diverged,
            erring_cpu=erring,
            voted=voted,
        )
        self._cycle += 1
        return True
