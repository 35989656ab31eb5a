"""Fault and error models.

Following the paper's terminology: a *fault* is the physical event (a
transient bit flip or a permanent stuck-at); an *error* is the fault's
manifestation at the lockstep checker.  Not every fault becomes an
error — most are masked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..cpu.units import FlopRef


class FaultKind(enum.Enum):
    """Physical fault classes injected into flip-flops."""

    SOFT = "soft"        # one-cycle bit inversion (transient)
    STUCK0 = "stuck0"    # permanent stuck-at-0
    STUCK1 = "stuck1"    # permanent stuck-at-1

    @property
    def is_hard(self) -> bool:
        """True for permanent (stuck-at) faults."""
        return self is not FaultKind.SOFT


class ErrorType(enum.Enum):
    """Error classes as seen by the system controller."""

    SOFT = "soft"
    HARD = "hard"


def error_type_of(kind: FaultKind) -> ErrorType:
    """The error type a fault of ``kind`` produces when it manifests."""
    return ErrorType.HARD if kind.is_hard else ErrorType.SOFT


@dataclass(frozen=True)
class Fault:
    """One fault injection: a flip-flop, a kind, and an injection cycle."""

    flop: FlopRef
    kind: FaultKind
    cycle: int


#: Fault kinds by their code in :attr:`FaultColumns.kind`, in the order
#: ``schedule_faults`` lists a flop's faults.
FAULT_KINDS = (FaultKind.SOFT, FaultKind.STUCK0, FaultKind.STUCK1)
_KIND_CODE = {kind: code for code, kind in enumerate(FAULT_KINDS)}


@dataclass(frozen=True, eq=False)
class FaultColumns:
    """A shard's faults as columns, the batch engine's input.

    Fault ``i`` is ``Fault(flops[flop[i]], FAULT_KINDS[kind[i]],
    cycle[i])``.  The compiled scheduler fills the columns directly;
    :meth:`from_faults` converts a :class:`Fault` list at the edge.
    """

    flops: tuple[FlopRef, ...]
    #: index into ``flops``, per fault.
    flop: np.ndarray
    #: uint8 code into :data:`FAULT_KINDS`, per fault.
    kind: np.ndarray
    #: int64 injection cycle, per fault.
    cycle: np.ndarray

    def __len__(self) -> int:
        return len(self.cycle)

    @classmethod
    def from_faults(cls, faults) -> "FaultColumns":
        """The columns of ``faults``, in order."""
        faults = list(faults)
        index: dict[FlopRef, int] = {}
        flop = [index.setdefault(f.flop, len(index)) for f in faults]
        return cls(tuple(index),
                   np.array(flop, dtype=np.intp),
                   np.array([_KIND_CODE[f.kind] for f in faults], dtype=np.uint8),
                   np.array([f.cycle for f in faults], dtype=np.int64))

    def faults(self) -> list[Fault]:
        """The same faults as :class:`Fault` objects."""
        flops = self.flops
        return [Fault(flops[f], FAULT_KINDS[k], c) for f, k, c in zip(
            self.flop.tolist(), self.kind.tolist(), self.cycle.tolist())]


@dataclass(frozen=True)
class ErrorRecord:
    """A manifested lockstep error, as logged by the evaluation framework.

    This captures what the paper's framework logs per error: where and
    when the fault was injected, when the checker detected divergence,
    and the diverged signal category set (the DSR contents).
    """

    benchmark: str
    flop: FlopRef
    kind: FaultKind
    inject_cycle: int
    detect_cycle: int
    diverged: frozenset[int]

    @property
    def unit(self) -> str:
        """Originating fine (13-taxonomy) unit."""
        return self.flop.unit

    @property
    def coarse_unit(self) -> str:
        """Originating coarse (7-taxonomy) unit."""
        return self.flop.coarse

    @property
    def error_type(self) -> ErrorType:
        """Ground-truth error type."""
        return error_type_of(self.kind)

    @property
    def latency(self) -> int:
        """Error manifestation time (fault occurrence to detection)."""
        return self.detect_cycle - self.inject_cycle

    def unit_for(self, fine: bool) -> str:
        """Unit label under the chosen taxonomy."""
        return self.flop.unit if fine else self.flop.coarse
