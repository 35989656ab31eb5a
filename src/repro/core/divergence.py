"""Hardware-level view of the prediction front-end registers.

This module models the predictor's sequential logic exactly as drawn
in the paper's Figure 6: the per-SC OR-reduction outputs set bits in
the Divergence Status Register, and the address-mapping logic loads
the Prediction Table Address Register when the error signal fires.
The behavioural classes here are what the gate-level cost model in
:mod:`repro.hw` prices.
"""

from __future__ import annotations

from ..cpu.core import NUM_SCS
from ..lockstep.categories import diverged_set, dsr_set
from .table import AddressMapper


class DivergenceStatusRegister:
    """The T-bit DSR: one sticky bit per signal category.

    Bits are set by the SC OR-reduction trees and hold until the error
    handler clears them — capturing the diverged SC set of the
    detection cycle (and, if the system is not stopped immediately,
    accumulating any further divergence, which is why the handler reads
    it right away).
    """

    def __init__(self, n_bits: int = NUM_SCS):
        self.n_bits = n_bits
        self.value = 0

    def reset(self) -> None:
        """Clear all divergence bits."""
        self.value = 0

    def capture(self, outputs_a: tuple[int, ...], outputs_b: tuple[int, ...]) -> int:
        """OR the per-SC comparison of one cycle into the register."""
        for idx in diverged_set(outputs_a, outputs_b):
            self.value |= 1 << idx
        return self.value

    @property
    def as_set(self) -> frozenset[int]:
        """The diverged SC set currently latched."""
        return dsr_set(self.value & ((1 << self.n_bits) - 1))


class PredictionTableAddressRegister:
    """The PTAR: the DSR compressed through the address mapping logic.

    The error handler software reads this register (like an exception
    vector) and indexes the prediction table with it.
    """

    def __init__(self, mapper: AddressMapper):
        self.mapper = mapper
        self.value = mapper.default_index

    def load(self, dsr: DivergenceStatusRegister) -> int:
        """Map the latched DSR into a table address."""
        self.value = self.mapper.map(dsr.as_set)
        return self.value

    @property
    def bits(self) -> int:
        """Register width (paper: 11 bits for ~1200 sets)."""
        return self.mapper.ptar_bits
