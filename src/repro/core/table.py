"""The prediction table and its hardware-facing registers.

Architecture (paper Fig. 6 and Fig. 10b):

* the checker's per-SC OR-reduction trees feed a T-bit **Divergence
  Status Register (DSR)** — one bit per signal category;
* an **address mapping** compresses the observed DSR values into a
  dense index (the paper sees ~1200 distinct diverged SC sets, so an
  11-bit **Prediction Table Address Register (PTAR)** suffices);
* each table entry stores the predicted CPU units in descending score
  order (3 bits per unit in the 7-unit organisation) plus one error
  type bit; a final default entry catches never-observed DSR values
  and predicts *hard* with the default unit order (fail-safe).

The table contents are static: they are computed once from training
data and never change in the field, so the table can live in ECC-
protected off-chip memory (Section V-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..faults.models import ErrorType
from .signatures import DivergedSet

#: Prediction-table access latency in cycles, by placement (Table II).
ON_CHIP_ACCESS_CYCLES = 2
OFF_CHIP_ACCESS_CYCLES = 100


@dataclass(frozen=True)
class TableEntry:
    """One prediction table entry.

    Attributes:
        units: predicted CPU units, most likely first (possibly
            truncated to the top-K).
        predict_hard: the 1-bit error type prediction.
    """

    units: tuple[str, ...]
    predict_hard: bool


class AddressMapper:
    """DSR -> PTAR mapping over the observed diverged SC sets.

    Unobserved DSR values map to the default index (the last entry),
    mirroring the paper's extra catch-all entry.
    """

    def __init__(self, keys: list[DivergedSet]):
        self._index: dict[DivergedSet, int] = {k: i for i, k in enumerate(keys)}
        self.default_index = len(keys)

    def __len__(self) -> int:
        return len(self._index)

    def map(self, key: DivergedSet) -> int:
        """PTAR value for a diverged SC set."""
        return self._index.get(key, self.default_index)

    @property
    def ptar_bits(self) -> int:
        """Width of the PTAR register (11 bits for ~1200 sets)."""
        return max(1, math.ceil(math.log2(self.default_index + 1)))


class PredictionTable:
    """The static prediction table plus its address mapper."""

    def __init__(self, entries: list[tuple[DivergedSet, TableEntry]],
                 default_entry: TableEntry, n_units: int,
                 access_cycles: int = ON_CHIP_ACCESS_CYCLES):
        self.mapper = AddressMapper([key for key, _ in entries])
        self.entries: list[TableEntry] = [entry for _, entry in entries]
        self.default_entry = default_entry
        self.n_units = n_units
        self.access_cycles = access_cycles

    def __len__(self) -> int:
        """Number of entries including the default entry."""
        return len(self.entries) + 1

    def lookup(self, key: DivergedSet) -> TableEntry:
        """Read the entry for a diverged SC set (default if unobserved)."""
        index = self.mapper.map(key)
        if index >= len(self.entries):
            return self.default_entry
        return self.entries[index]

    # -- storage accounting (Section V-B / V-C) ----------------------------

    @property
    def unit_id_bits(self) -> int:
        """Bits per unit identifier (3 for 7 units, 4 for 13)."""
        return max(1, math.ceil(math.log2(self.n_units)))

    @property
    def entry_bits(self) -> int:
        """Worst-case entry width: location slots plus the type bit."""
        slots = max((len(e.units) for e in self.entries), default=0)
        slots = max(slots, len(self.default_entry.units))
        return slots * self.unit_id_bits + 1

    @property
    def size_bytes(self) -> float:
        """Total table storage in bytes (paper: ~3.2 KB for 7 units)."""
        return len(self) * self.entry_bits / 8

    def placed(self, off_chip: bool) -> "PredictionTable":
        """A copy of this table with the given placement latency."""
        clone = PredictionTable.__new__(PredictionTable)
        clone.mapper = self.mapper
        clone.entries = self.entries
        clone.default_entry = self.default_entry
        clone.n_units = self.n_units
        clone.access_cycles = (
            OFF_CHIP_ACCESS_CYCLES if off_chip else ON_CHIP_ACCESS_CYCLES)
        return clone


#: Table wire-payload schema tag (bump on incompatible shape changes).
TABLE_PAYLOAD_SCHEMA = 1


def table_to_payload(table: PredictionTable, fine: bool) -> dict:
    """Serialise a trained table into a JSON-able payload.

    The payload carries the address mapping (diverged SC sets in PTAR
    order) alongside the entries, so a client can rebuild the complete
    lookup structure — the campaign service ships this from ``GET
    /table`` to fleet clients that want local lookups.
    """
    keys = sorted(table.mapper._index, key=table.mapper.map)
    return {
        "schema": TABLE_PAYLOAD_SCHEMA,
        "fine": bool(fine),
        "n_units": table.n_units,
        "access_cycles": table.access_cycles,
        "entries": [
            {"dsr": sorted(key),
             "units": list(entry.units),
             "hard": entry.predict_hard}
            for key, entry in zip(keys, table.entries)
        ],
        "default": {"units": list(table.default_entry.units),
                    "hard": table.default_entry.predict_hard},
    }


def table_from_payload(payload: dict) -> tuple[PredictionTable, bool]:
    """Rebuild ``(table, fine)`` from :func:`table_to_payload` output.

    Round-trips exactly: lookups (including the default fall-through
    for unobserved DSR values) match the original table entry for
    entry, which is what lets an HTTP-served table answer identically
    to one trained offline.
    """
    if payload.get("schema") != TABLE_PAYLOAD_SCHEMA:
        raise ValueError(
            f"unsupported table payload schema {payload.get('schema')!r} "
            f"(expected {TABLE_PAYLOAD_SCHEMA})")
    entries = [
        (frozenset(int(sc) for sc in row["dsr"]),
         TableEntry(units=tuple(row["units"]), predict_hard=bool(row["hard"])))
        for row in payload["entries"]
    ]
    default = TableEntry(units=tuple(payload["default"]["units"]),
                         predict_hard=bool(payload["default"]["hard"]))
    table = PredictionTable(entries, default, n_units=int(payload["n_units"]),
                            access_cycles=int(payload["access_cycles"]))
    return table, bool(payload["fine"])


def check_top_k(top_k: int | None) -> None:
    """Refuse a top-K width below 1; None (the full order) is valid.

    A negative K would slice units off the end of the order and 0 would
    predict nothing, so neither is a table the paper could build.
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k!r}")


def rank_units(scores: dict[str, float], default_order: tuple[str, ...],
               top_k: int | None) -> tuple[str, ...]:
    """Rank units by descending score; complete with the default order.

    Units with non-zero scores come first (descending, ties broken by
    the default order for determinism), then the remaining units in
    default order — so the full list always prescribes a complete test
    order, and a ``top_k`` of the unit count is identical to the full
    prediction.  ``top_k`` truncates the list to K slots.
    """
    order_index = {u: i for i, u in enumerate(default_order)}
    scored = sorted(
        (u for u in scores if scores[u] > 0),
        key=lambda u: (-scores[u], order_index.get(u, len(order_index))),
    )
    rest = [u for u in default_order if u not in scored]
    full = tuple(scored + rest)
    return full if top_k is None else full[:top_k]


def build_default_entry(default_order: tuple[str, ...],
                        top_k: int | None) -> TableEntry:
    """The fail-safe catch-all entry: hard error, default unit order."""
    units = default_order if top_k is None else default_order[:top_k]
    return TableEntry(units=tuple(units), predict_hard=True)


def type_bit(type_probs: dict[ErrorType, float]) -> bool:
    """The entry's error type bit: 1 (hard) when hard is more likely.

    Ties predict hard — the conservative direction, since a predicted-
    hard error always runs the full diagnostic.
    """
    hard = type_probs.get(ErrorType.HARD, 0.0)
    soft = type_probs.get(ErrorType.SOFT, 0.0)
    return hard >= soft
