"""Bhattacharyya coefficient analysis of unit signatures.

The paper quantifies the similarity of two diverged-SC-set probability
distributions with the Bhattacharyya coefficient (BC):

    BC(p, q) = sum_i sqrt(p_i * q_i)

BC = 0 means disjoint support (perfectly distinguishable signatures),
BC = 1 means identical distributions.  The paper reports an average
cross-unit BC of ~0.39 for hard errors and ~0.32 for soft errors, and
an average hard-vs-soft BC of ~0.6 at the same unit.
"""

from __future__ import annotations

import math

from ..faults.models import ErrorType
from .signatures import DivergedSet, SignatureStats


def bhattacharyya(p: dict[DivergedSet, float], q: dict[DivergedSet, float]) -> float:
    """BC between two discrete distributions over diverged SC sets."""
    if not p or not q:
        return 0.0
    support = p.keys() & q.keys()
    return sum(math.sqrt(p[key] * q[key]) for key in support)


def cross_unit_bc(stats: SignatureStats, error_type: ErrorType) -> dict[str, float]:
    """Average BC of each unit's signature against every other unit.

    A low value means the unit's error manifestations are unlike other
    units' — i.e. its origin is predictable from the DSR (Figs 4/5).
    """
    dists = {u: stats.unit_distribution(u, error_type) for u in stats.units}
    units = [u for u in dists if dists[u]]
    result: dict[str, float] = {}
    for unit in units:
        others = [bhattacharyya(dists[unit], dists[other])
                  for other in units if other != unit]
        result[unit] = sum(others) / len(others) if others else 0.0
    return result


def average_bc(stats: SignatureStats, error_type: ErrorType) -> float:
    """Mean cross-unit BC over all units (paper: ~0.39 hard, ~0.32 soft)."""
    values = list(cross_unit_bc(stats, error_type).values())
    return sum(values) / len(values) if values else 0.0


def bc_extremes(stats: SignatureStats, error_type: ErrorType) -> tuple[str, str, str]:
    """Units with minimum, median and maximum cross-unit BC.

    These are the three units the paper plots in Figures 4 and 5; ties
    go to the unit the records showed first.
    """
    bcs = cross_unit_bc(stats, error_type)
    if not bcs:
        raise ValueError("no units with errors of this type")
    ranked = sorted(bcs, key=bcs.get)
    return ranked[0], ranked[len(ranked) // 2], ranked[-1]


def type_bc_per_unit(stats: SignatureStats) -> dict[str, float]:
    """BC between a unit's hard and soft signatures (Section III-B).

    High values (e.g. the paper's 0.95 for the Data Processing Unit)
    mean the error type is hard to tell apart from the DSR for faults
    in that unit; low values (0.3 for Instruction Memory Control) mean
    the type is predictable.
    """
    result: dict[str, float] = {}
    for unit in stats.units:
        hard = stats.unit_distribution(unit, ErrorType.HARD)
        soft = stats.unit_distribution(unit, ErrorType.SOFT)
        if hard and soft:
            result[unit] = bhattacharyya(hard, soft)
    return result


def average_type_bc(stats: SignatureStats) -> float:
    """Mean hard-vs-soft BC over units (paper: ~0.6)."""
    values = list(type_bc_per_unit(stats).values())
    return sum(values) / len(values) if values else 0.0
