"""Text renderers that regenerate the paper's tables and figures.

Every renderer returns a plain-text block with the same rows/series
the paper reports, so the benchmark harness can print paper-shaped
output next to the measured numbers.
"""

from __future__ import annotations

from ..bist.stl import StlModel
from ..core.bhattacharyya import average_bc, bc_extremes, cross_unit_bc
from ..core.signatures import SignatureStats
from ..faults.campaign import CampaignResult
from ..faults.models import ErrorRecord, ErrorType
from ..faults.stats import table1
from ..hw.costs import table4
from .evaluation import EvaluationResult, MODEL_NAMES


def render_table1(result: CampaignResult) -> str:
    """Table I: manifestation rates and times, [min, mean, max]."""
    lines = ["Table I — fault injection statistics ([min, mean, max] over units)"]
    rows = table1(result)
    for name, spread in rows.items():
        fmt = "{:.1%}" if "Rate" in name else "{:.0f} cyc"
        lines.append(f"  {name:32s} {spread.as_row(fmt)}")
    lines.append(f"  Total injected: {result.n_injected}, manifested errors: "
                 f"{result.n_errors} ({result.n_errors / max(1, result.n_injected):.1%})")
    return "\n".join(lines)


def render_table2(restart_cycles: dict[str, int]) -> str:
    """Table II: model latencies (table access, STL range, restart range)."""
    stl7 = StlModel(fine=False)
    stl13 = StlModel(fine=True)
    lo7, mean7, hi7 = stl7.spread()
    lo13, mean13, hi13 = stl13.spread()
    restarts = sorted(restart_cycles.values())
    mean_r = sum(restarts) / len(restarts) if restarts else 0
    lines = [
        "Table II — latencies used in the models (cycles)",
        "  Prediction Table Access Time     2 (on-chip) / 100 (off-chip)",
        f"  STL Latency Range (7 units)      [{lo7}, {mean7:.0f}, {hi7}]",
        f"  STL Latency Range (13 units)     [{lo13}, {mean13:.0f}, {hi13}]",
    ]
    if restarts:
        lines.append(
            f"  Restart Latency Range            [{restarts[0]}, {mean_r:.0f}, {restarts[-1]}]")
    return "\n".join(lines)


def _render_distribution(stats: SignatureStats, unit: str, etype: ErrorType,
                         top: int = 6) -> str:
    dist = stats.unit_distribution(unit, etype)
    ranked = sorted(dist.items(), key=lambda kv: -kv[1])[:top]
    parts = [f"set{{{','.join(str(i) for i in sorted(key))}}}={p:.2f}"
             for key, p in ranked]
    return f"    {unit:10s} " + "  ".join(parts)


def render_fig4_5(records: list[ErrorRecord], etype: ErrorType,
                  fine: bool = False) -> str:
    """Figures 4/5: per-unit diverged-SC-set distributions + BCs."""
    stats = SignatureStats.from_records(records, fine=fine)
    label = "hard" if etype is ErrorType.HARD else "soft"
    fig = "Fig 4" if etype is ErrorType.HARD else "Fig 5"
    bcs = cross_unit_bc(stats, etype)
    lo, mid, hi = bc_extremes(stats, etype)
    lines = [f"{fig} — {label} error distributions "
             f"(min/median/max cross-unit BC units)"]
    for unit in (lo, mid, hi):
        lines.append(f"  BC({unit}) = {bcs[unit]:.2f}")
        lines.append(_render_distribution(stats, unit, etype))
    lines.append(f"  Average cross-unit BC over all units: "
                 f"{average_bc(stats, etype):.2f}")
    return "\n".join(lines)


def render_fig11(ev: EvaluationResult, fine: bool = False) -> str:
    """Figures 11/14: average LERT per error for all five models."""
    n_units = 13 if fine else 7
    fig = "Fig 14" if fine else "Fig 11"
    lines = [f"{fig} — average LERT per error, {n_units} CPU units"]
    for name in MODEL_NAMES:
        s = ev.strategies[name]
        lines.append(f"  {name:20s} tested={s.mean_tested_units:4.1f}  "
                     f"LERT={s.mean_lert:12,.0f} cycles")
    lines.append(
        "  speedups: pred-comb vs base-manifest "
        f"{ev.speedup('pred-comb', 'base-manifest'):.0%}, "
        "vs base-ascending "
        f"{ev.speedup('pred-comb', 'base-ascending'):.0%}, "
        "vs pred-location-only "
        f"{ev.speedup('pred-comb', 'pred-location-only'):.0%}")
    lines.append(
        "  pred-location-only vs base-manifest "
        f"{ev.speedup('pred-location-only', 'base-manifest'):.0%}, "
        "vs base-ascending "
        f"{ev.speedup('pred-location-only', 'base-ascending'):.0%}")
    return "\n".join(lines)


def render_table3(ev: EvaluationResult) -> str:
    """Table III: error type prediction accuracy for pred-comb."""
    acc = ev.type_accuracy
    return "\n".join([
        "Table III — error type prediction accuracy (pred-comb)",
        f"  Soft     {acc['soft']:.0%}",
        f"  Hard     {acc['hard']:.0%}",
        f"  Overall  {acc['overall']:.0%}",
        f"  SBIST invocations avoided vs pred-location-only: "
        f"{ev.sbist_reduction:.0%}",
    ])


def render_topk(sweep: dict[int, EvaluationResult], fine: bool = False) -> str:
    """Figures 12/13 (or 15/16): accuracy and LERT vs predicted units."""
    figs = "Figs 15/16" if fine else "Figs 12/13"
    n_units = 13 if fine else 7
    lines = [f"{figs} — pred-comb with top-K predicted units ({n_units}-unit config)",
             "  K   loc.accuracy   avg LERT        speedup vs base-ascending"]
    for k in sorted(sweep):
        ev = sweep[k]
        lines.append(
            f"  {k:<3d} {ev.location_accuracy:12.0%}   "
            f"{ev.strategies['pred-comb'].mean_lert:12,.0f}   "
            f"{ev.speedup('pred-comb', 'base-ascending'):.0%}")
    return "\n".join(lines)


def render_table4(n_entries: int, ptar_bits: int) -> str:
    """Table IV: predictor area and power overhead."""
    lines = ["Table IV — area and power overhead of the predictor"]
    for basis in ("r5", "sr5"):
        label = "R5-class gate budget" if basis == "r5" else "simulated SR5 core"
        lines.append(f"  basis: {label}")
        for row in table4(n_entries=n_entries, ptar_bits=ptar_bits, core=basis):
            lines.append(f"    vs {row.reference:35s} area {row.area_overhead:6.2%}"
                         f"   power {row.power_overhead:6.2%}")
    return "\n".join(lines)
