"""Figures 4 and 5 — per-unit diverged-SC-set signature distributions.

Paper reference values:
    Fig 4 (hard): average cross-unit BC ~0.39 (min/median/max units shown)
    Fig 5 (soft): average cross-unit BC ~0.32
    Section III-B: hard errors diverge ~54% more SCs than soft at the
    same flops; hard-vs-soft BC per unit spans 0.3..0.95, average ~0.6.

Lower BC = more distinguishable signatures.  Our small core yields
*more* distinguishable signatures (lower BC) than the R5 — fewer flops
share each output path — which only strengthens the phenomenon.
"""

from repro.analysis.reports import render_fig4_5
from repro.core import SignatureStats, average_bc, average_type_bc
from repro.faults import ErrorType, diverged_set_size_ratio


def test_fig4_hard_distributions(benchmark, campaign, report):
    stats = benchmark(SignatureStats.from_records, campaign.records)
    bc = average_bc(stats, ErrorType.HARD)
    assert 0.0 < bc < 0.7, "unit signatures must be distinguishable"
    report("fig4_hard_distributions",
           render_fig4_5(campaign.records, ErrorType.HARD))


def test_fig5_soft_distributions(benchmark, campaign, report):
    stats = SignatureStats.from_records(campaign.records)
    bc = benchmark.pedantic(average_bc,
                            args=(stats, ErrorType.SOFT),
                            rounds=1, iterations=1)
    assert 0.0 < bc < 0.7
    report("fig5_soft_distributions",
           render_fig4_5(campaign.records, ErrorType.SOFT))


def test_hard_spreads_wider_than_soft(benchmark, campaign, report):
    """Section III-B: the type-prediction signal."""
    ratio = benchmark(diverged_set_size_ratio, campaign)
    assert ratio > 1.0, "hard errors must diverge more SCs (paper: 1.54x)"
    stats = SignatureStats.from_records(campaign.records)
    type_bc = average_type_bc(stats)
    assert 0.0 < type_bc < 1.0
    report("sec3b_type_signal", "\n".join([
        "Section III-B — error type signal",
        f"  hard/soft mean diverged-SC-count ratio: {ratio:.2f} (paper: 1.54)",
        f"  average hard-vs-soft BC per unit:       {type_bc:.2f} (paper: ~0.6)",
    ]))
