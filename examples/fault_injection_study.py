"""Fault-injection characterisation study (the paper's Section IV).

Runs a configurable campaign over the AutoBench-style kernels, then
prints the manifestation statistics (Table I), the diverged-SC-set
inventory, and the per-unit signature similarity (Bhattacharyya)
analysis behind Figures 4 and 5.

Run:  python examples/fault_injection_study.py [--scale quick|default]
"""

import argparse
from collections import Counter

from repro.analysis.reports import render_fig4_5, render_table1
from repro.core import SignatureStats, average_type_bc, type_bc_per_unit
from repro.faults import (
    CampaignConfig,
    ErrorType,
    cached_campaign,
    diverged_set_size_ratio,
    mean_detection_time,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("quick", "default"), default="quick",
                        help="campaign size (quick: seconds, default: ~2 min)")
    args = parser.parse_args()

    config = (CampaignConfig.quick() if args.scale == "quick"
              else CampaignConfig.default())
    campaign = cached_campaign(config, cache_dir=".campaign_cache")

    print(render_table1(campaign))
    print(f"\nMean error detection time: {mean_detection_time(campaign):.0f} cycles")

    by_unit = Counter(r.coarse_unit for r in campaign.records)
    print("\nErrors by originating unit:")
    for unit, count in by_unit.most_common():
        print(f"  {unit:5s} {count:6d}")

    sets = {r.diverged for r in campaign.records}
    print(f"\nDistinct diverged SC sets: {len(sets)} (paper: ~1200 at 10M injections)")
    print(f"Hard errors diverge {diverged_set_size_ratio(campaign):.2f}x more SCs "
          "than soft errors at detection (paper: 1.54x)")

    print()
    print(render_fig4_5(campaign.records, ErrorType.HARD))
    print()
    print(render_fig4_5(campaign.records, ErrorType.SOFT))

    stats = SignatureStats.from_records(campaign.records)
    per_unit = type_bc_per_unit(stats)
    print("\nHard-vs-soft signature similarity per unit (Section III-B):")
    for unit, bc in sorted(per_unit.items(), key=lambda kv: kv[1]):
        print(f"  BC({unit:5s}) = {bc:.2f}")
    print(f"  average: {average_type_bc(stats):.2f} (paper: ~0.6)")


if __name__ == "__main__":
    main()
