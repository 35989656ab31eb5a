"""Incremental campaign-result merging: the merge of every driver.

:class:`IncrementalResultStore` absorbs shard outcomes *as they land,
in any order*, keeping running aggregates (injected counts, pruning
sums, golden cycles, error totals) plus the per-shard record lists it
was asked to retain.  The merge is commutative and associative — any
commit permutation yields the identical :class:`CampaignResult` and
digest (property-tested in ``tests/test_service.py``) — because
assembly walks the shards by id, which is the (benchmark, flop base)
order key of :func:`~repro.faults.parallel.plan_shards`.

``execute_campaign`` and the ledger runner merge through it in memory.
Backed by a :class:`~repro.faults.service.ledger.CampaignLedger`, the
service drops record lists entirely and streams them from the
committed shard files at finalisation, so server memory stays flat
while a campaign runs.
"""

from __future__ import annotations

from .campaign import CampaignConfig, CampaignResult
from .models import ErrorRecord


class IncrementalResultStore:
    """Merge shard outcomes incrementally into a campaign result.

    Args:
        config: the campaign the outcomes belong to.
        keep_records: retain record lists in memory (the default, for
            in-process runs).  ``False`` keeps aggregates only; callers
            then stream records from their ledger for finalisation.
        sampled_flops: the campaign's per-unit sampled-flop counts, when
            the caller has them; None recounts them from the config.
    """

    def __init__(self, config: CampaignConfig, keep_records: bool = True,
                 sampled_flops: dict[str, int] | None = None):
        self.config = config
        self.keep_records = keep_records
        self.sampled_flops = sampled_flops
        self._records: dict[int, list[ErrorRecord]] = {}
        self._seen: set[int] = set()
        self.injected: dict[tuple[str, str], int] = {}
        self.pruning: dict[str, int] = {}
        #: benchmark -> golden run length (same value from every shard
        #: of that benchmark, so last-writer-wins merging is exact).
        self.golden_cycles: dict[str, int] = {}
        self.n_errors = 0

    @property
    def n_shards_merged(self) -> int:
        return len(self._seen)

    def add(self, shard_id: int, benchmark: str, outcome: tuple) -> bool:
        """Fold one shard outcome in; returns False on duplicate.

        ``outcome`` is the ``run_shard`` tuple ``(records, injected,
        n_cycles, pruning)``.  Duplicate shard ids are ignored rather
        than double-counted, so replaying a ledger into a live store is
        harmless.
        """
        if shard_id in self._seen:
            return False
        self._seen.add(shard_id)
        records, injected, n_cycles, pruning = outcome
        self.n_errors += len(records)
        if self.keep_records:
            self._records[shard_id] = list(records)
        for key, count in injected.items():
            self.injected[key] = self.injected.get(key, 0) + count
        for key, count in (pruning or {}).items():
            self.pruning[key] = self.pruning.get(key, 0) + count
        self.golden_cycles[benchmark] = int(n_cycles)
        return True

    def iter_records(self):
        """Yield merged records in the canonical (shard id) order."""
        for shard_id in sorted(self._records):
            yield from self._records[shard_id]

    def result(self, wall_seconds: float = 0.0,
               meta: dict | None = None) -> CampaignResult:
        """Assemble the merged :class:`CampaignResult`.

        Requires ``keep_records=True``: a complete ledger's result is
        ``hydrate_store(ledger).result()``
        (:func:`~repro.faults.service.runner.hydrate_store`).
        """
        if not self.keep_records:
            raise RuntimeError(
                "store was built with keep_records=False; assemble from "
                "a store that keeps them (hydrate_store(ledger))")
        sampled_flops = self.sampled_flops
        if sampled_flops is None:
            sampled_flops = sampled_flop_counts(self.config)
        return CampaignResult(
            config=self.config,
            records=list(self.iter_records()),
            injected=dict(self.injected),
            golden_cycles=dict(self.golden_cycles),
            sampled_flops=dict(sampled_flops),
            wall_seconds=wall_seconds,
            meta={**{"pruning": dict(self.pruning)}, **(meta or {})},
        )


def unit_counts(flops) -> dict[str, int]:
    """Flops per unit, in first-seen order."""
    counts: dict[str, int] = {}
    for flop in flops:
        counts[flop.unit] = counts.get(flop.unit, 0) + 1
    return counts


def sampled_flop_counts(config: CampaignConfig) -> dict[str, int]:
    """Per-unit sampled-flop counts, recomputed from the config.

    Deterministic (keyed sampling stream), so a resumed campaign
    reports the same counts as an uninterrupted one without persisting
    them.
    """
    from .campaign import sample_flops
    from .parallel import sampling_rng

    return unit_counts(sample_flops(config, sampling_rng(config.seed)))
