"""Checkpointed campaign execution over a durable ledger.

``run_resumable_campaign`` is ``execute_campaign`` with a crash seam:
the one shard loop (:func:`~repro.faults.parallel.run_shards`) draws
its shards as leases from the :class:`~.ledger.CampaignLedger`, runs
them through the ordinary ``run_shard`` path (the batch engine by
default, the scalar one with ``batch=0`` or without the compiled
kernel — the same engines), and commits each atomically.
Kill the process at *any* point — between shards, mid-shard, even
mid-commit — and a later call with the same config resumes from the
committed set and finishes with a :meth:`CampaignResult.digest` that
is bit-identical to an uninterrupted (or monolithic
``execute_campaign``) run.  That guarantee is inherited, not rebuilt:
per-(benchmark, flop) SeedSequence keys make a shard's outcome a pure
function of the campaign config, so re-running work a crash threw away
reproduces it byte for byte.
"""

from __future__ import annotations

import dataclasses
import time

from ..campaign import (CampaignConfig, CampaignResult, records_digest,
                        sample_flops)
from ..parallel import ExecPlan, print_progress, run_shards, sampling_rng
from ..store import IncrementalResultStore, unit_counts
from .ledger import DEFAULT_LEASE_TTL, CampaignLedger


def hydrate_store(ledger: CampaignLedger, keep_records: bool = True,
                  sampled_flops: dict[str, int] | None = None
                  ) -> IncrementalResultStore:
    """Build a result store pre-loaded with a ledger's committed shards."""
    store = IncrementalResultStore(ledger.config, keep_records=keep_records,
                                   sampled_flops=sampled_flops)
    for shard_id, outcome in ledger.iter_committed():
        store.add(shard_id, ledger.shards[shard_id].benchmark, outcome)
    return store


def result_from_ledger(ledger: CampaignLedger, wall_seconds: float = 0.0,
                       meta: dict | None = None) -> CampaignResult:
    """Assemble the full result of a complete ledger.

    Streams every committed shard file once; raises if shards are
    still outstanding (a partial dataset would silently bias every
    downstream statistic).
    """
    if not ledger.complete:
        done = ledger.n_committed
        raise RuntimeError(
            f"campaign incomplete: {done}/{ledger.n_shards} shards committed")
    store = hydrate_store(ledger, keep_records=True)
    return store.result(wall_seconds=wall_seconds, meta=meta)


def ledger_digest(ledger: CampaignLedger) -> str:
    """Digest of a complete ledger, streamed off the shard files."""
    if not ledger.complete:
        raise RuntimeError("campaign incomplete; digest undefined")

    def _stream():
        for _shard_id, outcome in ledger.iter_committed():
            yield from outcome[0]

    return records_digest(_stream())


def run_resumable_campaign(config: CampaignConfig | None = None,
                           ledger_dir: str = ".campaign_ledger",
                           progress: bool = False,
                           plan: ExecPlan | None = None,
                           lease_ttl: float = DEFAULT_LEASE_TTL,
                           on_commit=None) -> CampaignResult:
    """Run (or resume) a campaign through the durable ledger.

    Args:
        config: campaign parameters (default:
            :meth:`CampaignConfig.default`).
        ledger_dir: root directory for per-campaign ledgers; the same
            directory + config always resumes the same ledger.
        plan: how to execute it, as in :func:`repro.faults.run_campaign`
            — no field affects results, and the ledger pins only the
            shard chunking: the manifest fixes it at creation, so every
            resume sees one shard plan, whatever ``plan.chunk_flops``.
        lease_ttl: seconds before an uncommitted lease is reclaimed.
        on_commit: optional ``callback(shard_id, n_committed)`` fired
            after each durable commit — the crash-recovery tests use it
            to kill the runner at exact shard boundaries.

    Returns the merged result, with ``meta["resumed_shards"]`` counting
    how many shards a previous (killed) run had already committed.
    """
    config = config or CampaignConfig.default()
    flops = sample_flops(config, sampling_rng(config.seed))
    plan = (plan or ExecPlan()).resolve(len(flops))
    ledger = CampaignLedger(ledger_dir, config, chunk_flops=plan.chunk_flops)
    plan = dataclasses.replace(
        plan, chunk_flops=int(ledger.manifest["chunk_flops"]))
    resumed = ledger.n_committed
    start = time.perf_counter()
    store = hydrate_store(ledger, sampled_flops=unit_counts(flops))

    def leases():
        while (grant := ledger.lease("local", ttl=lease_ttl)) is not None:
            yield grant.shard_id, grant.shard

    def commit(shard_id: int, outcome: tuple) -> None:
        ledger.commit(shard_id, outcome)
        store.add(shard_id, ledger.shards[shard_id].benchmark, outcome)
        if progress:
            print_progress(ledger.n_committed, ledger.n_shards,
                           store.n_errors, start, store.pruning)
        if on_commit is not None:
            on_commit(shard_id, ledger.n_committed)

    run_shards(config, plan, leases(), commit)
    if not ledger.complete:
        # Only reachable when another process holds active leases on
        # the remaining shards (shared ledger dir); surface it rather
        # than returning a partial dataset.
        raise RuntimeError(
            f"ledger still has uncommitted shards "
            f"({ledger.n_committed}/{ledger.n_shards}) under foreign leases")
    return store.result(
        wall_seconds=time.perf_counter() - start,
        meta={**plan.meta(), "n_shards": ledger.n_shards,
              "resumed_shards": resumed, "ledger": str(ledger.path)},
    )
