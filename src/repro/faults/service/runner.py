"""Checkpointed campaign execution over a durable ledger.

``run_resumable_campaign`` is ``execute_campaign`` with a crash seam:
every shard is leased from the :class:`~.ledger.CampaignLedger`,
executed through the ordinary ``run_shard`` path (scalar or batch
engine — the same engines), and committed atomically.
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

import time
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)

from ..campaign import CampaignConfig, CampaignResult
from ..parallel import (print_progress, engine_meta, resolve_batch,
                        resolve_executor, resolve_workers, run_shard)
from .ledger import DEFAULT_LEASE_TTL, CampaignLedger
from .store import IncrementalResultStore, streaming_digest


def hydrate_store(ledger: CampaignLedger,
                  keep_records: bool = True) -> IncrementalResultStore:
    """Build a result store pre-loaded with a ledger's committed shards."""
    store = IncrementalResultStore(ledger.config, keep_records=keep_records)
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

    return streaming_digest(_stream())


def run_resumable_campaign(config: CampaignConfig | None = None,
                           ledger_dir: str = ".campaign_ledger",
                           progress: bool = False,
                           workers: int | None = 1,
                           chunk_flops: int | None = None,
                           batch: int | None = None,
                           executor: str | None = None,
                           threads: int | None = None,
                           lease_ttl: float = DEFAULT_LEASE_TTL,
                           on_commit=None) -> CampaignResult:
    """Run (or resume) a campaign through the durable ledger.

    Args:
        config: campaign parameters (default:
            :meth:`CampaignConfig.default`).
        ledger_dir: root directory for per-campaign ledgers; the same
            directory + config always resumes the same ledger.
        workers / chunk_flops / batch / executor / threads:
            execution knobs exactly as in
            :func:`repro.faults.run_campaign` — none of them affects
            results, and none is pinned by the ledger except the shard
            chunking (fixed in the manifest at creation so every
            resume sees one shard plan).
        lease_ttl: seconds before an uncommitted lease is reclaimed.
        on_commit: optional ``callback(shard_id, n_committed)`` fired
            after each durable commit — the crash-recovery tests use it
            to kill the runner at exact shard boundaries.

    Returns the merged result, with ``meta["resumed_shards"]`` counting
    how many shards a previous (killed) run had already committed.
    """
    config = config or CampaignConfig.default()
    workers = resolve_workers(workers)
    executor = resolve_executor(executor)
    batch, threads = resolve_batch(batch, threads)
    ledger = CampaignLedger(ledger_dir, config, workers=workers,
                            chunk_flops=chunk_flops, batch=batch)
    resumed = ledger.n_committed
    start = time.perf_counter()
    store = hydrate_store(ledger)

    def _commit(shard_id: int, outcome: tuple) -> None:
        ledger.commit(shard_id, outcome)
        store.add(shard_id, ledger.shards[shard_id].benchmark, outcome)
        if progress:
            print_progress(ledger.n_committed, ledger.n_shards,
                            store.n_errors, start, store.pruning)
        if on_commit is not None:
            on_commit(shard_id, ledger.n_committed)

    if workers == 1:
        while True:
            grant = ledger.lease("local", ttl=lease_ttl)
            if grant is None:
                break
            outcome = run_shard(config, grant.shard, batch, threads)
            _commit(grant.shard_id, outcome)
    else:
        pool_cls = (ThreadPoolExecutor if executor == "thread"
                    else ProcessPoolExecutor)
        with pool_cls(max_workers=workers) as pool:
            pending: dict = {}
            def _refill() -> None:
                while len(pending) < workers:
                    grant = ledger.lease("local-pool", ttl=lease_ttl)
                    if grant is None:
                        return
                    future = pool.submit(run_shard, config, grant.shard,
                                         batch, threads)
                    pending[future] = grant
            _refill()
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    grant = pending.pop(future)
                    _commit(grant.shard_id, future.result())
                _refill()

    if not ledger.complete:
        # Only reachable when another process holds active leases on
        # the remaining shards (shared ledger dir); surface it rather
        # than returning a partial dataset.
        raise RuntimeError(
            f"ledger still has uncommitted shards "
            f"({ledger.n_committed}/{ledger.n_shards}) under foreign leases")
    return store.result(
        wall_seconds=time.perf_counter() - start,
        meta={"workers": workers, "n_shards": ledger.n_shards,
              "chunk_flops": int(ledger.manifest["chunk_flops"]),
              **engine_meta(batch, threads), "executor": executor,
              "resumed_shards": resumed,
              "ledger": str(ledger.path)},
    )

