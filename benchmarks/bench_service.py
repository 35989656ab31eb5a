"""Resumable-campaign service benchmarks (framework performance).

Two questions the service layer (DESIGN.md §5.16) must answer with
numbers rather than vibes:

* **ledger overhead** — how much slower is the checkpointed runner
  (one fsync'd atomic commit per shard) than the monolithic in-memory
  engine on the same campaign with the same chunking?  The digests are
  asserted bit-identical, so this is pure durability cost.
* **lookup latency** — once trained, how fast does the HTTP
  ``/predict`` path answer a DSR-signature query, serially and under
  concurrent load?  The paper's pitch is a sub-millisecond table
  lookup replacing a full SBIST sweep; the served path should stay in
  the low-millisecond range including HTTP framing.

Both land as a timestamped ``service_bench`` entry in the repo-root
``BENCH_campaign.json`` trajectory via :mod:`repro.benchlog`.
"""

from __future__ import annotations

import statistics
import threading
import time

from repro.faults import CampaignConfig, run_campaign
from repro.faults.service import (
    CampaignLedger,
    CampaignService,
    ServiceClient,
    run_resumable_campaign,
    start_service,
)

from bench_campaign_scaling import append_bench_entry, ROOT_BENCH_JSON

#: Small enough to finish in seconds, large enough that the ledger's
#: per-shard commit cost is measured over a real number of shards.
SERVICE_CONFIG = CampaignConfig(
    benchmarks=("ttsprk",),
    soft_per_flop=2,
    hard_per_flop=1,
    flop_fraction=0.10,
    max_observe=1000,
)
SERVICE_CHUNK = 8

LOOKUP_ROUNDS = 200
CONCURRENT_CLIENTS = 16
LOOKUPS_PER_CLIENT = 25


def test_service_overhead_and_lookup_latency(tmp_path, report):
    # Both campaigns run the scalar engine (batch=0), as in every
    # earlier entry, so the ledger overhead compares like with like.
    run_campaign(SERVICE_CONFIG, workers=1, batch=0)  # warm the golden cache

    def timed(fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        return time.perf_counter() - start, out

    t_mono, mono = timed(run_campaign, SERVICE_CONFIG, workers=1,
                         chunk_flops=SERVICE_CHUNK, batch=0)
    t_ledger, ledgered = timed(
        run_resumable_campaign, SERVICE_CONFIG,
        ledger_dir=tmp_path / "ledger", workers=1,
        chunk_flops=SERVICE_CHUNK, batch=0)
    assert ledgered.digest() == mono.digest()  # durability is free of drift
    n = mono.n_injected
    n_shards = ledgered.meta["n_shards"]

    ledger = CampaignLedger(tmp_path / "ledger", SERVICE_CONFIG,
                            chunk_flops=SERVICE_CHUNK)
    service = CampaignService(ledger, top_k=3)
    handle = start_service(service)
    try:
        client = ServiceClient(handle.base_url)
        signatures = sorted(
            {rec.diverged for rec in mono.records if rec.diverged},
            key=sorted)[:8] or [frozenset()]

        # Serial latency: median over LOOKUP_ROUNDS round-robin queries.
        client.predict(signatures[0])  # force training before timing
        laps = []
        for i in range(LOOKUP_ROUNDS):
            dsr = signatures[i % len(signatures)]
            start = time.perf_counter()
            client.predict(dsr)
            laps.append(time.perf_counter() - start)
        p50 = statistics.median(laps)
        p99 = sorted(laps)[int(len(laps) * 0.99)]

        # Concurrent throughput: N clients hammering /predict at once.
        errors = []

        def hammer():
            local = ServiceClient(handle.base_url)
            try:
                for i in range(LOOKUPS_PER_CLIENT):
                    local.predict(signatures[i % len(signatures)])
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=hammer)
                   for _ in range(CONCURRENT_CLIENTS)]
        t_conc, _ = timed(lambda: ([t.start() for t in threads],
                                   [t.join() for t in threads]))
        assert not errors
        total_lookups = CONCURRENT_CLIENTS * LOOKUPS_PER_CLIENT
    finally:
        handle.stop()

    entry = {
        "config": {"benchmarks": ["ttsprk"], "soft_per_flop": 2,
                   "hard_per_flop": 1, "flop_fraction": 0.10,
                   "max_observe": 1000},
        "chunk_flops": SERVICE_CHUNK,
        "n_shards": n_shards,
        "injections": n,
        "wall_s": {"monolithic": round(t_mono, 3),
                   "ledger": round(t_ledger, 3)},
        "ledger_overhead": round(t_ledger / t_mono, 3),
        "commit_cost_ms": round((t_ledger - t_mono) / n_shards * 1e3, 3),
        "predict_ms": {"p50": round(p50 * 1e3, 3),
                       "p99": round(p99 * 1e3, 3)},
        "predict_per_s_concurrent": round(total_lookups / t_conc, 1),
        "concurrent_clients": CONCURRENT_CLIENTS,
        "digest": mono.digest(),
    }
    append_bench_entry("service_bench", entry)
    report("service_bench", "\n".join([
        "Resumable campaign service — ledger overhead + lookup latency",
        f"  campaign ({n} injections, {n_shards} shards of "
        f"{SERVICE_CHUNK} flops):",
        f"    monolithic  wall={t_mono:6.3f}s",
        f"    ledgered    wall={t_ledger:6.3f}s  "
        f"(x{t_ledger / t_mono:4.2f}, "
        f"{(t_ledger - t_mono) / n_shards * 1e3:5.2f} ms/commit)",
        f"  /predict latency over HTTP ({LOOKUP_ROUNDS} serial queries): "
        f"p50={p50 * 1e3:5.2f} ms  p99={p99 * 1e3:5.2f} ms",
        f"  concurrent: {total_lookups} lookups from "
        f"{CONCURRENT_CLIENTS} clients in {t_conc:5.2f}s "
        f"({total_lookups / t_conc:7.0f} lookups/s)",
        f"  appended to {ROOT_BENCH_JSON.name}",
    ]))
