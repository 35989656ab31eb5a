"""Campaign-engine scaling benchmarks (framework performance).

Times the sharded fault-injection engine at 1/2/4/8 workers on one
stratified campaign and prints the speedup table, plus the golden-trace
``memory_at`` reconstruction hot path (checkpoints+searchsorted vs the
naive full-log replay it replaced), plus the liveness-pruning speedup
(pruned vs un-pruned engine on the same schedule, digests asserted
bit-identical), plus the batch engine against the pruned scalar engine
(a sweep over the faults one kernel call takes, and a deep-pool headline
config).

Results are asserted bit-identical across worker counts, so these
benches double as an integration check of the determinism contract.
On a single-core container the speedup degenerates to process-pool
overhead; the table still prints so the trajectory is recorded.

Timings land in ``results/BENCH_<scale>.json`` via the conftest hook;
the pruning and batch sweeps additionally *append* timestamped entries
to the repo-root ``BENCH_campaign.json`` so the campaign-throughput
trajectory is tracked across PRs instead of being overwritten.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from pathlib import Path

import pytest

from repro.faults import (CampaignConfig, ExecPlan, GoldenTrace,
                          cext_available, run_campaign)
from repro.faults.golden import MEMORY_CHECKPOINT_EVERY
from repro.workloads import KERNELS

#: Repo-root perf-trajectory artifact (committed, diffed across PRs).
ROOT_BENCH_JSON = Path(__file__).parent.parent / "BENCH_campaign.json"


def append_bench_entry(kind: str, payload: dict,
                       path: Path = ROOT_BENCH_JSON) -> dict:
    """Append one timestamped entry to the root trajectory artifact.

    Delegates to :mod:`repro.benchlog`, the shared guarded reader /
    writer for the mixed-schema history file (legacy schema-1
    single-payload files are absorbed as the first entry so history
    survives the format change).  Returns the entry written.
    """
    from repro.benchlog import append_entry

    return append_entry(path, kind, payload)

#: A campaign sized so one measurement run is seconds, not minutes:
#: two benchmarks at a moderate sampling fraction.
SCALING_CONFIG = CampaignConfig(
    benchmarks=("ttsprk", "puwmod"),
    soft_per_flop=1,
    hard_per_flop=1,
    flop_fraction=0.10,
    max_observe=1000,
)

WORKER_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def serial_reference():
    """The workers=1 result every parallel run must reproduce."""
    return run_campaign(SCALING_CONFIG)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_campaign_scaling(benchmark, workers, serial_reference):
    benchmark.group = "campaign-scaling"
    benchmark.name = f"campaign_workers_{workers}"
    result = benchmark.pedantic(
        run_campaign, args=(SCALING_CONFIG,),
        kwargs={"plan": ExecPlan(workers=workers)}, rounds=1, iterations=1)
    assert result.records == serial_reference.records
    assert result.injected == serial_reference.injected


def test_scaling_speedup_table(report):
    """One explicit wall-clock sweep with the speedup table artifact."""
    rows = []
    base = None
    for workers in WORKER_COUNTS:
        start = time.perf_counter()
        result = run_campaign(SCALING_CONFIG, plan=ExecPlan(workers=workers))
        elapsed = time.perf_counter() - start
        if base is None:
            base = elapsed
        rows.append((workers, elapsed, base / elapsed, result.meta["n_shards"]))
    lines = [f"Campaign scaling — sharded engine, host cores={os.cpu_count()}"]
    lines += [f"  workers={w}  wall={t:7.2f}s  speedup={s:4.2f}x  shards={n}"
              for w, t, s, n in rows]
    report("campaign_scaling", "\n".join(lines))
    assert rows[0][2] == 1.0


@pytest.mark.parametrize("prune", (True, False), ids=("pruned", "unpruned"))
def test_campaign_pruning(benchmark, prune, serial_reference):
    """Pruned vs un-pruned engine on the same schedule, workers=1."""
    benchmark.group = "campaign-pruning"
    benchmark.name = f"campaign_{'pruned' if prune else 'unpruned'}"
    config = dataclasses.replace(SCALING_CONFIG, prune=prune)
    result = benchmark.pedantic(run_campaign, args=(config,), rounds=1,
                                iterations=1)
    # pruning must be behaviour-preserving, bit for bit
    assert result.records == serial_reference.records
    assert result.injected == serial_reference.injected


def test_pruning_speedup_report(report):
    """Quick-campaign pruning sweep; writes the root BENCH_campaign.json.

    workers=1 so the number is pure engine throughput, best-of-3 with
    the golden traces pre-built so neither side pays for building
    them.  The scalar engine (``batch=0``), as in every
    earlier entry of the trajectory.
    """
    config = CampaignConfig.quick()
    config_off = dataclasses.replace(config, prune=False)
    scalar = ExecPlan(batch=0)
    run_campaign(config, plan=scalar)  # build the golden traces

    def best_of(cfg, rounds=3):
        times, result = [], None
        for _ in range(rounds):
            start = time.perf_counter()
            result = run_campaign(cfg, plan=scalar)
            times.append(time.perf_counter() - start)
        return min(times), result

    t_on, on = best_of(config)
    t_off, off = best_of(config_off)
    assert on.digest() == off.digest()  # behaviour-preserving
    n = on.n_injected
    pruning = on.meta["pruning"]
    pruned = pruning["soft_pruned"] + pruning["hard_pruned"]
    deferred = pruning["soft_deferred"] + pruning["hard_deferred"]
    collapsible = pruning["equiv_classes"] + pruning["equiv_hits"]
    payload = {
        "config": "quick",
        "workers": 1,
        "injections": n,
        "injections_per_s": {
            "pruned": round(n / t_on, 1),
            "unpruned": round(n / t_off, 1),
        },
        "speedup": round(t_off / t_on, 2),
        "pruned_fraction": round(pruned / n, 4),
        "deferred_fraction": round(deferred / n, 4),
        # Raw counters: the old derived-only ratio rendered as a
        # meaningless 0.0 whenever the quick schedule produced no
        # collapsible pair, hiding whether the stage even ran.
        "equiv_classes": pruning["equiv_classes"],
        "equiv_hits": pruning["equiv_hits"],
        "equivalence_collapse_ratio": round(
            pruning["equiv_hits"] / collapsible, 4) if collapsible else None,
        "cycles_saved": pruning["cycles_saved"],
        "sim_cycles_pruned": pruning["sim_cycles"],
        "sim_cycles_unpruned": off.meta["pruning"]["sim_cycles"],
        "digest": on.digest(),
    }
    append_bench_entry("pruning", payload)
    report("campaign_pruning", "\n".join([
        "Liveness pruning — quick campaign, scalar engine, workers=1 "
        "(best of 3)",
        f"  unpruned  wall={t_off:6.3f}s  {n / t_off:8.0f} inj/s",
        f"  pruned    wall={t_on:6.3f}s  {n / t_on:8.0f} inj/s  "
        f"speedup={t_off / t_on:4.2f}x",
        f"  masked w/o sim: {pruned}/{n} ({pruned / n:.1%})  "
        f"deferred: {deferred}  equiv: {pruning['equiv_classes']} classes, "
        f"{pruning['equiv_hits']} collapsed",
        f"  cycles: {pruning['sim_cycles']} simulated vs "
        f"{off.meta['pruning']['sim_cycles']} unpruned "
        f"({pruning['cycles_saved']} saved)",
        f"  appended to {ROOT_BENCH_JSON.name}",
    ]))
    assert on.records == off.records


#: Sweep config over faults per kernel call: one benchmark, enough
#: faults (~7.5k) that every call at the sweep's sizes is full, small
#: enough that the sweep stays short.
BATCH_SWEEP_CONFIG = CampaignConfig(
    benchmarks=("ttsprk",),
    soft_per_flop=8,
    hard_per_flop=1,
    flop_fraction=0.35,
    max_observe=2000,
)

#: Headline config: the full soft-heavy pool on one benchmark (~43k
#: faults), which returns to Python once per 2048 faults — the batch
#: engine's best case.
BATCH_HEADLINE_CONFIG = CampaignConfig(
    benchmarks=("ttsprk",),
    soft_per_flop=16,
    hard_per_flop=2,
    flop_fraction=1.0,
)

BATCH_SIZES = (1, 16, 64, 256)


def test_batch_speedup_report(report):
    """Batch-vs-scalar engine sweep; appends to the root BENCH_campaign.json.

    Two entries: a ``batch_sweep`` over 1/16/64/256 faults per kernel
    call on a medium campaign (this is also the CI regression-gate
    baseline: the gate compares the ``batch_cext``/scalar *ratio*,
    which normalises host speed), and a ``batch_headline`` measurement
    on the deep soft-heavy pool at 2048 faults per call (best of 3).
    The entries keep the ``batch`` key names of their history.  Digests and
    PruneStats are asserted identical between every row and the scalar
    engine.  Without the compiled kernel every batch row would run the
    scalar engine, so the bench skips.
    """
    if not cext_available():
        pytest.skip("compiled kernel unavailable")
    run_campaign(BATCH_SWEEP_CONFIG)  # build the golden traces

    def timed(cfg, batch):
        start = time.perf_counter()
        result = run_campaign(cfg, plan=ExecPlan(batch=batch))
        return time.perf_counter() - start, result

    t_scalar, scalar = timed(BATCH_SWEEP_CONFIG, batch=0)
    n = scalar.n_injected
    rows = {}
    for size in BATCH_SIZES:
        t_b, batched = timed(BATCH_SWEEP_CONFIG, batch=size)
        assert batched.digest() == scalar.digest()
        assert batched.meta["pruning"] == scalar.meta["pruning"]
        rows[str(size)] = round(n / t_b, 1)
    append_bench_entry("batch_sweep", {
        "config": {"benchmarks": ["ttsprk"], "soft_per_flop": 8,
                   "hard_per_flop": 1, "flop_fraction": 0.35,
                   "max_observe": 2000},
        "workers": 1,
        "injections": n,
        "injections_per_s": {"scalar": round(n / t_scalar, 1),
                             "batch_cext": rows},
        "best_cext_speedup": round(max(rows.values()) / (n / t_scalar), 2),
        "digest": scalar.digest(),
    })

    run_campaign(BATCH_HEADLINE_CONFIG,
                 plan=ExecPlan(batch=2048))  # warm golden
    t_hs, head_scalar = timed(BATCH_HEADLINE_CONFIG, batch=0)
    hn = head_scalar.n_injected
    t_hc = float("inf")
    for _ in range(3):
        t_c, head_cext = timed(BATCH_HEADLINE_CONFIG, batch=2048)
        assert head_cext.digest() == head_scalar.digest()
        t_hc = min(t_hc, t_c)
    append_bench_entry("batch_headline", {
        "config": {"benchmarks": ["ttsprk"], "soft_per_flop": 16,
                   "hard_per_flop": 2, "flop_fraction": 1.0,
                   "max_observe": None},
        "workers": 1,
        "batch": 2048,
        "injections": hn,
        "injections_per_s": {"scalar_pruned": round(hn / t_hs, 1),
                             "batch_cext": round(hn / t_hc, 1)},
        "cext_speedup": round(t_hs / t_hc, 2),
        "digest": head_scalar.digest(),
    })
    lines = ["Batch engine vs pruned scalar — workers=1",
             f"  sweep ({n} injections): scalar {n / t_scalar:8.0f} inj/s"]
    lines += [f"    {s:4d} faults/call {rows[str(s)]:8.0f} inj/s  "
              f"({rows[str(s)] / (n / t_scalar):4.2f}x)"
              for s in BATCH_SIZES]
    lines += [f"  headline ({hn} injections, 2048 faults/call): "
              f"scalar {hn / t_hs:8.0f} inj/s, batch {hn / t_hc:8.0f} "
              f"inj/s ({t_hs / t_hc:4.2f}x, best of 3)",
              f"  appended to {ROOT_BENCH_JSON.name}"]
    report("campaign_batch", "\n".join(lines))


def test_memory_at_checkpointed(benchmark):
    """The optimised reconstruction on a dense write log."""
    golden = _write_heavy_golden()
    benchmark.group = "memory-reconstruction"
    cycles = list(range(0, golden.n_cycles, 11))

    def reconstruct_sweep():
        for cycle in cycles:
            golden.memory_at(cycle)

    benchmark(reconstruct_sweep)


def test_memory_at_naive_baseline(benchmark):
    """The seed's full-log replay, kept as the comparison baseline."""
    golden = _write_heavy_golden()
    benchmark.group = "memory-reconstruction"
    cycles = list(range(0, golden.n_cycles, 11))
    initial = golden.memory_at(0).words
    log = golden.write_log.tolist()

    def naive_sweep():
        for cycle in cycles:
            words = list(initial)
            for when, idx, value in log:
                if when >= cycle:
                    break
                words[idx] = value

    benchmark(naive_sweep)


def _write_heavy_golden() -> GoldenTrace:
    """A golden trace carrying a dense synthetic write log.

    The AutoBench-style kernels keep almost everything in registers, so
    their logs are tiny; a memory-heavy workload writing a few words
    per cycle is the case the checkpointing exists for.
    """
    golden = GoldenTrace(KERNELS["ttsprk"])
    rnd = random.Random(1)
    log = [
        (cycle, rnd.randrange(golden.mem_words), rnd.randrange(1 << 32))
        for cycle in range(golden.n_cycles)
        for _ in range(4)
    ]
    golden.reindex_write_log(log)
    return golden
