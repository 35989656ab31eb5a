"""Batch injection engine: parity, compaction, wiring.

The contract under test is absolute: for any batch size, worker count
and shard composition, the batch engine must reproduce the scalar
pruned engine's records *and* pruning statistics bit for bit
(``CampaignResult.digest()`` equality is the campaign-level corollary).
Campaign-level tests also run without the compiled kernel (the drivers
fall back to the scalar engine); engine-level tests need it.
"""

from __future__ import annotations

import random

import pytest

from repro.cli import main as cli_main
from repro.cpu.units import REGISTRY, FlopRef
from repro.faults import (
    BatchInjectionEngine,
    CampaignConfig,
    CampaignResult,
    ExecPlan,
    Fault,
    FaultKind,
    InjectionEngine,
    cext_available,
    cext_build_error,
    run_campaign,
    sample_flops,
    schedule_faults,
)
from repro.faults.parallel import sampling_rng, schedule_rng

QUICK = CampaignConfig.quick()

needs_cext = pytest.mark.skipif(
    not cext_available(),
    reason=f"compiled kernel unavailable: {cext_build_error()}")


# -- campaign-level digest parity --------------------------------------------

@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("batch", (1, 7, 64))
def test_campaign_digest_parity(quick_campaign, batch, workers):
    """digest() is identical for every (batch size, worker count)."""
    result = run_campaign(QUICK, plan=ExecPlan(workers=workers, batch=batch))
    assert result.digest() == quick_campaign.digest()
    assert result.injected == quick_campaign.injected
    assert result.golden_cycles == quick_campaign.golden_cycles
    # Stronger than the digest: pruning stats match the scalar engine's.
    assert result.meta["pruning"] == quick_campaign.meta["pruning"]
    assert result.meta["batch"] == (batch if cext_available() else None)


# -- engine-level parity on random shards ------------------------------------

def _shard_faults(golden, flop_idxs, cfg):
    flops = sample_flops(cfg, sampling_rng(cfg.seed))
    faults = []
    for idx in flop_idxs:
        faults.extend(schedule_faults(
            flops[idx], golden.n_cycles, cfg,
            schedule_rng(cfg.seed, 0, idx)))
    return faults


def _assert_engine_parity(golden, faults, cfg, prune=True, **batch_kwargs):
    scalar = InjectionEngine(golden, max_observe=cfg.max_observe,
                             mask_check_stride=cfg.mask_check_stride,
                             prune=prune)
    expected = [scalar.inject(f) for f in faults]
    engine = BatchInjectionEngine(golden, max_observe=cfg.max_observe,
                                  mask_check_stride=cfg.mask_check_stride,
                                  prune=prune, **batch_kwargs)
    assert engine.inject_all(faults) == expected
    assert engine.stats.as_dict() == scalar.stats.as_dict()


@needs_cext
@pytest.mark.parametrize("trial,batch", ((0, 3), (1, 17), (2, 128)))
def test_random_shard_parity(ttsprk_golden, trial, batch):
    """Random flop subsets through both engines: records + stats equal."""
    cfg = QUICK
    n_flops = len(sample_flops(cfg, sampling_rng(cfg.seed)))
    rnd = random.Random(20180615 + trial)
    idxs = sorted(rnd.sample(range(n_flops), k=min(12, n_flops)))
    faults = _shard_faults(ttsprk_golden, idxs, cfg)
    assert faults
    _assert_engine_parity(ttsprk_golden, faults, cfg, batch=batch)


@needs_cext
def test_pure_kernel_parity(ttsprk_golden):
    """The compiled kernel alone carries every lane to retirement,
    bit-identically: there is no scalar drain for stragglers."""
    cfg = QUICK
    faults = _shard_faults(ttsprk_golden, range(10), cfg)
    _assert_engine_parity(ttsprk_golden, faults, cfg, batch=16)


@needs_cext
def test_unpruned_parity(ttsprk_golden):
    """prune=False is an escape hatch in both engines; still identical."""
    cfg = QUICK
    faults = _shard_faults(ttsprk_golden, range(6), cfg)
    _assert_engine_parity(ttsprk_golden, faults, cfg, prune=False, batch=8)


# -- dynamic equivalence collapsing ------------------------------------------

@needs_cext
def test_equivalence_collapse_fires(ttsprk_golden):
    """Two soft faults on one (reg, bit) deferring to the same
    soft_start collapse into a single simulation, in both engines.

    Campaign-level quick-config runs always report ``equiv_hits: 0``
    — not a bug: ``soft_per_flop=1`` gives every (reg, bit) exactly
    one soft fault, so the class key (reg, bit, start) cannot collide
    (DESIGN §5.15).  This pins the mechanism itself alive with a
    constructed pair.
    """
    golden = ttsprk_golden
    pair = None
    for spec in REGISTRY:
        for t in range(0, golden.n_cycles - 2, 11):
            s1 = golden.soft_start(spec.name, t)
            if s1 is not None and golden.soft_start(spec.name, t + 1) == s1:
                pair = (spec.name, t)
                break
        if pair:
            break
    assert pair is not None, "no collapsible soft pair in the golden trace"
    reg, t = pair
    faults = [Fault(FlopRef(reg, 0), FaultKind.SOFT, t),
              Fault(FlopRef(reg, 0), FaultKind.SOFT, t + 1)]

    scalar = InjectionEngine(golden)
    expected = [scalar.inject(f) for f in faults]
    assert scalar.stats.equiv_hits == 1  # second fault replayed, not re-run
    for batch in (1, 4):
        engine = BatchInjectionEngine(golden, batch=batch)
        assert engine.inject_all(faults) == expected
        assert engine.stats.as_dict() == scalar.stats.as_dict()
        assert engine.stats.equiv_hits == 1


# -- lane compaction ---------------------------------------------------------

@needs_cext
def test_lane_compaction(ttsprk_golden):
    """Retired columns are filled by live tail columns, one move each."""
    engine = BatchInjectionEngine(ttsprk_golden, batch=4)
    engine._n = 4
    for i in range(4):
        engine.S[:, i] = i + 1
        engine.M[i, :] = 10 * (i + 1)
        engine.t[i] = 100 + i
        engine.end[i] = 200 + i
        engine.start[i] = i
        engine.next_chk[i] = 50 + i
        engine.chk_iv[i] = 8 << i
        engine.force_and[i] = i
        engine.force_or[i] = i
        engine.force_row[i] = i
        engine.is_hard[i] = bool(i % 2)
        engine.seq[i] = i
        engine.info[i] = f"lane{i}"

    engine._compact([1, 3])

    assert engine._n == 2
    # Lane 0 untouched; old lane 2 moved into the hole at 1.
    assert int(engine.S[0, 0]) == 1 and int(engine.S[0, 1]) == 3
    assert int(engine.M[0, 0]) == 10 and int(engine.M[1, 0]) == 30
    assert engine.t[:2].tolist() == [100, 102]
    assert engine.end[:2].tolist() == [200, 202]
    assert engine.next_chk[:2].tolist() == [50, 52]
    assert engine.chk_iv[:2].tolist() == [8, 32]
    assert engine.force_and[:2].tolist() == [0, 2]
    assert engine.force_row[:2].tolist() == [0, 2]
    assert engine.is_hard[:2].tolist() == [False, False]
    assert engine.seq[:2].tolist() == [0, 2]
    assert engine.info[:2] == ["lane0", "lane2"]


@needs_cext
def test_seed_many_matches_scalar_seed(ttsprk_golden):
    """Bulk lane seeding reproduces the scalar reference lane-for-lane."""
    from collections import deque

    import numpy as np

    golden = ttsprk_golden
    kinds = (FaultKind.SOFT, FaultKind.STUCK0, FaultKind.STUCK1)
    specs = []
    for seq in range(20):
        spec = REGISTRY[(seq * 5) % len(REGISTRY)]
        kind = kinds[seq % 3]
        bit = (seq * 3) % spec.width
        start = 5 + 7 * seq
        fault = Fault(FlopRef(spec.name, bit), kind, start)
        end = min(golden.n_cycles, start + 300)
        key = (spec.name, bit, start) if kind is FaultKind.SOFT else None
        specs.append((seq, fault, start, end, key))

    scalar = BatchInjectionEngine(golden, batch=32)
    for s in specs:
        scalar._seed(s)
    bulk = BatchInjectionEngine(golden, batch=32)
    bulk._seed_many(deque(specs))

    assert scalar._n == bulk._n == len(specs)
    np.testing.assert_array_equal(scalar.S, bulk.S)
    np.testing.assert_array_equal(scalar.M, bulk.M)
    for name in ("t", "end", "start", "next_chk", "chk_iv", "seq",
                 "force_row", "force_and", "force_or", "is_hard"):
        np.testing.assert_array_equal(
            getattr(scalar, name), getattr(bulk, name), err_msg=name)
    assert scalar.info == bulk.info


@needs_cext
def test_seed_many_respects_batch_room(ttsprk_golden):
    """Refill takes exactly ``batch - n`` specs, leaving the rest queued."""
    from collections import deque

    golden = ttsprk_golden
    specs = deque(
        (seq, Fault(FlopRef("pc", seq % 32), FaultKind.SOFT, 10 + seq),
         10 + seq, golden.n_cycles, None)
        for seq in range(10))
    engine = BatchInjectionEngine(golden, batch=4)
    engine._seed_many(specs)
    assert engine._n == 4
    assert len(specs) == 6
    assert specs[0][0] == 4  # queue order preserved


@needs_cext
def test_compact_last_lane_only():
    """Retiring the final live lane is a pure shrink, no column moves."""
    from repro.faults import GoldenTrace
    from repro.workloads import KERNELS

    engine = BatchInjectionEngine(GoldenTrace.cached(KERNELS["ttsprk"]),
                                  batch=2)
    engine._n = 2
    engine.S[:, 0] = 7
    engine.S[:, 1] = 9
    engine.info[:2] = ["keep", "drop"]
    engine._compact([1])
    assert engine._n == 1
    assert int(engine.S[0, 0]) == 7
    assert engine.info[0] == "keep"


# -- CLI wiring --------------------------------------------------------------

def test_cli_batch_flag(tmp_path, capsys, quick_campaign):
    """`repro campaign --batch N` runs the batch engine; result cached
    under the same key (and digest) as the scalar engine's."""
    rc = cli_main(["campaign", "--scale", "quick", "--cache", str(tmp_path),
                   "--workers", "1", "--batch", "16"])
    assert rc == 0
    capsys.readouterr()
    cached = CampaignResult.load(next(tmp_path.glob("campaign_*.pkl")))
    assert cached.digest() == quick_campaign.digest()
    assert cached.meta["batch"] == (16 if cext_available() else None)
