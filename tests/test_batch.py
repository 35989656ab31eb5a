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
from bisect import bisect_left

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cpu.units import REG_INDEX, REGISTRY, FlopRef
from repro.faults import (
    BatchInjectionEngine,
    CampaignConfig,
    CampaignResult,
    ExecPlan,
    Fault,
    FaultKind,
    GoldenTrace,
    InjectionEngine,
    cext_available,
    cext_build_error,
    run_campaign,
    sample_flops,
    schedule_faults,
)
from repro.faults import golden as golden_mod
from repro.faults.batch import TRASH_ROW
from repro.faults.models import FaultColumns
from repro.faults.parallel import sampling_rng, schedule_rng
from repro.workloads import KERNELS
from tests.conftest import replay_memory

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


def _checkpointed_canrdr(monkeypatch) -> GoldenTrace:
    """canrdr (62 memory writes) with a checkpoint every 16 writes, so
    lane memories are rebuilt from checkpoints plus write-log spans."""
    monkeypatch.setattr(golden_mod, "MEMORY_CHECKPOINT_EVERY", 16)
    golden = GoldenTrace(KERNELS["canrdr"])
    assert len(golden.write_log) > 48
    return golden


def _cycles_around_checkpoints(golden) -> list[int]:
    """Cycles whose write-log prefix ends just before, exactly at and
    just after each checkpoint, plus the first and last cycle."""
    log_cycles = [when for when, _, _ in golden.write_log]
    picks = {0, golden.n_cycles - 1}
    for j in (15, 16, 17, 31, 32, 33, 47, 48, 49):
        # The cycle after write j - 1 starts with exactly j writes done,
        # unless write j falls in the same cycle.
        cycle = log_cycles[j - 1] + 1
        if bisect_left(log_cycles, cycle) == j:
            picks.add(cycle)
    prefixes = [bisect_left(log_cycles, cycle) for cycle in picks]
    assert [p for p in prefixes if p and p % 16 == 0], "none at a checkpoint"
    assert [p for p in prefixes if p % 16], "none between checkpoints"
    return sorted(picks)


def _assert_lane_memory(engine, lane: int, cycle: int) -> None:
    assert engine.M[lane].tolist() == replay_memory(engine.golden, cycle), (
        f"lane {lane}: memory at cycle {cycle} differs from the log replay")


@needs_cext
def test_seed_many_matches_scalar_seed(monkeypatch):
    """Bulk lane seeding reproduces the specification lane for lane: the
    golden state at the start with a soft flip applied (stuck-at lanes
    are forced by ``drive()``), the force masks, the check schedule, and
    the memory the whole write log replays to, at starts before, at
    and after a checkpoint."""
    golden = _checkpointed_canrdr(monkeypatch)
    starts = _cycles_around_checkpoints(golden)
    kinds = (FaultKind.SOFT, FaultKind.STUCK0, FaultKind.STUCK1)
    faults = []
    for seq, start in enumerate(starts):
        spec = REGISTRY[(seq * 5) % len(REGISTRY)]
        faults.append(Fault(FlopRef(spec.name, (seq * 3) % spec.width),
                            kinds[seq % 3], start))

    engine = BatchInjectionEngine(golden, batch=32, mask_check_stride=3)
    engine._load(FaultColumns.from_faults(faults))
    engine._start = np.array(starts, dtype=np.int64)
    engine._end = np.minimum(engine._start + 300, golden.n_cycles)
    engine.M[:] = 0xDEADBEEF
    assert not len(engine._seed_many(np.arange(len(faults))))

    assert engine._n == len(faults)
    for i, (fault, start) in enumerate(zip(faults, starts)):
        row, mask = REG_INDEX[fault.flop.reg], 1 << fault.flop.bit
        state = list(golden.state_at(start))
        soft = fault.kind is FaultKind.SOFT
        if soft:
            state[row] ^= mask
        assert engine.S[:len(REGISTRY), i].tolist() == state
        assert engine.S[len(REGISTRY):, i].tolist() == [0, 0]
        _assert_lane_memory(engine, i, start)
        assert (engine.t[i], engine.start[i], engine.end[i], engine.seq[i]) \
            == (start, start, min(start + 300, golden.n_cycles), i)
        assert engine.is_hard[i] == (not soft)
        assert engine.force_row[i] == (TRASH_ROW if soft else row)
        assert engine.force_and[i] == (
            0xFFFFFFFF if fault.kind is not FaultKind.STUCK0
            else ~mask & 0xFFFFFFFF)
        assert engine.force_or[i] == (
            mask if fault.kind is FaultKind.STUCK1 else 0)
        assert engine.next_chk[i] == start + (1 if soft else 8)
        assert engine.chk_iv[i] == (3 if soft else 8)


@needs_cext
def test_fast_forward_reseeds_from_memory_at(monkeypatch):
    """A stuck-at lane back at golden jumps to the bit's next observed
    activation with the golden state and the replayed memory there,
    at targets before, at and after a checkpoint."""
    golden = _checkpointed_canrdr(monkeypatch)
    targets = [c for c in _cycles_around_checkpoints(golden) if c > 0]
    faults = []
    for target in targets:
        # A flop whose stuck bit is first observed active at `target`
        # when the lane stands at `target - 1`.
        faults.append(next(
            Fault(FlopRef(spec.name, bit), kind, target - 1)
            for spec in REGISTRY for bit in range(spec.width)
            for kind, value in ((FaultKind.STUCK0, 0), (FaultKind.STUCK1, 1))
            if golden.first_active_use(spec.name, bit, value, target - 1)
            == target))
    engine = BatchInjectionEngine(golden, batch=32)
    engine._load(FaultColumns.from_faults(faults))
    engine._start = np.array([f.cycle for f in faults], dtype=np.int64)
    engine._end = np.full(len(faults), golden.n_cycles, dtype=np.int64)
    engine._seed_many(np.arange(len(faults)))
    lanes = np.arange(len(faults))
    engine.M[lanes] = 0xDEADBEEF
    engine.next_chk[lanes] = engine.t[lanes]

    assert not engine._check(lanes)  # nobody retires: everyone jumps
    for i, target in enumerate(targets):
        assert engine.t[i] == target
        assert engine.S[:len(REGISTRY), i].tolist() == list(golden.state_at(target))
        _assert_lane_memory(engine, i, target)
        assert (engine.next_chk[i], engine.chk_iv[i]) == (target + 8, 8)


def test_memory_rows_keep_the_last_write_per_word():
    """A word written several times inside one replayed span holds its
    last value, whether rows are rebuilt together or one at a time."""
    golden = GoldenTrace.__new__(GoldenTrace)
    golden.mem_words = 8
    initial = [100 + i for i in range(8)]
    golden._initial_image = np.array(initial, dtype=np.uint32)
    log = [(1, 3, 7), (1, 3, 8), (2, 5, 1), (2, 3, 9), (3, 3, 10),
           (3, 5, 2), (3, 5, 3)]
    # Long spans that write the same three words over and over.
    log += [(4 + k // 8, k % 3, 1000 + k) for k in range(96)]
    golden.reindex_write_log(log)
    cycles = [0, 1, 2, 3, 4, 9, 100]
    out = np.zeros((len(cycles) + 2, 8), dtype=np.uint32)
    rows = np.arange(len(cycles)) + 2
    golden.memory_rows_at(cycles, out, rows)
    for row, cycle in zip(rows, cycles):
        want = replay_memory(golden, cycle, initial)
        assert out[row].tolist() == want
        single = np.zeros((1, 8), dtype=np.int64)
        assert golden.memory_rows_at([cycle], single, [0])[0].tolist() == want
    assert out[:2].tolist() == [[0] * 8] * 2
    assert out[rows[4]].tolist()[3] == 10 and out[rows[4]].tolist()[5] == 3


@needs_cext
def test_seed_many_respects_batch_room(ttsprk_golden):
    """Refill takes exactly ``batch - n`` faults, leaving the rest queued."""
    golden = ttsprk_golden
    faults = [Fault(FlopRef("pc", seq % 32), FaultKind.SOFT, 10 + seq)
              for seq in range(10)]
    engine = BatchInjectionEngine(golden, batch=4)
    engine._load(FaultColumns.from_faults(faults))
    engine._start = np.arange(10, 20, dtype=np.int64)
    engine._end = np.full(10, golden.n_cycles, dtype=np.int64)
    rest = engine._seed_many(np.arange(10))
    assert engine._n == 4
    assert rest.tolist() == list(range(4, 10))  # queue order preserved


@needs_cext
def test_compact_last_lane_only():
    """Retiring the final live lane is a pure shrink, no column moves."""
    engine = BatchInjectionEngine(GoldenTrace.cached(KERNELS["ttsprk"]),
                                  batch=2)
    engine._n = 2
    engine.S[:, 0] = 7
    engine.S[:, 1] = 9
    engine.seq[:2] = [5, 6]
    engine._compact([1])
    assert engine._n == 1
    assert int(engine.S[0, 0]) == 7
    assert engine.seq[0] == 5


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
