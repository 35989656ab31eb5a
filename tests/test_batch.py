"""Batch injection engine: parity, seeding, wiring.

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
from repro.cpu.units import REGISTRY, FlopRef
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
from repro.faults.injector import SIMULATE, triage_fault
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

def _collapsible_pairs(golden):
    """Soft faults at ``t`` and ``t + 1`` on bit 0 of one register that
    defer to the same start, register by register, ``t`` in steps of 11."""
    for spec in REGISTRY:
        for t in range(0, golden.n_cycles - 2, 11):
            start = golden.soft_start(spec.name, t)
            if start is not None and golden.soft_start(spec.name, t + 1) == start:
                yield [Fault(FlopRef(spec.name, 0), FaultKind.SOFT, t),
                       Fault(FlopRef(spec.name, 0), FaultKind.SOFT, t + 1)]


@needs_cext
def test_equivalence_collapse_fires(ttsprk_golden):
    """Two soft faults on one (reg, bit) deferring to the same
    soft_start collapse into a single simulation, in both engines.

    Campaign-level quick-config runs always report ``equiv_hits: 0``
    — not a bug: ``soft_per_flop=1`` gives every (reg, bit) exactly
    one soft fault, so the class key (reg, bit, start) cannot collide
    (DESIGN §5.15).  This pins the mechanism itself alive with
    constructed pairs: one whose representative is masked and one whose
    representative is detected, since a hit adds its representative's
    simulated span to ``cycles_saved`` either way.
    """
    golden = ttsprk_golden
    pairs = {}
    for pair in _collapsible_pairs(golden):
        pairs.setdefault(InjectionEngine(golden).inject(pair[0]) is None, pair)
        if len(pairs) == 2:
            break
    assert len(pairs) == 2, f"collapsible pairs found: {pairs}"
    faults = pairs[True] + pairs[False]

    scalar = InjectionEngine(golden)
    expected = [scalar.inject(f) for f in faults]
    assert scalar.stats.equiv_hits == 2  # second of each pair replayed
    for batch in (1, 4):
        engine = BatchInjectionEngine(golden, batch=batch)
        assert engine.inject_all(faults) == expected
        assert engine.stats.as_dict() == scalar.stats.as_dict()
        assert engine.stats.equiv_hits == 2


# -- seeding and fast-forward around memory checkpoints ------------------------

#: Workloads whose write logs are checkpointed every few writes here, so
#: the kernel rebuilds each lane memory from a checkpoint image plus a
#: write-log span.  canrdr (62 writes) never loads what it stores, so a
#: wrong image changes none of its records; aifirf reads its delay line
#: (26 writes) back every sample, so a lane seeded with a wrong image
#: puts a wrong word on the bus and diverges.
_CHECKPOINTED = (("canrdr", 16), ("aifirf", 4))

#: The engine settings of the checkpoint tests: stuck-at windows capped
#: so that the scalar reference stays quick.
_CHECKPOINT_CFG = CampaignConfig(max_observe=600)


def _checkpointed(monkeypatch, name: str, every: int) -> GoldenTrace:
    """``name``'s golden trace with a memory checkpoint every ``every``
    writes."""
    monkeypatch.setattr(golden_mod, "MEMORY_CHECKPOINT_EVERY", every)
    golden = GoldenTrace.cached(KERNELS[name])
    assert len(golden.write_log) > 3 * every
    return golden


def _writes_before(golden, cycle: int) -> int:
    """Write-log entries committed before ``cycle`` starts."""
    return bisect_left(golden.write_log[:, 0].tolist(), cycle)


def _assert_around_checkpoints(golden, every: int, cycles) -> None:
    """``cycles`` start just before, exactly at and just after a
    checkpoint."""
    offsets = {_writes_before(golden, c) % every for c in cycles
               if _writes_before(golden, c) >= every}
    assert {every - 1, 0, 1} <= offsets, f"write-log offsets {offsets}"


def _cycles_around_checkpoints(golden, every: int) -> list[int]:
    """Cycles whose write-log prefix ends just before, exactly at and
    just after each of the first three checkpoints, plus the first and
    last cycle."""
    log_cycles = golden.write_log[:, 0].tolist()
    picks = {0, golden.n_cycles - 1}
    for j in (k * every + d for k in (1, 2, 3) for d in (-1, 0, 1)):
        # The cycle after write j - 1 starts with exactly j writes done,
        # unless write j falls in the same cycle.
        cycle = log_cycles[j - 1] + 1
        if bisect_left(log_cycles, cycle) == j:
            picks.add(cycle)
    _assert_around_checkpoints(golden, every, picks)
    return sorted(picks)


@needs_cext
@pytest.mark.parametrize("name,every", _CHECKPOINTED)
def test_compiled_seeding_matches_scalar_around_checkpoints(monkeypatch, name,
                                                            every):
    """Faults simulated from cycles before, at and just after each memory
    checkpoint give the scalar engine's records and PruneStats: the
    kernel seeds every lane with the golden state there, a soft fault's
    flip, and the memory the write log replays to."""
    golden = _checkpointed(monkeypatch, name, every)
    cfg = _CHECKPOINT_CFG
    faults = []
    for cycle in _cycles_around_checkpoints(golden, every):
        # Faults simulated from their own cycle, so seeded there: about
        # 8 of every kind, spread over the registers.
        here = [Fault(FlopRef(spec.name, bit), kind, cycle)
                for kind in FaultKind for spec in REGISTRY
                for bit in range(0, spec.width, 7)]
        here = [fault for fault in here
                if triage_fault(golden, fault, cfg.prune, cfg.max_observe)
                [::2] == (SIMULATE, cycle)]
        faults += here[::max(1, len(here) // 24)]
    assert len({f.cycle for f in faults}) > 9
    _assert_engine_parity(golden, faults, cfg)


@needs_cext
@pytest.mark.parametrize("name,every", _CHECKPOINTED)
def test_compiled_fast_forward_matches_scalar_around_checkpoints(
        monkeypatch, name, every):
    """Stuck-ats whose lanes re-converge and fast-forward to cycles
    before, at and just after a memory checkpoint give the scalar
    engine's records and PruneStats: the kernel reseeds the lane with
    the golden state and the replayed memory at the bit's next observed
    activation."""
    golden = _checkpointed(monkeypatch, name, every)
    faults = [Fault(FlopRef(spec.name, bit), kind, 0)
              for spec in REGISTRY for bit in range(0, spec.width, 3)
              for kind in (FaultKind.STUCK0, FaultKind.STUCK1)]
    # The scalar engine seeds a simulated fault with one memory_at call
    # and reseeds it with one more per fast-forward.
    seeds: list[int] = []
    memory_at = golden.memory_at
    monkeypatch.setattr(golden, "memory_at", lambda cycle, out=None: (
        seeds.append(cycle), memory_at(cycle, out))[1])
    scalar = InjectionEngine(golden, max_observe=None)
    jumps = {}
    expected = []
    for fault in faults:
        seeds.clear()
        expected.append(scalar.inject(fault))
        jumps[fault] = seeds[1:]
    _assert_around_checkpoints(golden, every,
                               [c for cycles in jumps.values() for c in cycles])
    engine = BatchInjectionEngine(golden, max_observe=None)
    assert engine.inject_all(faults) == expected
    assert engine.stats.as_dict() == scalar.stats.as_dict()
    # A jump to the last cycle of the window still simulates that cycle.
    fault, jump = next((f, cycles[0]) for f, cycles in jumps.items() if cycles)
    act = triage_fault(golden, fault)[1]
    seeds.clear()
    _assert_engine_parity(golden, [fault],
                          CampaignConfig(max_observe=jump + 1 - act))
    assert seeds[1:] == [jump]


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
