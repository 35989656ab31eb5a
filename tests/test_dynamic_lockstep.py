"""Dynamic lockstep: mode schedules, fault-fuzz gating, shadow replay.

The load-bearing assertions: a :class:`ModeSchedule` is a gapless
window cover whose beyond-horizon default is the *safe* mode (locked),
the 100%-duty dynamic session is record-identical to classic
always-locked DMR (Hypothesis property over seeds), and — by replaying
the faulty core raw — every dynamic detection happens at exactly the
first *locked* cycle with divergent ports while masked/escaped faults
never showed divergence on a compared cycle (escapes only ever slip
through split windows).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import Cpu, InputStream, Memory
from repro.cpu.assembler import assemble as _assemble
from repro.faults.injector import FaultDriver
from repro.lockstep.dynamic import (
    CHECK,
    LOCKED,
    SPLIT,
    ModeSchedule,
    ModeWindow,
    sample_schedule,
)
from repro.verify.faultfuzz import (
    FUZZ_MEM_WORDS,
    run_faultfuzz,
    sample_faults,
    sample_mode_schedule,
)
from repro.verify.progen import generate_program

DYN = dict(programs=10, seed=0, faults_per_program=3,
           lockstep_mode="dynamic", duty=0.4)


@pytest.fixture(scope="module")
def dyn_session():
    return run_faultfuzz(**DYN)


# ---------------------------------------------------------------------------
# ModeSchedule mechanics.
# ---------------------------------------------------------------------------

class TestModeSchedule:
    def test_rejects_gaps_and_overlaps(self):
        with pytest.raises(ValueError):
            ModeSchedule([ModeWindow(0, 10, LOCKED), ModeWindow(12, 5, SPLIT)])
        with pytest.raises(ValueError):
            ModeSchedule([ModeWindow(0, 10, LOCKED), ModeWindow(8, 5, SPLIT)])

    def test_window_lookup(self):
        s = ModeSchedule([ModeWindow(0, 10, LOCKED), ModeWindow(10, 20, SPLIT),
                          ModeWindow(30, 5, CHECK)])
        assert s.horizon == 35
        assert s.window_at(0).kind == LOCKED
        assert s.window_at(9).kind == LOCKED
        assert s.window_at(10).kind == SPLIT
        assert s.window_at(31).kind == CHECK
        assert s.window_at(35) is None

    def test_beyond_horizon_is_locked(self):
        # A core running past its schedule falls back to the safe mode.
        s = ModeSchedule([ModeWindow(0, 10, SPLIT)])
        assert not s.locked_at(5)
        assert s.locked_at(10)
        assert s.locked_at(10_000)

    def test_check_windows_count_as_locked(self):
        s = ModeSchedule([ModeWindow(0, 4, SPLIT), ModeWindow(4, 2, CHECK),
                          ModeWindow(6, 4, SPLIT)])
        assert s.locked_at(4) and s.locked_at(5)
        assert s.locked_cycles() == 2
        assert s.duty == pytest.approx(0.2)

    def test_always_locked_degenerate(self):
        s = ModeSchedule.always_locked()
        assert s.horizon == 0
        assert s.duty == 1.0
        assert s.locked_at(0) and s.locked_at(999)


# ---------------------------------------------------------------------------
# Seeded schedule sampling.
# ---------------------------------------------------------------------------

class TestSampleSchedule:
    @given(seed=st.integers(0, 2**32 - 1), n_cycles=st.integers(1, 600),
           duty=st.floats(0.05, 0.95))
    def test_structure_property(self, seed, n_cycles, duty):
        s = sample_schedule(np.random.default_rng(seed), n_cycles, duty)
        assert s.horizon == n_cycles
        assert s.windows[0].kind == LOCKED
        assert {w.kind for w in s.windows} <= {LOCKED, SPLIT, CHECK}
        # Contiguity is enforced by the constructor; duty is honest.
        assert 0.0 < s.duty <= 1.0

    def test_full_duty_degenerates_to_always_locked(self):
        s = sample_schedule(np.random.default_rng(0), 500, 1.0)
        assert s.horizon == 0 and s.duty == 1.0

    def test_rejects_bad_duty(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_schedule(rng, 100, 0.0)
        with pytest.raises(ValueError):
            sample_schedule(rng, 100, 1.5)

    def test_keyed_sampling_is_deterministic(self):
        a = sample_mode_schedule(3, 7, 400, 0.5)
        b = sample_mode_schedule(3, 7, 400, 0.5)
        assert [(w.start, w.length, w.kind) for w in a.windows] \
            == [(w.start, w.length, w.kind) for w in b.windows]
        c = sample_mode_schedule(3, 8, 400, 0.5)
        assert [(w.start, w.length, w.kind) for w in a.windows] \
            != [(w.start, w.length, w.kind) for w in c.windows]


# ---------------------------------------------------------------------------
# Fault-fuzz scenario axis.
# ---------------------------------------------------------------------------

def test_dynamic_digest_identical_for_any_worker_count(dyn_session):
    sharded = run_faultfuzz(**DYN, workers=2)
    assert sharded.digest() == dyn_session.digest()


def test_realised_duty_is_recorded(dyn_session):
    assert dyn_session.mode_duty, "dynamic session must record duties"
    assert all(0.0 < d <= 1.0 for d in dyn_session.mode_duty.values())
    assert dyn_session.meta["lockstep_mode"] == "dynamic"
    assert "dynamic duty=0.40" in dyn_session.report()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_full_duty_dynamic_is_record_identical_to_locked(seed):
    """The tested invariant behind ``duty=1.0``: switching the scenario
    axis on without lowering the duty must not move a single field of a
    single outcome."""
    base = dict(programs=2, seed=seed, faults_per_program=2)
    locked = run_faultfuzz(**base)
    dynamic = run_faultfuzz(**base, lockstep_mode="dynamic", duty=1.0)
    assert locked.outcomes == dynamic.outcomes
    assert locked.digest() == dynamic.digest()


def _replay_divergence(seed: int, program_index: int):
    """Re-run each fault of a program raw (no checker, no windows) and
    return ``{fault_index: [cycles where faulty ports != golden]}``,
    mirroring run_one_fault's loop bounds exactly."""
    from repro.verify.faultfuzz import _golden_run

    prog = generate_program(f"{seed}:{program_index}")
    program = _assemble(prog.source())
    g_ports, g_frozen, _, cycles = _golden_run(program, prog.stimulus, 30_000)
    n_g = len(g_ports)
    budget = n_g + max(n_g // 2, 256)
    out: dict[int, list[int]] = {}
    faults = sample_faults(seed, program_index, cycles,
                           DYN["faults_per_program"])
    for j, fault in enumerate(faults):
        cpu = Cpu(Memory.from_program(program, size_words=FUZZ_MEM_WORDS),
                  InputStream(prog.stimulus), entry=program.entry)
        driver = FaultDriver(fault)
        diverged = []
        t = 0
        while t < budget:
            driver.before_step(cpu, t)
            ports = cpu.step()
            if ports != (g_ports[t] if t < n_g else g_frozen):
                diverged.append(t)
            t += 1
            if cpu.halted and t >= n_g:
                break
        out[j] = diverged
    return out


def test_detection_lands_on_first_divergent_locked_cycle(dyn_session):
    """Replay ground truth: a dynamic detection fires at exactly the
    first locked cycle whose raw ports diverge, and the recorded
    first_divergence is the true first raw divergence."""
    by_program: dict[int, list] = {}
    for o in dyn_session.outcomes:
        by_program.setdefault(o.program, []).append(o)
    checked = 0
    for i, outcomes in by_program.items():
        replay = _replay_divergence(DYN["seed"], i)
        schedule = sample_mode_schedule(DYN["seed"], i,
                                        dyn_session.golden_cycles[i],
                                        DYN["duty"])
        for j, o in enumerate(outcomes):
            diverged = replay[j]
            if o.classification == "detected":
                assert o.first_divergence == diverged[0]
                expected = next(t for t in diverged if schedule.locked_at(t))
                assert o.detect_cycle == expected
                assert o.window_delay == expected - diverged[0] >= 0
                checked += 1
            else:
                # Escapes/masking under dynamic lockstep only happen
                # when no divergent cycle was ever compared.
                assert not any(schedule.locked_at(t) for t in diverged)
    assert checked, "session produced no dynamic detections to check"


def test_divergence_masked_by_split_window_is_redetected(dyn_session):
    """At least one detection must have been deferred by a split
    window (delay > 0) — otherwise the scenario axis isn't exercising
    the masked-window path at duty 0.4 — and the delay distribution is
    exposed by the report."""
    delays = dyn_session.window_delays()
    assert delays and max(delays) > 0
    assert "masked-window delay:" in dyn_session.report()
