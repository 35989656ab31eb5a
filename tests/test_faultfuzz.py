"""Fuzz under fault injection: driver semantics, determinism, classes.

The load-bearing assertions: the per-cycle fault driver matches the
campaign injector's fault semantics, a session digest is bit-identical
for any worker count, every classification is reachable and means what
it says (a detected fault has a latency and a diverged-SC set, a
masked fault's final state equals the reference, an escape's does
not), and the checker on the detection path is the *real* mutable one.
"""

from __future__ import annotations

import os

import pytest

import repro.lockstep.checker as checker_mod
from repro.cpu import Cpu, InputStream, Memory, assemble
from repro.cpu.units import FINE_UNITS, FlopRef
from repro.faults.injector import FaultDriver, flip_bit, force_bit
from repro.faults.models import Fault, FaultKind
from repro.verify.faultfuzz import run_faultfuzz, sample_faults

SMALL = dict(programs=15, seed=0, faults_per_program=3)


@pytest.fixture(scope="module")
def small_session():
    return run_faultfuzz(**SMALL)


# ---------------------------------------------------------------------------
# Single-fault perturbation primitives.
# ---------------------------------------------------------------------------

def _fresh_cpu() -> Cpu:
    program = assemble("_start:\n    nop\n    nop\n    halt\n")
    return Cpu(Memory.from_program(program, size_words=64), InputStream([0]))


def test_flip_and_force_bit():
    cpu = _fresh_cpu()
    cpu.__dict__["rf5"] = 0b1010
    flip_bit(cpu, "rf5", 0)
    assert cpu.rf5 == 0b1011
    flip_bit(cpu, "rf5", 0)
    assert cpu.rf5 == 0b1010
    force_bit(cpu, "rf5", 3, 0)
    assert cpu.rf5 == 0b0010
    force_bit(cpu, "rf5", 6, 1)
    assert cpu.rf5 == 0b1000010


def test_fault_driver_soft_fires_once():
    flop = FlopRef("rf5", 2)
    driver = FaultDriver(Fault(flop, FaultKind.SOFT, cycle=3))
    cpu = _fresh_cpu()
    cpu.__dict__["rf5"] = 0
    for cycle in range(6):
        driver.before_step(cpu, cycle)
        # No step: isolate the driver's writes.
    # Exactly one flip, at cycle 3; later cycles must not re-flip.
    assert cpu.rf5 == 0b100


def test_fault_driver_stuck_holds_every_cycle():
    flop = FlopRef("rf5", 1)
    driver = FaultDriver(Fault(flop, FaultKind.STUCK0, cycle=2))
    cpu = _fresh_cpu()
    for cycle in range(5):
        cpu.__dict__["rf5"] = 0xF     # the core rewrites the flop...
        driver.before_step(cpu, cycle)
        if cycle >= 2:                    # ...the defect forces it back
            assert cpu.rf5 == 0xD
        else:
            assert cpu.rf5 == 0xF


# ---------------------------------------------------------------------------
# Schedule sampling.
# ---------------------------------------------------------------------------

def test_sample_faults_is_keyed_not_sequential():
    a = sample_faults(7, 3, 1000, 5)
    b = sample_faults(7, 3, 1000, 5)
    assert a == b
    assert sample_faults(7, 4, 1000, 5) != a
    assert sample_faults(8, 3, 1000, 5) != a


def test_sample_faults_stratifies_units():
    faults = sample_faults(0, 0, 500, len(FINE_UNITS))
    # One round of the round-robin touches every fine unit exactly once.
    units = {f.flop.unit for f in faults}
    assert units == set(FINE_UNITS)
    assert all(0 <= f.cycle < 500 for f in faults)


# ---------------------------------------------------------------------------
# Session-level behaviour.
# ---------------------------------------------------------------------------

def test_session_classifies_every_fault(small_session):
    r = small_session
    assert r.n_faults == 3 * (r.programs - len(r.ref_mismatches))
    kinds = {"detected", "masked", "escape", "hung"}
    assert {o.classification for o in r.outcomes} <= kinds
    total = sum(r.count(k) for k in kinds)
    assert total == r.n_faults
    # A healthy pipeline: no fault-free program mismatches the ISA model.
    assert r.ref_mismatches == []


def test_detected_faults_carry_latency_and_dsr(small_session):
    detected = [o for o in small_session.outcomes
                if o.classification == "detected"]
    assert detected, "session too small to detect anything?"
    for o in detected:
        assert o.detect_cycle is not None
        assert o.latency is not None and o.latency >= 0
        assert o.diverged, "detection must freeze a non-empty DSR"
    summary = small_session.latency_summary()
    assert summary, "no latency distribution recorded"
    for stats in summary.values():
        assert stats["p50"] <= stats["p95"] <= stats["max"]


def test_masked_and_escape_semantics(small_session):
    for o in small_session.outcomes:
        if o.classification == "masked":
            assert o.escape_detail == ""
            assert o.detect_cycle is None
        elif o.classification == "escape":
            assert o.escape_detail, "an escape names the corrupted state"
            assert o.detect_cycle is None


def test_report_renders(small_session):
    text = small_session.report()
    assert "escape rate" in text
    assert "digest:" in text


def test_digest_deterministic_across_runs_and_workers(small_session):
    again = run_faultfuzz(**SMALL)
    assert again.digest() == small_session.digest()
    sharded = run_faultfuzz(**SMALL, workers=2)
    assert sharded.digest() == small_session.digest()
    # And the merge preserved global program order.
    order = [o.program for o in sharded.outcomes]
    assert order == sorted(order)


def test_all_workers_means_usable_cpus(monkeypatch):
    """``workers=0`` counts the CPUs this process may run on, not the
    host's: pinned to one CPU of a 16-CPU host, the session runs
    inline."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    report = run_faultfuzz(programs=2, seed=0, faults_per_program=1,
                           workers=0)
    assert report.meta["workers"] == 1


def test_negative_workers_rejected():
    """A negative worker count is an error, not one worker."""
    with pytest.raises(ValueError, match="^workers must be >= 0"):
        run_faultfuzz(programs=2, seed=0, workers=-3)


def test_digest_covers_outcome_fields(small_session):
    import dataclasses

    from repro.verify.faultfuzz import FaultFuzzReport

    outcomes = list(small_session.outcomes)
    flipped = dataclasses.replace(outcomes[0],
                                  inject_cycle=outcomes[0].inject_cycle + 1)
    other = FaultFuzzReport(
        programs=small_session.programs, seed=small_session.seed,
        outcomes=[flipped] + outcomes[1:],
        golden_cycles=small_session.golden_cycles)
    assert other.digest() != small_session.digest()


# ---------------------------------------------------------------------------
# The detection path runs the real (mutable) checker.
# ---------------------------------------------------------------------------

def test_faultfuzz_goes_through_checker_hook(monkeypatch):
    """A blinded ``port_equal`` must change outcomes — proving the
    session's comparisons flow through the mutable checker hook rather
    than a private tuple compare."""
    baseline = run_faultfuzz(programs=8, seed=1, faults_per_program=3)
    monkeypatch.setattr(checker_mod, "port_equal", lambda a, b: True)
    blinded = run_faultfuzz(programs=8, seed=1, faults_per_program=3)
    assert blinded.count("detected") == 0
    assert baseline.count("detected") > 0
    assert blinded.digest() != baseline.digest()
