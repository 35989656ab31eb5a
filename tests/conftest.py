"""Shared fixtures: small programs, golden traces and a quick campaign.

Also owns the test-harness policy knobs:

* **Hypothesis profiles** — ``dev`` (default: few examples, fast edit
  loop) and ``ci`` (thorough, ``derandomize=True`` so CI draws a fixed
  deterministic example sequence).  Select with
  ``HYPOTHESIS_PROFILE=ci``; the GitHub workflow does.
* **Golden-trace cache isolation** — an autouse session fixture points
  ``REPRO_GOLDEN_CACHE`` at a per-session tmp dir, so running the test
  suite never writes (or reads) the repo-level ``.golden_cache/``.
* **Fuzz-artifact isolation** — likewise ``REPRO_FUZZ_ARTIFACTS`` is
  pointed at a tmp dir so shrunken repros never land in the checkout.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.cpu import Cpu, InputStream, Memory, assemble
from repro.cpu.units import REG_INDEX
from repro.faults import CampaignConfig, ExecPlan, GoldenTrace, run_campaign
from repro.faults import golden as golden_mod
from repro.faults.golden import GOLDEN_CACHE_ENV
from repro.workloads import KERNELS

settings.register_profile("dev", max_examples=25, deadline=None)
settings.register_profile("ci", max_examples=150, deadline=None,
                          derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(autouse=True, scope="session")
def _isolated_golden_cache(tmp_path_factory: pytest.TempPathFactory):
    """Keep golden-trace caching on but out of the repo checkout."""
    previous = os.environ.get(GOLDEN_CACHE_ENV)
    os.environ[GOLDEN_CACHE_ENV] = str(tmp_path_factory.mktemp("golden_cache"))
    yield
    if previous is None:
        os.environ.pop(GOLDEN_CACHE_ENV, None)
    else:
        os.environ[GOLDEN_CACHE_ENV] = previous


@pytest.fixture(autouse=True, scope="session")
def _isolated_fuzz_artifacts(tmp_path_factory: pytest.TempPathFactory):
    """Point fuzz repro dumps at a tmp dir, never the caller's cwd."""
    from repro.verify.diff import ARTIFACTS_ENV

    previous = os.environ.get(ARTIFACTS_ENV)
    os.environ[ARTIFACTS_ENV] = str(tmp_path_factory.mktemp("fuzz_artifacts"))
    yield
    if previous is None:
        os.environ.pop(ARTIFACTS_ENV, None)
    else:
        os.environ[ARTIFACTS_ENV] = previous

#: A minimal exception-safe program skeleton used across tests.
PROLOGUE = """
_start:
    jal  r0, main
.org 0x8
handler:
    csrr r1, 4
    out  r1, 7
    halt
"""

SUM_LOOP = PROLOGUE + """
main:
    addi r1, r0, 0
    addi r2, r0, 1
    addi r3, r0, 51
loop:
    add  r1, r1, r2
    addi r2, r2, 1
    bne  r2, r3, loop
    out  r1, 0
    st   r1, 0x400(r0)
    halt
"""


def corrupt_golden_cache(path: Path, kind: str = "out") -> None:
    """Damage a cached golden trace in place, every shape left valid.

    ``"out"`` flips one OUT value and re-seals the checksum, a stale but
    intact file that only the architectural cross-check catches;
    ``"header"`` lengthens the cycle count in the header; ``"mask"``
    zeroes a stretch of the read masks' first word and ``"state"`` flips
    ``rf3`` bit 4 in a stretch of state rows, both leaving the checksum
    stale.
    """
    with np.load(path) as data:
        arrays = dict(data)
    if kind == "out":
        pm = arrays["port_matrix"]
        toggle = int(np.nonzero(pm[1:, 11] != pm[:-1, 11])[0][0]) + 1
        pm[toggle, 10] ^= 2
        arrays["checksum"] = golden_mod._checksum(arrays)
    elif kind == "header":
        arrays["meta"][1] += 7
    elif kind == "mask":
        arrays["read_mask"][300:900, 0] = 0
    else:
        arrays["state_matrix"][200:1200, REG_INDEX["rf3"]] ^= 1 << 4
    np.savez(path, **arrays)


def replay_memory(golden: GoldenTrace, cycle: int,
                  initial: list[int] | None = None) -> list[int]:
    """The memory image at the start of ``cycle``, replayed from the
    whole write log over ``initial`` (default: the program image).

    The specification that ``GoldenTrace.memory_at`` and
    ``memory_rows_at`` are held to.
    """
    if initial is None:
        initial = Memory.from_program(golden.program, golden.mem_words).words
    words = list(initial)
    for when, idx, value in golden.write_log.tolist():
        if when >= cycle:
            break
        words[idx] = value
    return words


def make_cpu(source: str, stimulus: list[int] | None = None,
             mem_words: int = 2048) -> Cpu:
    """Assemble a program and wrap it in a ready-to-run core."""
    program = assemble(source)
    mem = Memory.from_program(program, size_words=mem_words)
    return Cpu(mem, InputStream(stimulus or [0]), entry=program.entry)


@pytest.fixture
def sum_cpu() -> Cpu:
    """A core loaded with the 1..50 summing loop."""
    return make_cpu(SUM_LOOP)


@pytest.fixture(scope="session")
def ttsprk_golden() -> GoldenTrace:
    """Golden trace of the tooth-to-spark kernel (session-cached)."""
    return GoldenTrace(KERNELS["ttsprk"])


@pytest.fixture(scope="session")
def quick_campaign():
    """A seconds-scale fault-injection campaign (session-cached).

    On the scalar engine (``batch=0``): it is the reference the batch
    engine's parity tests compare against.
    """
    return run_campaign(CampaignConfig.quick(), plan=ExecPlan(batch=0))


#: The configuration of :func:`medium_campaign` (also used to
#: regenerate ``tests/golden/evaluation_medium.json``).
MEDIUM_CONFIG = CampaignConfig(
    benchmarks=("ttsprk", "puwmod"),
    soft_per_flop=1,
    hard_per_flop=1,
    flop_fraction=0.12,
    max_observe=800,
)


@pytest.fixture(scope="session")
def medium_campaign():
    """A slightly larger campaign for evaluation-level tests (scalar
    engine, like :func:`quick_campaign`)."""
    return run_campaign(MEDIUM_CONFIG, plan=ExecPlan(batch=0))
