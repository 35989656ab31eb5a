"""Shared fixtures: small programs, golden traces and a quick campaign.

Also owns the test-harness policy knobs:

* **Hypothesis profiles** — ``dev`` (default: few examples, fast edit
  loop) and ``ci`` (thorough, ``derandomize=True`` so CI draws a fixed
  deterministic example sequence).  Select with
  ``HYPOTHESIS_PROFILE=ci``; the GitHub workflow does.
* **Fuzz-artifact isolation** — an autouse session fixture points
  ``REPRO_FUZZ_ARTIFACTS`` at a per-session tmp dir, so shrunken
  repros never land in the checkout.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.cpu import Cpu, InputStream, Memory, assemble
from repro.faults import CampaignConfig, ExecPlan, GoldenTrace, run_campaign
from repro.workloads import KERNELS

settings.register_profile("dev", max_examples=25, deadline=None)
settings.register_profile("ci", max_examples=150, deadline=None,
                          derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


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
