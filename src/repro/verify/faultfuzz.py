"""Fuzz under fault injection: lockstep detection strength on random programs.

The campaign layer (:mod:`repro.faults`) characterises the lockstep
checker on ten fixed AutoBench-style kernels.  This module drives the
same compact-port detection path with the PR 3 constrained-random
program generator, so detection latency, masking and — critically —
*escapes* are measured over a far wider behavioural space:

* one fault-free **golden run** per program records the compact port
  tuple of every cycle plus the final architectural state;
* each sampled fault re-runs only the *faulty* core from reset, with a
  :class:`repro.faults.injector.FaultDriver` perturbing it in the time
  domain, while the real :class:`repro.lockstep.checker.LockstepChecker`
  compares it against the recorded golden ports cycle by cycle —
  behaviourally a DMR pair with the fault in one core (after the golden
  core halts its ports freeze, exactly like a halted core's
  ``step()``);
* every fault is classified: **detected** (checker latched; the
  observable-divergence latency and diverged-SC set are recorded),
  **masked** (both halt, no error, and the faulty core's final
  architectural state + effective memory equal the
  :class:`~repro.verify.refmodel.RefModel`'s), **escape** (no error but
  the final state differs from the reference — silent architectural
  corruption the compact-port checker never flags), or **hung** (the
  faulty core missed the cycle budget without ever diverging at the
  ports).

Escapes are judged against the *reference model*, not the golden
pipeline, so a latent pipeline bug cannot silently re-baseline the
corruption check; programs whose fault-free run itself mismatches the
reference (a genuine cosim bug) are excluded from injection and
surfaced in the report.

Beyond the DMR pair, two scenario axes cover the deployment regimes
the paper's predictor claims must survive:

* **Voted triples** (``cores=3``, MMR/TMR): the perturbed core is
  planted at a seeded slot of a 3-core group whose other slots replay
  the golden recording, and every cycle flows through the real
  :class:`~repro.lockstep.checker.VotingChecker` — each detection
  additionally records the voter's erring-CPU attribution (and whether
  it named the planted core) and whether the voted value matched the
  golden ports (the forward-recovery correctness signal).
* **Dynamic lockstep** (``lockstep_mode="dynamic"``): a seeded
  :class:`~repro.lockstep.dynamic.ModeSchedule` switches the group
  between split (no comparison) and locked windows, with FlexStep-style
  on-demand check windows embedded in split spans.  A shadow comparison
  records the first observable divergence, so every detection carries
  its masked-window delay (detection minus first divergence) and
  escapes grow as the comparison duty cycle drops — the measurement
  the harness exists to make.

Determinism: program ``i`` derives its generator stream from
``f"{seed}:{i}"`` (identical to plain ``run_fuzz``), its fault
schedule from ``SeedSequence(seed, spawn_key=(FAULT_STREAM, i))``, the
faulty-core slots from ``TMR_SLOT_STREAM`` and the mode schedule from
``MODE_STREAM`` (see :mod:`repro.faults.streams`) — keyed, not
sequential, so results are bit-identical for any worker count or shard
size in every (cores, mode) configuration
(:func:`FaultFuzzReport.digest` asserts it in CI).
Fault sampling is stratified per fine unit: consecutive faults of a
program walk the 13-unit taxonomy round-robin from a random offset, so
every unit attracts injections even in short sessions.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..cpu.core import NUM_SCS, Cpu
from ..cpu.memory import InputStream, Memory
from ..cpu.units import FINE_UNITS, FlopRef, flops_of_unit
from ..faults.injector import FaultDriver
from ..faults.models import Fault, FaultKind
from ..faults.streams import FAULT_STREAM, MODE_STREAM, TMR_SLOT_STREAM
from ..lockstep.categories import expand_ports
from ..lockstep.checker import LockstepChecker, VotingChecker
from ..lockstep.dynamic import CHECK, ModeSchedule, sample_schedule
from .diff import DEFAULT_MAX_CYCLES, effective_memory
from .progen import FUZZ_MEM_WORDS, generate_program
from .refmodel import RefModel

#: Supported lockstep comparison regimes.
LOCKSTEP_MODES = ("locked", "dynamic")

#: Per-unit flop lists, precomputed once (FlopRef construction is
#: validation-heavy and the sampler only needs indexable pools).
_UNIT_FLOPS: dict[str, tuple[FlopRef, ...]] = {
    unit: tuple(flops_of_unit(unit, fine=True)) for unit in FINE_UNITS
}

_KIND_BY_ROLL = (FaultKind.SOFT, FaultKind.SOFT, FaultKind.STUCK0,
                 FaultKind.STUCK1)


@dataclass(frozen=True)
class FaultOutcome:
    """Verdict of one fault injected into one fuzzed program."""

    program: int                #: program index within the session
    flop: FlopRef
    kind: FaultKind
    inject_cycle: int
    #: "detected" | "masked" | "escape" | "hung"
    classification: str
    detect_cycle: int | None = None
    diverged: frozenset[int] = frozenset()
    #: first architectural key (or memory word) that differs on escape.
    escape_detail: str = ""
    #: slot of the perturbed core within the redundant group (1 in DMR).
    faulty_core: int = 1
    #: the voter's erring-CPU verdict (voted mode, detected faults only).
    erring_cpu: int | None = None
    #: did the voter's resolved value equal the golden ports on the
    #: error cycle?  (voted mode, detected faults only — the value
    #: forward recovery would restore.)
    vote_golden: bool | None = None
    #: first cycle the faulty core's raw ports diverged from golden
    #: (dynamic mode: shadow comparison; locked mode: == detect_cycle
    #: for detected faults, None otherwise).
    first_divergence: int | None = None
    #: window kind of the detection cycle in dynamic mode
    #: ("locked" | "check"; "" outside dynamic mode / undetected).
    detect_window: str = ""

    @property
    def latency(self) -> int | None:
        """Observable-divergence latency (detected faults only)."""
        if self.detect_cycle is None:
            return None
        return self.detect_cycle - self.inject_cycle

    @property
    def attribution_ok(self) -> bool | None:
        """Did the voter blame the planted core?  (None outside voted
        detections.)"""
        if self.erring_cpu is None:
            return None
        return self.erring_cpu == self.faulty_core

    @property
    def window_delay(self) -> int | None:
        """Extra cycles a split window hid the divergence (dynamic
        detections only: detection minus first observable divergence)."""
        if (not self.detect_window or self.detect_cycle is None
                or self.first_divergence is None):
            return None
        return self.detect_cycle - self.first_divergence


@dataclass
class FaultFuzzReport:
    """Summary of a fuzz-under-fault-injection session."""

    programs: int
    seed: int
    outcomes: list[FaultOutcome]
    #: program index -> golden run length in cycles.
    golden_cycles: dict[int, int]
    #: programs whose fault-free run mismatched the reference model —
    #: genuine cosim bugs; their faults are skipped, not classified.
    ref_mismatches: list[int] = field(default_factory=list)
    #: program index -> realised comparison duty cycle (dynamic mode).
    mode_duty: dict[int, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    meta: dict = field(default_factory=dict)

    def count(self, classification: str) -> int:
        """Number of outcomes with the given classification."""
        return sum(1 for o in self.outcomes
                   if o.classification == classification)

    @property
    def n_faults(self) -> int:
        return len(self.outcomes)

    @property
    def escape_rate(self) -> float:
        """Escapes (incl. hangs) over all injected faults."""
        if not self.outcomes:
            return 0.0
        return (self.count("escape") + self.count("hung")) / len(self.outcomes)

    def latencies(self, kind: FaultKind | None = None) -> list[int]:
        """Detection latencies, optionally filtered by fault kind."""
        return [o.latency for o in self.outcomes
                if o.latency is not None and (kind is None or o.kind is kind)]

    def latency_summary(self) -> dict[str, dict[str, float]]:
        """Per-kind latency distribution: count/mean/p50/p95/max."""
        out: dict[str, dict[str, float]] = {}
        for kind in FaultKind:
            lat = self.latencies(kind)
            if not lat:
                continue
            arr = np.asarray(lat, dtype=np.int64)
            out[kind.value] = {
                "count": int(arr.size),
                "mean": float(arr.mean()),
                "p50": float(np.percentile(arr, 50)),
                "p95": float(np.percentile(arr, 95)),
                "max": int(arr.max()),
            }
        return out

    def by_unit(self) -> dict[str, dict[str, int]]:
        """Coarse unit -> classification counts."""
        table: dict[str, dict[str, int]] = {}
        for o in self.outcomes:
            row = table.setdefault(o.flop.coarse, {})
            row[o.classification] = row.get(o.classification, 0) + 1
        return table

    def attribution(self) -> dict[str, int] | None:
        """Voter erring-CPU attribution tally (voted sessions only)."""
        verdicts = [o.attribution_ok for o in self.outcomes
                    if o.attribution_ok is not None]
        if not verdicts:
            return None
        return {"correct": sum(verdicts),
                "wrong": len(verdicts) - sum(verdicts)}

    def window_delays(self) -> list[int]:
        """Masked-window delays of dynamic-mode detections (cycles a
        split window hid an already-divergent core)."""
        return [o.window_delay for o in self.outcomes
                if o.window_delay is not None]

    def digest(self) -> str:
        """Order-sensitive canonical sha256 over all outcomes.

        Identical for any worker count; the frozenset is sorted first
        (its repr is iteration-order dependent).  Covers the voted-mode
        attribution fields and the dynamic-mode shadow fields, so a
        nondeterministic voter or schedule cannot hide.
        """
        h = hashlib.sha256()
        for o in self.outcomes:
            h.update(repr((o.program, o.flop.reg, o.flop.bit, o.kind.value,
                           o.inject_cycle, o.classification, o.detect_cycle,
                           sorted(o.diverged), o.escape_detail,
                           o.faulty_core, o.erring_cpu, o.vote_golden,
                           o.first_divergence, o.detect_window)).encode())
        return h.hexdigest()

    def report(self) -> str:
        """Human-readable end-of-session summary."""
        n = max(self.n_faults, 1)
        cores = self.meta.get("cores", 2)
        mode = self.meta.get("lockstep_mode", "locked")
        regime = f"{cores}-core {'voted' if cores > 2 else 'DMR'}, {mode}"
        if mode == "dynamic" and self.mode_duty:
            realised = sum(self.mode_duty.values()) / len(self.mode_duty)
            regime += (f" duty={self.meta.get('duty', 1.0):.2f}"
                       f" (realised {realised:.2f})")
        lines = [
            f"== fault-fuzz ({regime}) ==",
            f"programs: {self.programs}  faults injected: {self.n_faults}  "
            f"golden cycles: {sum(self.golden_cycles.values())}",
            f"detected: {self.count('detected')} "
            f"({100 * self.count('detected') / n:.1f}%)  "
            f"masked: {self.count('masked')} "
            f"({100 * self.count('masked') / n:.1f}%)  "
            f"escapes: {self.count('escape')}  hung: {self.count('hung')}  "
            f"(escape rate {100 * self.escape_rate:.1f}%)",
        ]
        for kind, stats in self.latency_summary().items():
            lines.append(
                f"latency[{kind}]: n={stats['count']}  "
                f"mean={stats['mean']:.1f}  p50={stats['p50']:.0f}  "
                f"p95={stats['p95']:.0f}  max={stats['max']}")
        attribution = self.attribution()
        if attribution is not None:
            total = max(attribution["correct"] + attribution["wrong"], 1)
            lines.append(
                f"erring-CPU attribution: {attribution['correct']}/{total} "
                f"correct ({100 * attribution['correct'] / total:.1f}%)  "
                f"vote==golden: "
                f"{sum(1 for o in self.outcomes if o.vote_golden)}/{total}")
        delays = self.window_delays()
        if delays:
            arr = np.asarray(delays, dtype=np.int64)
            checks = sum(1 for o in self.outcomes if o.detect_window == CHECK)
            lines.append(
                f"masked-window delay: n={arr.size}  mean={arr.mean():.1f}  "
                f"p95={np.percentile(arr, 95):.0f}  max={arr.max()}  "
                f"(detections in on-demand check windows: {checks})")
        table = self.by_unit()
        if table:
            lines.append("per coarse unit (detected/masked/escape+hung):")
            lines.append("  " + "  ".join(
                f"{unit}={row.get('detected', 0)}/{row.get('masked', 0)}"
                f"/{row.get('escape', 0) + row.get('hung', 0)}"
                for unit, row in sorted(table.items())))
        if self.ref_mismatches:
            lines.append(f"!! {len(self.ref_mismatches)} program(s) "
                         f"mismatched the reference model fault-free: "
                         f"{self.ref_mismatches[:8]} — run `repro fuzz` to "
                         f"shrink (their faults were skipped)")
        lines.append(f"digest: {self.digest()}")
        return "\n".join(lines)


# -- fault sampling -----------------------------------------------------------

def sample_faults(seed: int, program: int, n_cycles: int,
                  faults_per_program: int) -> list[Fault]:
    """The keyed fault schedule for one program.

    Units are walked round-robin from a random offset (per-unit
    stratification); the flop, kind (soft:stuck = 2:1:1) and injection
    cycle are uniform.  Depends only on ``(seed, program, n_cycles)``,
    never on which worker draws it.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(FAULT_STREAM, program)))
    offset = int(rng.integers(len(FINE_UNITS)))
    faults = []
    for j in range(faults_per_program):
        unit = FINE_UNITS[(offset + j) % len(FINE_UNITS)]
        pool = _UNIT_FLOPS[unit]
        flop = pool[int(rng.integers(len(pool)))]
        kind = _KIND_BY_ROLL[int(rng.integers(4))]
        cycle = int(rng.integers(max(n_cycles, 1)))
        faults.append(Fault(flop, kind, cycle))
    return faults


def sample_slots(seed: int, program: int, faults_per_program: int,
                 cores: int) -> list[int]:
    """Which core of the redundant group carries each fault.

    A separate keyed stream (:data:`TMR_SLOT_STREAM`) so the fault
    schedule itself stays bit-identical to the DMR session's — the
    voted session injects *the same faults*, only the placement within
    the group varies.  DMR keeps the fixed historical slot 1.
    """
    if cores == 2:
        return [1] * faults_per_program
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(TMR_SLOT_STREAM, program)))
    return [int(rng.integers(cores)) for _ in range(faults_per_program)]


def sample_mode_schedule(seed: int, program: int, n_cycles: int,
                         duty: float) -> ModeSchedule:
    """The keyed dynamic-lockstep window schedule for one program.

    Depends only on ``(seed, program, n_cycles, duty)`` — worker-count
    invariant like every other stream.  ``duty=1.0`` degenerates to the
    always-locked schedule, making the 100%-duty dynamic session
    record-identical to the static one (tested property).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(MODE_STREAM, program)))
    return sample_schedule(rng, n_cycles, duty)


# -- one program's work -------------------------------------------------------

def _golden_run(program, stimulus: list[int], max_cycles: int):
    """Fault-free pipeline run: per-cycle ports + final state.

    Returns ``(ports, frozen, cpu, cycles)`` where ``frozen`` is the
    port tuple a halted core holds forever (what the golden side of a
    DMR pair presents once it stops while the faulty side runs on).
    """
    cpu = Cpu(Memory.from_program(program, size_words=FUZZ_MEM_WORDS),
              InputStream(stimulus), entry=program.entry)
    ports: list[tuple[int, ...]] = []
    append = ports.append
    step = cpu.step
    cycles = 0
    while not cpu.halted and cycles < max_cycles:
        append(step())
        cycles += 1
    return ports, cpu.port_state(), cpu, cycles


def run_one_fault(program, stimulus: list[int], fault: Fault,
                  g_ports: list[tuple[int, ...]],
                  g_frozen: tuple[int, ...],
                  ref_state: dict[str, int], ref_words: list[int],
                  program_index: int = 0, *,
                  budget: int | None = None,
                  cores: int = 2, faulty_slot: int | None = None,
                  schedule: ModeSchedule | None = None) -> FaultOutcome:
    """One fault against a recorded golden trace, through a real checker.

    The faulty core steps from reset with ``fault`` applied in the time
    domain; the golden side of the redundant group is the recording —
    bit-identical to stepping fault-free cores (after the golden core
    halts its ports freeze, like a halted core's ``step()``).

    * ``cores=2`` (default): a :class:`LockstepChecker` DMR pair,
      exactly the historical behaviour.
    * ``cores>=3``: a :class:`VotingChecker` group with the perturbed
      core planted at ``faulty_slot`` and the golden recording in every
      other slot; detections record the voter's erring-CPU attribution
      and whether the voted value matched golden.
    * ``schedule``: a dynamic-lockstep window schedule — the checker
      only compares on locked cycles, and a shadow raw comparison
      records the first observable divergence so detections carry
      their masked-window delay.  ``None`` = always locked.
    """
    cpu = Cpu(Memory.from_program(program, size_words=FUZZ_MEM_WORDS),
              InputStream(stimulus), entry=program.entry)
    if faulty_slot is None:
        faulty_slot = 1 if cores == 2 else cores - 1
    voted_mode = cores > 2
    checker = VotingChecker(cores) if voted_mode else LockstepChecker()
    driver = FaultDriver(fault)
    n_g = len(g_ports)
    if budget is None:
        # The faulty core may run past the golden halt (e.g. a corrupted
        # loop counter); ev_sys diverges there, so a thin margin beyond
        # the golden length is enough for detection — anything still
        # undetected *and* unhalted by then has genuinely hung.
        budget = n_g + max(n_g // 2, 256)
    before = driver.before_step
    step = cpu.step
    compare = checker.compare
    # A horizon-0 schedule (duty=1.0 degenerate) IS static lockstep:
    # treating it as non-dynamic makes the 100%-duty dynamic session
    # record-identical to the locked one, field for field.
    dynamic = schedule is not None and schedule.horizon > 0
    first_div: int | None = None
    t = 0
    while t < budget:
        before(cpu, t)
        out = step()
        golden = g_ports[t] if t < n_g else g_frozen
        if dynamic and first_div is None and out != golden:
            # Shadow ground truth — harness instrumentation, NOT the
            # checker hook: it must see divergence even under a
            # mutation-blinded comparator.
            first_div = t
        if not dynamic or schedule.locked_at(t):
            if voted_mode:
                group = [golden] * cores
                group[faulty_slot] = out
                latched = compare(group)
            else:
                latched = compare(golden, out)
            if latched:
                state = checker.state
                vote_golden = None
                if voted_mode and state.voted is not None:
                    want = (expand_ports(golden)
                            if len(state.voted) == NUM_SCS else golden)
                    vote_golden = state.voted == want
                window = ""
                if dynamic:
                    w = schedule.window_at(t)
                    window = w.kind if w is not None else "locked"
                return FaultOutcome(
                    program=program_index, flop=fault.flop, kind=fault.kind,
                    inject_cycle=fault.cycle, classification="detected",
                    detect_cycle=t, diverged=state.diverged,
                    faulty_core=faulty_slot, erring_cpu=state.erring_cpu,
                    vote_golden=vote_golden,
                    first_divergence=first_div if dynamic else t,
                    detect_window=window)
        t += 1
        if cpu.halted and t >= n_g:
            break
    if not cpu.halted:
        return FaultOutcome(
            program=program_index, flop=fault.flop, kind=fault.kind,
            inject_cycle=fault.cycle, classification="hung",
            faulty_core=faulty_slot, first_divergence=first_div)
    detail = _state_diff(cpu, ref_state, ref_words)
    return FaultOutcome(
        program=program_index, flop=fault.flop, kind=fault.kind,
        inject_cycle=fault.cycle,
        classification="escape" if detail else "masked",
        escape_detail=detail,
        faulty_core=faulty_slot, first_divergence=first_div)


def _state_diff(cpu: Cpu, ref_state: dict[str, int],
                ref_words: list[int]) -> str:
    """First divergence of a halted core vs the reference final state.

    Empty string when the architectural state and the effective memory
    image (undrained store-buffer entry folded in) both match — the
    fault was truly masked.
    """
    cpu_state = cpu.arch_state()
    for key, want in ref_state.items():
        if cpu_state[key] != want:
            return f"{key}: {cpu_state[key]:#x}!={want:#x}"
    words = effective_memory(cpu)
    if words != ref_words:
        for i, (have, want) in enumerate(zip(words, ref_words)):
            if have != want:
                return f"mem[{i:#x}]: {have:#010x}!={want:#010x}"
        return "mem: length mismatch"
    return ""


def _run_shard(seed: int, start: int, count: int, faults_per_program: int,
               max_cycles: int, min_blocks: int, max_blocks: int,
               cores: int = 2, lockstep_mode: str = "locked",
               duty: float = 1.0):
    """Fault-fuzz programs ``start .. start+count-1`` (one work shard)."""
    from ..cpu.assembler import assemble

    outcomes: list[FaultOutcome] = []
    golden_cycles: dict[int, int] = {}
    mismatched: list[int] = []
    mode_duty: dict[int, float] = {}
    for i in range(start, start + count):
        prog = generate_program(f"{seed}:{i}", min_blocks=min_blocks,
                                max_blocks=max_blocks)
        program = assemble(prog.source())
        g_ports, g_frozen, g_cpu, cycles = _golden_run(
            program, prog.stimulus, max_cycles)
        golden_cycles[i] = cycles

        ref = RefModel(Memory.from_program(program, size_words=FUZZ_MEM_WORDS),
                       InputStream(prog.stimulus), entry=program.entry)
        ref.run(max_steps=max_cycles)
        ref_state = ref.arch_state()
        ref_words = ref.mem.words
        if (not g_cpu.halted or not ref.halted
                or _state_diff(g_cpu, ref_state, ref_words)):
            # Fault-free pipeline disagrees with the ISA model: that is
            # a cosim finding, not fault-injection material.
            mismatched.append(i)
            continue

        schedule = None
        if lockstep_mode == "dynamic":
            schedule = sample_mode_schedule(seed, i, cycles, duty)
            mode_duty[i] = (schedule.duty if schedule.horizon else 1.0)
        slots = sample_slots(seed, i, faults_per_program, cores)
        for fault, slot in zip(
                sample_faults(seed, i, cycles, faults_per_program), slots):
            outcomes.append(run_one_fault(
                program, prog.stimulus, fault, g_ports, g_frozen,
                ref_state, ref_words, program_index=i,
                cores=cores, faulty_slot=slot, schedule=schedule))
    return start, outcomes, golden_cycles, mismatched, mode_duty


# -- session driver -----------------------------------------------------------

def run_faultfuzz(programs: int = 200, seed: int = 0, *,
                  faults_per_program: int = 3,
                  max_cycles: int = DEFAULT_MAX_CYCLES,
                  min_blocks: int = 4, max_blocks: int = 10,
                  workers: int = 1,
                  progress: bool = False,
                  cores: int = 2,
                  lockstep_mode: str = "locked",
                  duty: float = 1.0) -> FaultFuzzReport:
    """Run a fuzz-under-fault-injection session.

    ``workers > 1`` shards the program range over a process pool; the
    keyed schedules and ordered merge make results bit-identical for
    any worker count (``workers=0`` = every CPU the process may run
    on).  ``cores=3`` runs voted triples through the
    :class:`VotingChecker`;
    ``lockstep_mode="dynamic"`` gates comparison on a seeded window
    schedule targeting ``duty`` (fraction of cycles compared).
    """
    t0 = time.perf_counter()
    if cores < 2:
        raise ValueError(f"cores must be >= 2, got {cores}")
    if lockstep_mode not in LOCKSTEP_MODES:
        raise ValueError(f"lockstep_mode must be one of {LOCKSTEP_MODES}, "
                         f"got {lockstep_mode!r}")
    if not 0.0 < duty <= 1.0:
        raise ValueError(f"duty must be in (0, 1], got {duty}")
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    # Imported here: repro.faults.arch imports this package.
    from ..faults.kernels import usable_cpus

    workers = min(workers or usable_cpus(), max(programs, 1))
    chunk = max(1, -(-programs // max(1, 4 * workers)))
    shards = [(start, min(chunk, programs - start))
              for start in range(0, programs, chunk)]
    args = [(seed, start, count, faults_per_program, max_cycles,
             min_blocks, max_blocks, cores, lockstep_mode, duty)
            for start, count in shards]

    if workers == 1:
        results = [_run_shard(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_shard, *zip(*args)))

    outcomes: list[FaultOutcome] = []
    golden_cycles: dict[int, int] = {}
    mismatched: list[int] = []
    mode_duty: dict[int, float] = {}
    done = 0
    for start, shard_outcomes, shard_cycles, shard_mm, shard_duty \
            in sorted(results, key=lambda r: r[0]):
        outcomes.extend(shard_outcomes)
        golden_cycles.update(shard_cycles)
        mismatched.extend(shard_mm)
        mode_duty.update(shard_duty)
        done += len(shard_cycles)
        if progress:
            print(f"[faultfuzz] {done}/{programs} programs, "
                  f"{len(outcomes)} faults", flush=True)
    return FaultFuzzReport(
        programs=programs, seed=seed, outcomes=outcomes,
        golden_cycles=golden_cycles, ref_mismatches=sorted(mismatched),
        mode_duty=mode_duty,
        wall_seconds=time.perf_counter() - t0,
        meta={"faults_per_program": faults_per_program, "workers": workers,
              "max_cycles": max_cycles, "cores": cores,
              "lockstep_mode": lockstep_mode, "duty": duty})
