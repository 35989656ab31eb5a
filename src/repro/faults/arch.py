"""Two-tier golden traces: architectural tier + flop-accurate tier.

The flop-accurate :class:`~repro.faults.golden.GoldenTrace` is the
single source of truth for injection outcomes, but it is expensive to
produce: the full pipeline is simulated with def/use access tracing
attached and every cycle's flop snapshot is recorded.  This module adds
a *cheap* architectural tier on top of it:

* :class:`ArchTrace` replays the same workload on the single-step ISA
  reference model (:class:`repro.verify.refmodel.RefModel`) — no
  pipeline, no snapshots, no liveness tracing.  Producing it is roughly
  an order of magnitude cheaper than the flop-accurate trace (measured
  ~6-12x across the kernel suite, see ``bench_engine_throughput.py``).
  Besides the architectural OUT/retire streams it records triage
  metadata: the executed-word footprint and which architectural
  registers the program can ever read or write.

* :class:`TieredGolden` wires the two tiers together for the campaign:
  tier 1 is built eagerly (cheap), tier 2 — the flop-accurate trace —
  is built or mmap-loaded lazily, only when a fault actually needs flop
  data.  Fault *scheduling* needs nothing but ``n_cycles``, which is
  peeked from the trace-cache header (:func:`peek_cached_n_cycles`)
  without touching the matrices, so a warm-cache worker defers the full
  trace until the first injection.

* :meth:`ArchTrace.cross_check` validates a flop-accurate trace against
  the architectural tier (OUT stream equality, retire/cycle-count
  sanity).  Every tier-2 trace a :class:`TieredGolden` hands out is
  cross-checked first, so a corrupt cache file or a pipeline/trace
  regression is caught for ~a tenth of the cost of re-simulating it —
  the paper's safety-critical setting makes "trust the golden core"
  exactly the assumption worth guarding.

Why the architectural tier does **not** prune faults
----------------------------------------------------

An obvious-looking optimisation is to skip register-file faults whose
architectural register is never read by any executed instruction.  It
is unsound at flop level: the pipeline fetches down wrong paths and the
register file is indexed by whatever bits the speculatively fetched
word carries in its ra/rb fields, so a flop can be *read by the
pipeline* (and reach a port) in cycles where no architecturally
executed instruction reads it.  The flop-level liveness masks recorded
in the golden trace capture exactly those reads; the architectural
read-set is an under-approximation and must not gate outcomes.  Tier 1
therefore only schedules, validates and annotates — every outcome
decision stays with tier-2 data, which is what keeps batch/scalar
digests bit-identical.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from ..cpu import isa
from ..cpu.assembler import assemble
from ..cpu.memory import InputStream, Memory
from ..verify.refmodel import RefModel
from ..workloads.kernels import DEFAULT_SEED, Workload
from .campaign import CAMPAIGN_SCHEMA_VERSION
from .golden import CAMPAIGN_MEM_WORDS, GoldenTrace, golden_cache_path

#: ``port_matrix`` column indices of the OUT port pair (see
#: ``Cpu.step``'s return tuple): the latched OUT value and the toggle
#: strobe an external actuator latch samples.
_IO_OUT_COL = 10
_IO_OUT_V_COL = 11

#: OUT values whose strobe toggle may fall past the end of the recorded
#: trace (in-flight when HALT committed) — bounds the allowed prefix gap
#: in :meth:`ArchTrace.cross_check`.
_PIPELINE_DEPTH = 4


class ArchTrace:
    """Architectural (ISA-level) golden record of one workload kernel.

    Attributes:
        workload / seed / mem_words: identity, matching
            :class:`~repro.faults.golden.GoldenTrace`.
        n_steps: architecturally executed instructions until HALT.
        outputs: the OUT-port value stream.
        retires: ordered ``(pc, value, rd, wen)`` retire records.
        executed_words: set of executed memory word indices (the
            instruction footprint, wrong-path fetches excluded).
        reg_reads / reg_writes: 16-bit masks of architectural registers
            any executed instruction *names* in a source / destination
            field (r0 excluded from reads — it is hardwired zero).
        model: the finished :class:`RefModel` (final state, counters).
    """

    def __init__(self, workload: Workload, seed: int = DEFAULT_SEED,
                 max_steps: int = 1_000_000,
                 mem_words: int = CAMPAIGN_MEM_WORDS):
        self.workload = workload
        self.seed = seed
        self.mem_words = mem_words
        program = assemble(workload.source)
        mem = Memory(mem_words)
        mem.words[: len(program.words)] = program.words
        ref = RefModel(mem, InputStream(workload.stimulus(seed)),
                       entry=program.entry)

        executed: set[int] = set()
        # word -> (ra|rb read mask, rd write mask); kernels execute the
        # same few hundred words many times, so decode each word once.
        fields: dict[int, tuple[int, int]] = {}
        reads = writes = 0
        step = ref.step
        while not ref.halted and ref.n_steps < max_steps:
            pc = ref.pc
            idx = (pc >> 2) % mem_words
            executed.add(idx)
            word = mem.words[idx]
            masks = fields.get(word)
            if masks is None:
                if isa.is_legal(word):
                    ins = isa.decode(word)
                    masks = ((1 << ins.ra) | (1 << ins.rb),
                             (1 << ins.rd) if ins.rd else 0)
                else:
                    masks = (0, 0)
                fields[word] = masks
            reads |= masks[0]
            writes |= masks[1]
            if not step():
                break
        if not ref.halted:
            raise RuntimeError(
                f"architectural run of {workload.name!r} did not halt "
                f"in {max_steps} steps")

        self.model = ref
        self.n_steps = ref.n_steps
        self.outputs: list[int] = list(ref.outputs)
        self.retires = list(ref.retires)
        self.executed_words = executed
        self.reg_reads = reads & ~1
        self.reg_writes = writes

    # -- validation ----------------------------------------------------------

    def cross_check(self, golden: GoldenTrace) -> list[str]:
        """Validate a flop-accurate trace against this architectural one.

        Returns a list of human-readable problems (empty = consistent).
        Checks are chosen to be strong against the realistic failure
        modes — a corrupt/stale cache file, a pipeline regression, a
        trace recorded under different stimulus — while staying
        independent of micro-architectural timing:

        * the strobe-sampled OUT stream recovered from the port matrix
          must equal the architectural OUT stream value-for-value;
        * the pipeline cannot retire more instructions than cycles
          (``n_steps <= n_cycles``);
        * identity fields (workload, seed, memory size) must agree.
        """
        problems: list[str] = []
        if golden.workload.name != self.workload.name:
            problems.append(f"workload mismatch: golden traced "
                            f"{golden.workload.name!r}, arch traced "
                            f"{self.workload.name!r}")
        if golden.seed != self.seed or golden.mem_words != self.mem_words:
            problems.append(
                f"identity mismatch: golden (seed={golden.seed}, "
                f"mem={golden.mem_words}) vs arch (seed={self.seed}, "
                f"mem={self.mem_words})")
        if problems:  # streams of different runs are incomparable
            return problems

        if self.n_steps > golden.n_cycles:
            problems.append(
                f"{self.n_steps} architectural steps exceed "
                f"{golden.n_cycles} pipeline cycles")

        # Port rows hold pre-step state, so an OUT executed in cycle t
        # shows as a strobe toggle between rows t and t+1.  The trace
        # ends at the cycle HALT commits, so OUTs still in flight during
        # the final cycles toggle after the last recorded row: the
        # recovered stream may be short by up to a pipeline's worth of
        # trailing values, and is compared as a prefix.
        strobe = golden.port_matrix[:, _IO_OUT_V_COL]
        toggles = np.nonzero(strobe[1:] != strobe[:-1])[0] + 1
        pipeline_out = [int(v) for v in
                        golden.port_matrix[toggles, _IO_OUT_COL]]
        missing = len(self.outputs) - len(pipeline_out)
        if not 0 <= missing <= _PIPELINE_DEPTH:
            problems.append(
                f"OUT stream length mismatch: pipeline trace recovered "
                f"{len(pipeline_out)} values, arch produced "
                f"{len(self.outputs)}")
        else:
            for i, (p, a) in enumerate(zip(pipeline_out, self.outputs)):
                if p != a:
                    problems.append(f"OUT stream mismatch (first diff at "
                                    f"#{i}: pipeline {p} != arch {a})")
                    break
        return problems


def peek_cached_n_cycles(workload: Workload, seed: int = DEFAULT_SEED,
                         mem_words: int = CAMPAIGN_MEM_WORDS,
                         cache_dir: Path | str | None = None) -> int | None:
    """Read ``n_cycles`` from a cached trace header without the matrices.

    Loads only the tiny ``meta`` array of the npz (the matrix entries
    stay untouched on disk), validating the same identity fields as
    :meth:`GoldenTrace._load_cached`.  Returns None when there is no
    usable cache entry — callers then fall back to building tier 2.
    """
    path = golden_cache_path(workload, seed, mem_words, cache_dir)
    if path is None or not path.exists():
        return None
    try:
        with np.load(path, mmap_mode="r", allow_pickle=False) as data:
            meta = data["meta"]
            if meta.shape != (6,):
                raise ValueError(f"bad meta shape {meta.shape}")
            schema, n_cycles, cached_mem, _, _, cached_seed = (
                int(v) for v in meta)
            if (schema != CAMPAIGN_SCHEMA_VERSION or cached_mem != mem_words
                    or cached_seed != seed or n_cycles <= 0):
                return None
            return n_cycles
    except Exception as exc:
        warnings.warn(f"could not peek golden-trace cache {path}: {exc}",
                      RuntimeWarning, stacklevel=2)
        return None


class TieredGolden:
    """Two-tier golden-trace handle for one (workload, seed).

    Tier 1 (:attr:`arch`) is cheap and built on first use; tier 2
    (:attr:`full`) is the flop-accurate trace, built or cache-loaded
    lazily and cross-checked against tier 1 before it is handed out.
    ``n_cycles`` — all that fault *scheduling* needs — is answered from
    the cache header when possible, so a shard defers the full trace
    until its first injection.

    ``tier_loads`` counts how often each tier was materialised; the
    campaign surfaces it in ``CampaignResult.meta`` (it is bookkeeping,
    never part of the digest).
    """

    def __init__(self, workload: Workload, seed: int = DEFAULT_SEED,
                 mem_words: int = CAMPAIGN_MEM_WORDS,
                 cross_check: bool = True,
                 cache_dir: Path | str | None = None):
        self.workload = workload
        self.seed = seed
        self.mem_words = mem_words
        self.cache_dir = cache_dir
        self._cross_check = cross_check
        self._arch: ArchTrace | None = None
        self._full: GoldenTrace | None = None
        self.tier_loads = {"arch": 0, "full": 0, "n_cycles_peeks": 0}

    @property
    def arch(self) -> ArchTrace:
        """The architectural tier (built on first access)."""
        if self._arch is None:
            self._arch = ArchTrace(self.workload, self.seed,
                                   mem_words=self.mem_words)
            self.tier_loads["arch"] += 1
        return self._arch

    @property
    def full(self) -> GoldenTrace:
        """The flop-accurate tier, cross-checked against tier 1.

        A cached trace that fails the cross-check is discarded and
        simulated afresh, so a corrupt cache file costs time, never the
        answer; a fresh trace that fails it is a pipeline regression
        and raises.
        """
        if self._full is None:
            trace = self._load_full()
            if self._cross_check and self.arch.cross_check(trace):
                path = golden_cache_path(self.workload, self.seed,
                                         self.mem_words, self.cache_dir)
                if path is not None:
                    warnings.warn(
                        f"golden-trace cache {path} failed the "
                        f"architectural cross-check; re-simulating",
                        RuntimeWarning, stacklevel=2)
                    # missing_ok: a concurrent worker may have removed
                    # the same corrupt file first.
                    path.unlink(missing_ok=True)
                    trace = self._load_full()
                problems = self.arch.cross_check(trace)
                if problems:
                    raise RuntimeError(
                        f"golden trace for {self.workload.name!r} failed "
                        f"architectural cross-check: " + "; ".join(problems))
            self._full = trace
            self.tier_loads["full"] += 1
        return self._full

    def _load_full(self) -> GoldenTrace:
        return GoldenTrace.cached(self.workload, self.seed,
                                  mem_words=self.mem_words,
                                  cache_dir=self.cache_dir)

    @property
    def n_cycles(self) -> int:
        """Trace length, answered without tier 2 when the cache allows."""
        if self._full is not None:
            return self._full.n_cycles
        hint = peek_cached_n_cycles(self.workload, self.seed,
                                    self.mem_words, self.cache_dir)
        if hint is not None:
            self.tier_loads["n_cycles_peeks"] += 1
            return hint
        return self.full.n_cycles
