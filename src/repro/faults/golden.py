"""Golden (fault-free) reference traces.

The fault-injection engine exploits lockstep symmetry: simulating the
redundant *fault-free* core is equivalent to replaying a recorded
fault-free trace.  A golden trace therefore records, for every cycle,
the compact output-port tuple and the full flip-flop snapshot, plus a
memory write log — enough to (a) start a faulty core at any cycle,
(b) detect divergence against the virtual fault-free partner, and
(c) detect when a transient's effects have been fully masked.

Storage is packed: two uint32 numpy matrices (``port_matrix`` and
``state_matrix``; the datapath is 32 bits wide) are the single source
of truth, and rows become tuples only on demand (:meth:`state_at`,
:meth:`port_tuples`).  ``state_hashes`` caches each snapshot tuple's
hash so the injection engine can gate exact state comparisons behind
an integer check.

:meth:`GoldenTrace.cached` is the one way a campaign gets a trace.  It
records the run in one call of the compiled kernel (``_cstep.golden``)
when the kernel loaded, and with the Python build, ``GoldenTrace(...)``,
the specification, when it did not; the two builds give equal arrays.
Every trace it returns has passed :func:`cross_check` against the ISA
reference model.  Nothing is written to disk: each process builds its
own traces, once per (benchmark, seed) (``parallel._golden_for``).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..cpu.assembler import Program, assemble
from ..cpu.core import NUM_PORTS, Cpu
from ..cpu.memory import InputStream, Memory
from ..cpu.units import (
    FULL_WRITE_MASK,
    MASK_WORDS,
    REG_INDEX,
    REGISTRY,
    pack_register_mask,
)
from ..verify.refmodel import RefModel
from ..workloads.kernels import DEFAULT_SEED, Workload
from .kernels import N_REGS, N_ROWS, cext_module, cext_tables

_WORD_MASK = (1 << 64) - 1


def _last_occurrences(keys: np.ndarray) -> np.ndarray:
    """Index of the last occurrence of each distinct value in ``keys``."""
    _, first_of_reversed = np.unique(keys[::-1], return_index=True)
    return len(keys) - 1 - first_of_reversed


def _pack_mask_rows(rows: list[int], n: int) -> np.ndarray:
    """Python-int bitmask rows -> (n, MASK_WORDS) uint64 matrix."""
    matrix = np.empty((n, MASK_WORDS), dtype=np.uint64)
    for t, bits in enumerate(rows):
        for w in range(MASK_WORDS):
            matrix[t, w] = (bits >> (64 * w)) & _WORD_MASK
    return matrix


def _state_hashes(state_matrix: np.ndarray) -> np.ndarray:
    """``hash()`` of each row's snapshot tuple, as int64."""
    return np.fromiter(map(hash, map(tuple, state_matrix.tolist())),
                       dtype=np.int64, count=len(state_matrix))


#: Memory size used throughout the injection study.  Small enough that
#: per-experiment memory reconstruction is cheap; large enough for
#: every kernel's code, tables and data buffers.
CAMPAIGN_MEM_WORDS = 2048

#: Write-log entries between memory checkpoints.  Reconstruction cost
#: is one full-image copy plus at most this many replayed writes, so a
#: smaller stride trades checkpoint memory for faster ``memory_at``.
MEMORY_CHECKPOINT_EVERY = 512

#: ``port_matrix`` column indices of the OUT port pair (see
#: ``Cpu.step``'s return tuple): the latched OUT value and the toggle
#: strobe an external actuator latch samples.
_IO_OUT_COL = 10
_IO_OUT_V_COL = 11

#: OUT values whose strobe toggle may fall past the end of the recorded
#: trace (in-flight when HALT committed) — bounds the allowed prefix gap
#: in :func:`cross_check`.
_PIPELINE_DEPTH = 4


class LoggingMemory(Memory):
    """Memory that logs committed word values with their cycle stamp."""

    __slots__ = ("log", "now")

    def __init__(self, size_words: int):
        super().__init__(size_words)
        self.log: list[tuple[int, int, int]] = []  # (cycle, word index, value after)
        self.now = 0

    def write_word(self, byte_addr: int, value: int) -> None:
        idx = (byte_addr >> 2) % self.size
        value &= 0xFFFFFFFF
        self.words[idx] = value
        self.log.append((self.now, idx, value))

    def write_byte(self, byte_addr: int, value: int) -> None:
        idx = (byte_addr >> 2) % self.size
        shift = (byte_addr & 3) * 8
        word = (self.words[idx] & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self.words[idx] = word
        self.log.append((self.now, idx, word))


class GoldenTrace:
    """Fault-free execution record of one workload kernel.

    Attributes:
        workload: the kernel that was traced.
        program: its assembled image.
        stimulus: the replicated input stream.
        n_cycles: trace length (cycles until HALT).
        port_matrix: (n_cycles, NUM_PORTS) uint32 matrix of compact
            output-port tuples (what ``Cpu.step()`` returns).
        state_matrix: (n_cycles, n_registers) uint32 matrix of flip-flop
            snapshots; row ``t`` is the state at the *start* of cycle
            ``t``.  Also used for vectorised stuck-at activation search.
        state_hashes: per-cycle ``hash()`` of the snapshot tuple, for
            cheap re-convergence prechecks.
        read_mask / write_mask: (n_cycles, MASK_WORDS) uint64 def/use
            bitmasks over :data:`~repro.cpu.units.REGISTRY`.
        write_log: (n_writes, 3) int64 array of committed memory writes
            ``(cycle, word index, value after)``, cycle-sorted.
    """

    def __init__(self, workload: Workload, seed: int = DEFAULT_SEED,
                 max_cycles: int = 100_000, mem_words: int = CAMPAIGN_MEM_WORDS):
        """The Python build: step ``Cpu`` with an access tracer attached.

        This is the specification of every array the compiled build
        (:meth:`_compiled`) records, and the build of a process without
        the compiled kernel.
        """
        program = assemble(workload.source)
        stimulus = InputStream(workload.stimulus(seed))
        mem = LoggingMemory(mem_words)
        mem.words[: len(program.words)] = program.words
        cpu = Cpu(mem, stimulus, entry=program.entry)
        # Golden generation runs with def/use access tracing attached:
        # per cycle we record which REGISTRY flops the next-state logic
        # read (stale reads only) and wrote.  The injection hot path
        # never traces — plain-dict cores are untouched.
        tracer = cpu.start_access_trace()
        ports: list[tuple[int, ...]] = []
        states: list[tuple[int, ...]] = []
        read_rows: list[int] = []
        write_rows: list[int] = []
        t = 0
        while not cpu.halted and t < max_cycles:
            mem.now = t
            states.append(cpu.snapshot())
            tracer.arm()  # snapshot's reads above are not uses
            ports.append(cpu.step())
            read_rows.append(pack_register_mask(tracer.reads))
            write_rows.append(pack_register_mask(tracer.writes))
            t += 1
        cpu.stop_access_trace()
        if not cpu.halted:
            raise RuntimeError(
                f"golden run of {workload.name!r} did not halt in {max_cycles} cycles")
        self._attach(
            workload, seed, mem_words, program, stimulus,
            port_matrix=np.array(ports, dtype=np.uint32).reshape(t, NUM_PORTS),
            state_matrix=np.array(states, dtype=np.uint32).reshape(
                t, len(REGISTRY)),
            state_hashes=np.fromiter(map(hash, states), dtype=np.int64,
                                     count=t),
            read_mask=_pack_mask_rows(read_rows, t),
            write_mask=_pack_mask_rows(write_rows, t),
            write_log=mem.log)
        self._port_tuples = ports

    @classmethod
    def _compiled(cls, module, workload: Workload, seed: int,
                  max_cycles: int, mem_words: int) -> "GoldenTrace":
        """The trace ``cls(workload, seed, max_cycles, mem_words)`` builds,
        recorded by one ``golden()`` call of the compiled kernel
        ``module``: the kernel's own step, with each register access
        noted by the tracer's rule."""
        program = assemble(workload.source)
        stimulus = InputStream(workload.stimulus(seed))
        lane = np.zeros((N_ROWS, 1), dtype=np.uint32)
        lane[:N_REGS, 0] = Cpu(Memory(16), stimulus,
                               entry=program.entry).snapshot()
        memory = np.zeros((1, mem_words), dtype=np.uint32)
        memory[0, : len(program.words)] = program.words
        run = module.golden(lane, memory,
                            np.array(stimulus.values, dtype=np.uint32),
                            cext_tables(), max_cycles)
        if run is None:
            raise RuntimeError(
                f"golden run of {workload.name!r} did not halt in {max_cycles} cycles")
        n, states, ports, reads, writes, log = run
        state_matrix = np.frombuffer(states, dtype=np.uint32).reshape(n, N_REGS)
        trace = cls.__new__(cls)
        trace._attach(
            workload, seed, mem_words, program, stimulus,
            port_matrix=np.frombuffer(ports, dtype=np.uint32).reshape(
                n, NUM_PORTS),
            state_matrix=state_matrix,
            state_hashes=_state_hashes(state_matrix),
            read_mask=np.frombuffer(reads, dtype=np.uint64).reshape(
                n, MASK_WORDS),
            write_mask=np.frombuffer(writes, dtype=np.uint64).reshape(
                n, MASK_WORDS),
            write_log=np.frombuffer(log, dtype=np.int64).reshape(-1, 3))
        return trace

    def _attach(self, workload: Workload, seed: int, mem_words: int,
                program: Program, stimulus: InputStream, *,
                port_matrix: np.ndarray, state_matrix: np.ndarray,
                state_hashes: np.ndarray, read_mask: np.ndarray,
                write_mask: np.ndarray, write_log) -> None:
        """Set every attribute of a built trace."""
        self.workload = workload
        self.seed = seed
        self.mem_words = mem_words
        self.program = program
        self.stimulus = stimulus
        self.n_cycles = len(state_matrix)
        self.port_matrix = port_matrix
        self.state_matrix = state_matrix
        self.state_hashes = state_hashes
        self.read_mask = read_mask
        self.write_mask = write_mask
        self._initial_image = np.zeros(mem_words, dtype=np.uint32)
        self._initial_image[: len(program.words)] = program.words
        self._port_tuples: list[tuple[int, ...]] | None = None
        self._state_hash_list: list[int] | None = None
        self._liveness_cache: dict[str, tuple[np.ndarray, list[int], list[int]]] = {}
        self._active_cache: dict[tuple[str, int, int, bool], np.ndarray] = {}
        self.reindex_write_log(write_log)

    # -- row access ----------------------------------------------------------

    def state_at(self, t: int) -> tuple[int, ...]:
        """The snapshot tuple at the start of cycle ``t``."""
        return tuple(self.state_matrix[t].tolist())

    def port_tuples(self) -> list[tuple[int, ...]]:
        """All compact port tuples, materialised once and cached.

        The injection engine's per-cycle compare indexes this list —
        one upfront materialisation amortised over thousands of
        experiments beats per-access row conversion.
        """
        tuples = self._port_tuples
        if tuples is None:
            tuples = [tuple(row) for row in self.port_matrix.tolist()]
            self._port_tuples = tuples
        return tuples

    def state_hash_list(self) -> list[int]:
        """``state_hashes`` as a plain Python list (cached)."""
        hashes = self._state_hash_list
        if hashes is None:
            hashes = self.state_hashes.tolist()
            self._state_hash_list = hashes
        return hashes

    # -- the campaign's build ------------------------------------------------

    @classmethod
    def cached(cls, workload: Workload, seed: int = DEFAULT_SEED,
               max_cycles: int = 100_000,
               mem_words: int = CAMPAIGN_MEM_WORDS) -> "GoldenTrace":
        """The cross-checked trace, built afresh on every call.

        The compiled build (:meth:`_compiled`) runs when the kernel
        loaded, the Python build otherwise.  A compiled build that fails
        raises; it never falls back to the Python build.  A trace that
        fails :func:`cross_check` raises ``RuntimeError``: that is a
        pipeline regression.

        Nothing is kept here: a campaign process keeps one trace per
        (benchmark, seed) in ``parallel._golden_for``.  The name
        outlived the on-disk cache it once read because the benchmark
        tracer (``perf/trace.py``) times this method by name.
        """
        module = cext_module()
        if module is None:
            trace = cls(workload, seed, max_cycles, mem_words)
        else:
            trace = cls._compiled(module, workload, seed, max_cycles,
                                  mem_words)
        problems = cross_check(trace)
        if problems:
            raise RuntimeError(
                f"golden trace for {workload.name!r} failed the "
                f"architectural cross-check: " + "; ".join(problems))
        return trace

    # -- memory reconstruction & activation search ---------------------------

    def reindex_write_log(self, log) -> None:
        """Attach ``log`` and drop the reconstruction index.

        ``log`` holds ``(cycle, word index, value after)`` rows and must
        be cycle-sorted (which a recorded trace is by construction).
        The index is rebuilt on the next :meth:`memory_rows_at` call.
        """
        self.write_log = np.array(log, dtype=np.int64).reshape(-1, 3)
        self._mem_index: tuple | None = None

    def _memory_index(self) -> tuple[int, np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]:
        """The reconstruction index, built once on first use.

        Returns ``(stride, images, cycles, words, values)``:
        ``images[k]`` is the uint32 memory image after
        ``write_log[:k * stride]`` (the initial image, then one
        checkpoint every :data:`MEMORY_CHECKPOINT_EVERY` writes), and
        the rest are the write log's columns.
        """
        index = self._mem_index
        if index is None:
            log = self.write_log
            cycles = np.ascontiguousarray(log[:, 0])
            words = np.ascontiguousarray(log[:, 1])
            values = log[:, 2].astype(np.uint32)
            stride = MEMORY_CHECKPOINT_EVERY
            images = np.empty((len(log) // stride + 1, self.mem_words),
                              dtype=np.uint32)
            images[0] = self._initial_image
            for k in range(1, len(images)):
                span = slice((k - 1) * stride, k * stride)
                last = span.start + _last_occurrences(words[span])
                images[k] = images[k - 1]
                images[k, words[last]] = values[last]
            index = self._mem_index = (stride, images, cycles, words, values)
        return index

    def memory_at(self, cycle: int, out: Memory | None = None) -> Memory:
        """The memory image as of the start of ``cycle``: one row of
        :meth:`memory_rows_at`, as a :class:`Memory`.

        Args:
            out: optional scratch :class:`Memory` of ``mem_words`` size
                to refill and return (the scalar injection engine reuses
                one scratch memory across experiments).
        """
        row = np.empty((1, self.mem_words), dtype=np.uint32)
        self.memory_rows_at((cycle,), row, (0,))
        mem = Memory(self.mem_words) if out is None else out
        mem.words = row[0].tolist()
        return mem

    def memory_rows_at(self, cycles, out: np.ndarray, rows) -> np.ndarray:
        """Memory images at the start of each of ``cycles``, in place.

        Row ``rows[j]`` of the ``(_, mem_words)`` matrix ``out`` (rows
        must be distinct) becomes the image at ``cycles[j]``: the
        nearest preceding checkpoint plus the write-log entries past it,
        so each row costs O(image + stride) instead of O(image + whole
        log).  All rows are rebuilt at once, as one gather of checkpoint
        images and one scatter of the entries each row replays.  The
        scatter keeps only the last write per (row, word), because numpy
        does not promise the order in which one fancy assignment applies
        repeated indices.
        """
        stride, images, log_cycles, words, values = self._memory_index()
        cycles = np.asarray(cycles, dtype=np.int64)
        rows = np.asarray(rows)
        # Entries with when < cycle are committed before `cycle` starts.
        j = np.searchsorted(log_cycles, cycles, side="left")
        k = j // stride
        out[rows] = images[k]
        counts = j - k * stride
        total = int(counts.sum())
        if total:
            owner = np.repeat(rows, counts)
            # Log index of each replayed entry: its row's checkpoint
            # base plus its rank within the row's span.
            ends = np.cumsum(counts)
            entry = np.arange(total) + np.repeat(j - ends, counts)
            word = words[entry]
            last = _last_occurrences(owner * self.mem_words + word)
            out[owner[last], word[last]] = values[entry[last]]
        return out

    def _active_cycles(self, reg: str, bit: int, value: int,
                       used_only: bool) -> np.ndarray:
        """Sorted cycles where flop ``(reg, bit)`` differs from ``value``.

        With ``used_only`` the cycles are additionally restricted to
        the register's liveness use mask.  Cached: the campaign probes
        the same flop with a handful of start cycles (one per scheduled
        stuck-at fault), so one linear scan per key turns every later
        query into a binary search.
        """
        key = (reg, bit, value, used_only)
        arr = self._active_cache.get(key)
        if arr is None:
            col = self.state_matrix[:, REG_INDEX[reg]]
            active = ((col >> bit) & 1) != value
            if used_only:
                active &= self._liveness(reg)[0]
            arr = np.nonzero(active)[0].astype(np.int32)
            self._active_cache[key] = arr
        return arr

    def activation_cycle(self, reg: str, bit: int, value: int, start: int) -> int | None:
        """First cycle >= ``start`` where the golden flop differs from ``value``.

        A stuck-at fault is inert while the flop happens to hold the
        stuck value; until this cycle the faulty core is bit-identical
        to the golden core, so simulation can start here.  Returns None
        when the fault is never activated (fully masked).
        """
        hits = self._active_cycles(reg, bit, value, used_only=False)
        i = int(np.searchsorted(hits, start))
        if i == len(hits):
            return None
        return int(hits[i])

    # -- liveness queries -----------------------------------------------------

    def _liveness(self, reg: str) -> tuple[np.ndarray, list[int], list[int]]:
        """Per-cycle (use mask, use cycles, kill cycles) for ``reg``.

        ``use[t]`` is True when cycle ``t``'s next-state logic observes
        the register's start-of-cycle value: a stale read, or — for
        registers without the ``full_write`` guarantee — any write,
        since a read-modify-write merges old bits.  ``kill`` cycles are
        full writes with no stale read: the old value is dead there.
        Cached per register (the campaign revisits the same registers
        for thousands of faults).
        """
        entry = self._liveness_cache.get(reg)
        if entry is None:
            idx = REG_INDEX[reg]
            word, bitpos = divmod(idx, 64)
            one = np.uint64(1)
            shift = np.uint64(bitpos)
            reads = ((self.read_mask[:, word] >> shift) & one).astype(bool)
            writes = ((self.write_mask[:, word] >> shift) & one).astype(bool)
            if (FULL_WRITE_MASK >> idx) & 1:
                use = reads
                kill = writes & ~reads
            else:
                use = reads | writes
                kill = np.zeros(len(reads), dtype=bool)
            # Plain int lists: soft_start probes these once per fault
            # with scalar keys, where bisect beats the ~µs dispatch
            # cost of a 0-d np.searchsorted by an order of magnitude.
            entry = (use, np.nonzero(use)[0].tolist(),
                     np.nonzero(kill)[0].tolist())
            self._liveness_cache[reg] = entry
        return entry

    def soft_start(self, reg: str, start: int) -> int | None:
        """Deferred simulation start for a soft flip injected at ``start``.

        Returns the first cycle >= ``start`` at which the flipped value
        is observed, or None when the fault is provably masked — the
        register is fully overwritten before any read, or never touched
        again.  Starting the faulty core at the returned cycle (flip
        applied to the golden snapshot) is exact: in the skipped window
        the register is neither read nor written, so the real faulty
        run's state there is golden XOR flip — precisely the state we
        construct.
        """
        use, use_cycles, kill_cycles = self._liveness(reg)
        i = bisect_left(use_cycles, start)
        if i == len(use_cycles):
            return None  # never observed again: masked
        first_use = use_cycles[i]
        j = bisect_left(kill_cycles, start)
        if j < len(kill_cycles) and kill_cycles[j] < first_use:
            return None  # fully overwritten before first read: masked
        return first_use

    def first_active_use(self, reg: str, bit: int, value: int,
                         start: int) -> int | None:
        """First cycle >= ``start`` where a stuck-at fault is *observed*.

        Composes :meth:`activation_cycle` with liveness: the forced bit
        must both differ from the golden value (active) and be used that
        cycle.  Forced-but-unread stretches cannot influence anything —
        ports are registers too, and reading one counts as a use — so
        simulation can start at the returned cycle.  None when the
        stuck-at is never observed while active.
        """
        hits = self._active_cycles(reg, bit, value, used_only=True)
        i = int(np.searchsorted(hits, start))
        if i == len(hits):
            return None
        return int(hits[i])


# -- validation ----------------------------------------------------------------

def cross_check(trace: GoldenTrace) -> list[str]:
    """Validate a flop-accurate trace against the ISA reference model.

    Runs :class:`~repro.verify.refmodel.RefModel` once on the trace's
    own program, stimulus and memory size, and returns a list of
    human-readable problems (empty = consistent).  The checks are
    strong against the realistic failure mode, a pipeline regression
    in either build, while staying independent of micro-architectural
    timing:

    * the strobe-sampled OUT stream recovered from the port matrix
      must equal the architectural OUT stream value for value;
    * the pipeline cannot retire more instructions than cycles
      (``n_steps <= n_cycles``).
    """
    ref = RefModel(Memory.from_program(trace.program, trace.mem_words),
                   trace.stimulus, entry=trace.program.entry)
    # One step past the trace is enough to see it exceed the cycles.
    ref.run(trace.n_cycles + 1)
    problems: list[str] = []
    if ref.n_steps > trace.n_cycles:
        problems.append(
            f"{ref.n_steps} architectural steps exceed "
            f"{trace.n_cycles} pipeline cycles")

    # Port rows hold pre-step state, so an OUT executed in cycle t
    # shows as a strobe toggle between rows t and t+1.  The trace
    # ends at the cycle HALT commits, so OUTs still in flight during
    # the final cycles toggle after the last recorded row: the
    # recovered stream may be short by up to a pipeline's worth of
    # trailing values, and is compared as a prefix.
    strobe = trace.port_matrix[:, _IO_OUT_V_COL]
    toggles = np.nonzero(strobe[1:] != strobe[:-1])[0] + 1
    pipeline_out = trace.port_matrix[toggles, _IO_OUT_COL].tolist()
    missing = len(ref.outputs) - len(pipeline_out)
    if not 0 <= missing <= _PIPELINE_DEPTH:
        problems.append(
            f"OUT stream length mismatch: pipeline trace recovered "
            f"{len(pipeline_out)} values, arch produced "
            f"{len(ref.outputs)}")
    else:
        for i, (p, a) in enumerate(zip(pipeline_out, ref.outputs)):
            if p != a:
                problems.append(f"OUT stream mismatch (first diff at "
                                f"#{i}: pipeline {p} != arch {a})")
                break
    return problems
