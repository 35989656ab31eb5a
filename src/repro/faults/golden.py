"""Golden (fault-free) reference traces.

The fault-injection engine exploits lockstep symmetry: simulating the
redundant *fault-free* core is equivalent to replaying a recorded
fault-free trace.  A golden trace therefore records, for every cycle,
the compact output-port tuple and the full flip-flop snapshot, plus a
memory write log — enough to (a) start a faulty core at any cycle,
(b) detect divergence against the virtual fault-free partner, and
(c) detect when a transient's effects have been fully masked.

Storage is packed: two numpy matrices (``port_matrix`` and
``state_matrix``) are the single source of truth; per-cycle Python
tuple lists are not retained.  ``ports``/``states``/``outputs`` are
on-demand row accessors that materialise tuples only when indexed.
``state_hashes`` caches each snapshot tuple's hash so the injection
engine can gate exact state comparisons behind an integer check.

Traces are also cacheable on disk (``.golden_cache/`` by default, see
:func:`golden_cache_dir`): an uncompressed ``.npz`` keyed by benchmark,
stimulus seed, memory size and the campaign schema version, loaded with
``mmap_mode="r"`` so pool workers share pages instead of re-simulating
the kernel.  Any validation failure falls back to a fresh simulation.
"""

from __future__ import annotations

import os
import warnings
from bisect import bisect_left
from pathlib import Path

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
from ..lockstep.categories import expand_ports
from ..workloads.kernels import DEFAULT_SEED, Workload
from .campaign import CAMPAIGN_SCHEMA_VERSION

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

#: Memory size used throughout the injection study.  Small enough that
#: per-experiment memory reconstruction is cheap; large enough for
#: every kernel's code, tables and data buffers.
CAMPAIGN_MEM_WORDS = 2048

#: Write-log entries between memory checkpoints.  Reconstruction cost
#: is one full-image copy plus at most this many replayed writes, so a
#: smaller stride trades checkpoint memory for faster ``memory_at``.
MEMORY_CHECKPOINT_EVERY = 512

#: Environment variable overriding the golden-trace cache directory.
#: Unset -> ``.golden_cache``; empty / ``0`` / ``off`` / ``none`` ->
#: caching disabled.
GOLDEN_CACHE_ENV = "REPRO_GOLDEN_CACHE"

DEFAULT_GOLDEN_CACHE_DIR = ".golden_cache"


def golden_cache_dir() -> Path | None:
    """Resolve the on-disk golden-trace cache directory (None = off)."""
    value = os.environ.get(GOLDEN_CACHE_ENV)
    if value is None:
        return Path(DEFAULT_GOLDEN_CACHE_DIR)
    if value.strip().lower() in ("", "0", "off", "none"):
        return None
    return Path(value)


def golden_cache_path(workload: Workload, seed: int, mem_words: int,
                      cache_dir: Path | str | None = None) -> Path | None:
    """The cache file of one trace (None when caching is off).

    ``cache_dir=None`` uses :func:`golden_cache_dir`.
    """
    directory = Path(cache_dir) if cache_dir is not None else golden_cache_dir()
    if directory is None:
        return None
    return directory / (
        f"{workload.name}_s{seed}_m{mem_words}_v{CAMPAIGN_SCHEMA_VERSION}.npz")


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


class _Rows:
    """Lazy per-cycle view of a packed trace matrix.

    Rows are materialised as tuples of Python ints only when indexed,
    so holding a trace costs two flat uint64 matrices instead of tens
    of thousands of tuple objects.  Supports ``len``, integer indexing
    (including negative) and slicing, like the lists it replaced.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray):
        self._matrix = matrix

    def __len__(self) -> int:
        return len(self._matrix)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [tuple(row) for row in self._matrix[key].tolist()]
        return tuple(self._matrix[key].tolist())

    def __iter__(self):
        return iter(self[:])


class _ExpandedRows(_Rows):
    """62-SC view of the packed port matrix, expanded per access."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [expand_ports(tuple(row)) for row in self._matrix[key].tolist()]
        return expand_ports(tuple(self._matrix[key].tolist()))


class GoldenTrace:
    """Fault-free execution record of one workload kernel.

    Attributes:
        workload: the kernel that was traced.
        program: its assembled image.
        stimulus: the replicated input stream.
        n_cycles: trace length (cycles until HALT).
        port_matrix: (n_cycles, NUM_PORTS) uint64 matrix of compact
            output-port tuples (what ``Cpu.step()`` returns).
        state_matrix: (n_cycles, n_registers) uint64 matrix of flip-flop
            snapshots; row ``t`` is the state at the *start* of cycle
            ``t``.  Also used for vectorised stuck-at activation search.
        state_hashes: per-cycle ``hash()`` of the snapshot tuple, for
            cheap re-convergence prechecks.
        ports: lazy per-cycle compact port tuples (rows of
            ``port_matrix``).
        states: lazy per-cycle snapshot tuples (rows of
            ``state_matrix``).
        outputs: lazy per-cycle 62-SC vectors (``ports`` through
            :func:`expand_ports`); kept for analysis-side consumers —
            the per-cycle comparison path never materialises these.
    """

    def __init__(self, workload: Workload, seed: int = DEFAULT_SEED,
                 max_cycles: int = 100_000, mem_words: int = CAMPAIGN_MEM_WORDS):
        self.workload = workload
        self.seed = seed
        self.mem_words = mem_words
        self.program: Program = assemble(workload.source)
        self.stimulus = InputStream(workload.stimulus(seed))
        self._initial_words = [0] * mem_words
        self._initial_words[: len(self.program.words)] = self.program.words

        mem = LoggingMemory(mem_words)
        mem.words[: len(self.program.words)] = self.program.words
        cpu = Cpu(mem, self.stimulus, entry=self.program.entry)
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
        self.n_cycles = t
        self.port_matrix = np.array(ports, dtype=np.uint64).reshape(t, NUM_PORTS)
        self.state_matrix = np.array(states, dtype=np.uint64).reshape(t, len(REGISTRY))
        self.state_hashes = np.fromiter(
            (hash(s) for s in states), dtype=np.int64, count=t)
        self.read_mask = _pack_mask_rows(read_rows, t)
        self.write_mask = _pack_mask_rows(write_rows, t)
        self._port_tuples: list[tuple[int, ...]] | None = ports
        self._state_hash_list: list[int] | None = None
        self._liveness_cache: dict[str, tuple[np.ndarray, list[int], list[int]]] = {}
        self._active_cache: dict[tuple[str, int, int, bool], np.ndarray] = {}
        self.reindex_write_log(mem.log)

    # -- row access ----------------------------------------------------------

    @property
    def ports(self) -> _Rows:
        """Lazy per-cycle compact port tuples."""
        return _Rows(self.port_matrix)

    @property
    def states(self) -> _Rows:
        """Lazy per-cycle flip-flop snapshot tuples."""
        return _Rows(self.state_matrix)

    @property
    def outputs(self) -> _ExpandedRows:
        """Lazy per-cycle 62-SC output vectors (expanded on access)."""
        return _ExpandedRows(self.port_matrix)

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

    # -- disk cache ----------------------------------------------------------

    @classmethod
    def cached(cls, workload: Workload, seed: int = DEFAULT_SEED,
               max_cycles: int = 100_000, mem_words: int = CAMPAIGN_MEM_WORDS,
               cache_dir: Path | str | None = None) -> "GoldenTrace":
        """Load the trace from the on-disk cache, simulating on miss.

        ``cache_dir=None`` uses :func:`golden_cache_dir` (which honours
        ``REPRO_GOLDEN_CACHE``); if caching is disabled this is exactly
        ``GoldenTrace(workload, seed, ...)``.  Unreadable, stale or
        mismatching cache files are discarded with a warning and the
        trace is re-simulated (and the file rewritten).
        """
        path = golden_cache_path(workload, seed, mem_words, cache_dir)
        if path is None:
            return cls(workload, seed, max_cycles, mem_words)
        if path.exists():
            trace = cls._load_cached(path, workload, seed, mem_words)
            if trace is not None:
                return trace
        trace = cls(workload, seed, max_cycles, mem_words)
        try:
            trace.save_cache(path)
        except OSError as exc:  # e.g. read-only checkout: cache is best-effort
            warnings.warn(f"could not write golden-trace cache {path}: {exc}",
                          RuntimeWarning, stacklevel=2)
        return trace

    def save_cache(self, path: Path) -> None:
        """Write this trace to ``path`` atomically (uncompressed npz)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = np.array(
            [CAMPAIGN_SCHEMA_VERSION, self.n_cycles, self.mem_words,
             len(REGISTRY), NUM_PORTS, self.seed],
            dtype=np.int64)
        write_log = np.array(self.write_log, dtype=np.uint64).reshape(-1, 3)
        stimulus = np.array(self.stimulus.values, dtype=np.uint64)
        # pid-unique temp + rename: concurrent pool workers may race to
        # populate the same entry, and a crash must not leave a torn file.
        tmp = path.with_name(f"{path.stem}.tmp{os.getpid()}.npz")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, meta=meta, port_matrix=self.port_matrix,
                         state_matrix=self.state_matrix,
                         state_hashes=self.state_hashes,
                         read_mask=self.read_mask,
                         write_mask=self.write_mask,
                         write_log=write_log, stimulus=stimulus)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()

    @classmethod
    def _load_cached(cls, path: Path, workload: Workload, seed: int,
                     mem_words: int) -> "GoldenTrace | None":
        """Load and validate a cached trace; None (plus warning) on failure."""
        program = assemble(workload.source)
        stimulus_values = workload.stimulus(seed)
        try:
            data = np.load(path, mmap_mode="r", allow_pickle=False)
            meta = data["meta"]
            if meta.shape != (6,):
                raise ValueError(f"bad meta shape {meta.shape}")
            schema, n_cycles, cached_mem, n_regs, n_ports, cached_seed = (
                int(v) for v in meta)
            if schema != CAMPAIGN_SCHEMA_VERSION:
                raise ValueError(f"schema v{schema} != v{CAMPAIGN_SCHEMA_VERSION}")
            if cached_mem != mem_words or cached_seed != seed:
                raise ValueError("mem_words/seed mismatch")
            if n_regs != len(REGISTRY) or n_ports != NUM_PORTS:
                raise ValueError("register/port schema mismatch")
            port_matrix = data["port_matrix"]
            state_matrix = data["state_matrix"]
            state_hashes = data["state_hashes"]
            write_log = data["write_log"]
            stimulus = data["stimulus"]
            if n_cycles <= 0 or port_matrix.shape != (n_cycles, NUM_PORTS):
                raise ValueError(f"bad port matrix shape {port_matrix.shape}")
            if state_matrix.shape != (n_cycles, len(REGISTRY)):
                raise ValueError(f"bad state matrix shape {state_matrix.shape}")
            if state_hashes.shape != (n_cycles,):
                raise ValueError(f"bad hash vector shape {state_hashes.shape}")
            if write_log.ndim != 2 or write_log.shape[1] != 3:
                raise ValueError(f"bad write log shape {write_log.shape}")
            # v4: per-cycle def/use masks.  Older cache files simply lack
            # the keys (KeyError lands in the same discard path).
            read_mask = data["read_mask"]
            write_mask = data["write_mask"]
            if read_mask.shape != (n_cycles, MASK_WORDS):
                raise ValueError(f"bad read mask shape {read_mask.shape}")
            if write_mask.shape != (n_cycles, MASK_WORDS):
                raise ValueError(f"bad write mask shape {write_mask.shape}")
            if stimulus.tolist() != list(stimulus_values):
                raise ValueError("stimulus stream mismatch")
            trace = cls.__new__(cls)
            trace.workload = workload
            trace.seed = seed
            trace.mem_words = mem_words
            trace.program = program
            trace.stimulus = InputStream(stimulus_values)
            trace._initial_words = [0] * mem_words
            trace._initial_words[: len(program.words)] = program.words
            trace.n_cycles = n_cycles
            trace.port_matrix = port_matrix
            trace.state_matrix = state_matrix
            trace.state_hashes = state_hashes
            trace.read_mask = read_mask
            trace.write_mask = write_mask
            trace._port_tuples = None
            trace._state_hash_list = None
            trace._liveness_cache = {}
            trace._active_cache = {}
            trace.reindex_write_log(
                [tuple(entry) for entry in write_log.tolist()])
            reset = Cpu(Memory(16), trace.stimulus,
                        entry=program.entry).snapshot()
            if trace.state_at(0) != reset:
                raise ValueError("reset-state row mismatch")
            # Tuple hashes are process-deterministic but not guaranteed
            # stable across interpreter builds; stale hashes only cost
            # performance (exact compares gate every decision), yet a
            # cheap row-0 probe lets us restore the fast path anyway.
            if hash(reset) != int(trace.state_hashes[0]):
                trace.state_hashes = np.fromiter(
                    (hash(s) for s in trace.states), dtype=np.int64,
                    count=n_cycles)
            return trace
        except Exception as exc:
            warnings.warn(
                f"discarding unusable golden-trace cache {path}: {exc}",
                RuntimeWarning, stacklevel=2)
            return None

    # -- memory reconstruction & activation search ---------------------------

    def reindex_write_log(self, log: list[tuple[int, int, int]]) -> None:
        """Attach ``log`` and rebuild the reconstruction index.

        The log must be cycle-sorted (which a recorded trace is by
        construction).  Checkpoints are rebuilt lazily on the next
        :meth:`memory_at` call.
        """
        self.write_log = log
        self._log_cycles = [entry[0] for entry in log]
        self._mem_checkpoints: list[list[int]] | None = None
        self._np_mem: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    def _checkpoints(self) -> list[list[int]]:
        """Memory images after each ``MEMORY_CHECKPOINT_EVERY`` writes.

        ``_checkpoints()[k]`` is the word array after applying
        ``write_log[:(k + 1) * MEMORY_CHECKPOINT_EVERY]``.  Built once,
        on first use, in a single pass over the log.
        """
        ckpts = self._mem_checkpoints
        if ckpts is None:
            ckpts = []
            words = list(self._initial_words)
            log = self.write_log
            stride = MEMORY_CHECKPOINT_EVERY
            for k in range(stride, len(log) + 1, stride):
                for _, idx, value in log[k - stride:k]:
                    words[idx] = value
                ckpts.append(list(words))
            self._mem_checkpoints = ckpts
        return ckpts

    def memory_at(self, cycle: int, out: Memory | None = None) -> Memory:
        """Reconstruct the memory image as of the start of ``cycle``.

        Starts from the nearest preceding checkpoint and replays only
        the delta, so reconstruction is O(image + stride) instead of
        O(image + whole log).

        Args:
            out: optional scratch :class:`Memory` of ``mem_words`` size
                to overwrite in place and return, saving the per-call
                word-list allocation (the injection engine reuses one
                scratch buffer across all experiments).
        """
        # Entries with when < cycle are committed before `cycle` starts.
        j = bisect_left(self._log_cycles, cycle)
        k = j // MEMORY_CHECKPOINT_EVERY
        if k:
            src = self._checkpoints()[k - 1]
            base = k * MEMORY_CHECKPOINT_EVERY
        else:
            src = self._initial_words
            base = 0
        if out is None:
            mem = Memory.__new__(Memory)
            mem.size = self.mem_words
            mem.words = list(src)
        else:
            mem = out
            mem.words[:] = src
        words = mem.words
        for _, idx, value in self.write_log[base:j]:
            words[idx] = value
        return mem

    def _np_mem_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Numpy mirror of the reconstruction index (built lazily once).

        Returns ``(images, cycles, idxs, vals)``: the ``(k + 1,
        mem_words)`` uint32 matrix of the initial image followed by the
        ``k`` checkpoints, and the write log's cycle, word-index and
        value columns.  Backs :meth:`memory_rows_at`, so the batch engine
        seeds lane memories without a :class:`Memory` object.
        """
        cached = self._np_mem
        if cached is None:
            log = np.array(self.write_log, dtype=np.int64).reshape(-1, 3)
            images = np.array([self._initial_words, *self._checkpoints()],
                              dtype=np.uint32)
            cached = (images, np.ascontiguousarray(log[:, 0]),
                      np.ascontiguousarray(log[:, 1]),
                      log[:, 2].astype(np.uint32))
            self._np_mem = cached
        return cached

    def memory_rows_at(self, cycles, out: np.ndarray, rows) -> np.ndarray:
        """Memory images at the start of each of ``cycles``, in place.

        Row ``rows[j]`` of the ``(_, mem_words)`` matrix ``out`` (rows
        must be distinct) becomes the image at ``cycles[j]``: the same
        reconstruction as
        :meth:`memory_at` for every row at once, as one gather of
        checkpoint images and one scatter of the write-log entries each
        row replays past its checkpoint.  The scatter keeps only the
        last write per (row, word), because numpy does not promise the
        order in which one fancy assignment applies repeated indices.
        """
        images, log_cycles, idxs, vals = self._np_mem_index()
        cycles = np.asarray(cycles, dtype=np.int64)
        rows = np.asarray(rows)
        # Entries with when < cycle are committed before `cycle` starts.
        j = np.searchsorted(log_cycles, cycles, side="left")
        k = j // MEMORY_CHECKPOINT_EVERY
        out[rows] = images[k]
        counts = j - k * MEMORY_CHECKPOINT_EVERY
        total = int(counts.sum())
        if total:
            owner = np.repeat(rows, counts)
            # Log index of each replayed entry: its row's checkpoint
            # base plus its rank within the row's span.
            ends = np.cumsum(counts)
            entry = np.arange(total) + np.repeat(j - ends, counts)
            word = idxs[entry]
            last = _last_occurrences(owner * self.mem_words + word)
            out[owner[last], word[last]] = vals[entry[last]]
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
            active = ((col >> np.uint64(bit)) & np.uint64(1)) != value
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
