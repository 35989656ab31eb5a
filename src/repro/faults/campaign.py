"""Fault-injection campaign controller.

The paper's methodology (Section IV-A): each benchmark's run time is
divided into 64 equal intervals; one experiment injects a single
random fault (soft flip, stuck-at-0 or stuck-at-1) into one flip-flop
in one interval and runs the benchmark to completion; this repeats
over every flip-flop, fault type and benchmark.

The exhaustive product is ~10M injections on a server cluster; this
controller reproduces the same stratified structure at a configurable
scale: per-unit stratified flip-flop sampling and a configurable
number of injection intervals per flop and fault type.  The soft:hard
injection ratio is configurable so the resulting *error* dataset can
be balanced like the paper's (see DESIGN.md §5.4).
"""

from __future__ import annotations

import hashlib
import pickle
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..cpu.units import FINE_UNITS, FlopRef, flops_of_unit
from ..workloads.kernels import DEFAULT_SEED, KERNELS
from .models import ErrorRecord, Fault, FaultKind

#: Bump when the CPU model, SC layout, record schema or fault-schedule
#: derivation changes.  v3: keyed SeedSequence substreams per
#: (benchmark, flop) replaced the single sequential generator.
#: v4: golden traces carry def/use liveness masks (liveness pruning)
#: and `schedule_faults` clamps the interval count to the configured
#: value, spreading the remainder cycles over the leading intervals.
CAMPAIGN_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of a fault-injection campaign."""

    benchmarks: tuple[str, ...] = tuple(KERNELS)
    seed: int = DEFAULT_SEED
    intervals: int = 64
    #: soft injections per sampled flop per benchmark.
    soft_per_flop: int = 2
    #: injections per stuck-at polarity per sampled flop per benchmark.
    hard_per_flop: int = 1
    #: fraction of each unit's flops to sample (stratified, >=1 per unit).
    flop_fraction: float = 1.0
    #: cap on post-activation observation for hard faults (None: to end).
    max_observe: int | None = 2000
    mask_check_stride: int = 4
    #: liveness pruning (zero-sim masking, deferred starts, dynamic
    #: equivalence).  Records are bit-identical either way — off is an
    #: escape hatch / baseline for benchmarking (``--no-prune``).
    prune: bool = True

    def __post_init__(self) -> None:
        """Refuse values the engines would otherwise reinterpret.

        Raises ``ValueError`` naming the field, as ``ExecPlan`` does.
        """
        for name, floor in (("soft_per_flop", 0), ("hard_per_flop", 0),
                            ("intervals", 1), ("mask_check_stride", 1)):
            value = getattr(self, name)
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value!r}")
        if self.max_observe is not None and self.max_observe < 1:
            raise ValueError(
                f"max_observe must be None or >= 1, got {self.max_observe!r}")
        if not 0 < self.flop_fraction <= 1:
            raise ValueError(
                f"flop_fraction must be in (0, 1], got {self.flop_fraction!r}")

    @classmethod
    def quick(cls) -> "CampaignConfig":
        """A seconds-scale configuration for unit tests."""
        return cls(benchmarks=("ttsprk",), soft_per_flop=1, hard_per_flop=1,
                   flop_fraction=0.05, max_observe=600)

    @classmethod
    def default(cls) -> "CampaignConfig":
        """The benchmark-harness scale (minutes on one machine)."""
        return cls(soft_per_flop=2, hard_per_flop=1, flop_fraction=0.35)

    @classmethod
    def full(cls) -> "CampaignConfig":
        """Every flop, 4 soft faults and one stuck-at per polarity each.

        No observation cap.  129,300 injections and 40,750 errors,
        about 2 s on one worker of a 2-vCPU host once golden traces
        are built.
        """
        return cls(soft_per_flop=4, hard_per_flop=1, flop_fraction=1.0,
                   max_observe=None)

    def cache_key(self) -> str:
        """Stable hash identifying this configuration.

        The schema version is folded in so cached results from older
        library versions (different record layout or CPU behaviour)
        are never reused.
        """
        text = f"{CAMPAIGN_SCHEMA_VERSION}:{self!r}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class CampaignResult:
    """Everything the downstream analyses need from a campaign."""

    config: CampaignConfig
    records: list[ErrorRecord]
    #: injections per (fine unit, FaultKind.value) -> count.
    injected: dict[tuple[str, str], int]
    #: golden run length per benchmark (the task restart cost basis).
    golden_cycles: dict[str, int]
    #: sampled flops per fine unit.
    sampled_flops: dict[str, int]
    wall_seconds: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def n_injected(self) -> int:
        """Total number of fault injections performed."""
        return sum(self.injected.values())

    @property
    def n_errors(self) -> int:
        """Total number of manifested errors."""
        return len(self.records)

    def digest(self) -> str:
        """Canonical digest of the record list (see :func:`records_digest`)."""
        return records_digest(self.records)

    def save(self, path: str | Path) -> None:
        """Persist to disk (pickle)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump(self, fh, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def load(path: str | Path) -> "CampaignResult":
        """Load a previously saved campaign."""
        with open(path, "rb") as fh:
            result = pickle.load(fh)
        if not isinstance(result, CampaignResult):
            raise TypeError(f"{path} does not contain a CampaignResult")
        return result


def records_digest(records: Iterable[ErrorRecord]) -> str:
    """Order-sensitive canonical sha256 over a record stream.

    Used to assert bit-identical campaign behaviour across worker
    counts and pruning on/off.  ``records`` is consumed once, so the
    ledger runner digests a finished campaign straight off its shard
    files.  Fields are serialised explicitly —
    ``repr`` of a frozenset is iteration-order dependent, so the
    diverged set is sorted first.
    """
    h = hashlib.sha256()
    for r in records:
        h.update(repr((r.benchmark, r.flop.reg, r.flop.bit, r.kind.value,
                       r.inject_cycle, r.detect_cycle,
                       sorted(r.diverged))).encode())
    return h.hexdigest()


def sample_flops(config: CampaignConfig, rng: np.random.Generator) -> list[FlopRef]:
    """Stratified per-unit flop sample.

    Sampling is stratified over the *fine* taxonomy so that every unit
    (including small ones like DPU.FLAGS) contributes experiments even
    at low sampling fractions.
    """
    chosen: list[FlopRef] = []
    for unit in FINE_UNITS:
        unit_flops = flops_of_unit(unit, fine=True)
        k = max(1, round(config.flop_fraction * len(unit_flops)))
        k = min(k, len(unit_flops))
        idxs = rng.choice(len(unit_flops), size=k, replace=False)
        chosen.extend(unit_flops[i] for i in sorted(int(i) for i in idxs))
    return chosen


def schedule_faults(flop: FlopRef, n_cycles: int, config: CampaignConfig,
                    rng: np.random.Generator) -> list[Fault]:
    """Build the fault list for one flop on one benchmark.

    Soft faults land in ``soft_per_flop`` distinct random intervals;
    each stuck-at polarity lands in ``hard_per_flop`` random intervals.
    Within an interval the injection cycle is uniform.

    There are never more than ``config.intervals`` intervals: when
    ``n_cycles`` does not divide evenly the remainder cycles are spread
    one-per-interval over the leading intervals, so every interval is
    within one cycle of the same length and late intervals carry the
    same injection probability as early ones.

    This is the specification of a campaign's fault schedule.  The
    batch engine's shards are scheduled by the compiled kernel's
    ``schedule``, which replays these numpy draws for a whole shard in
    one call (DESIGN §5.20); tests and a first-use check in every
    process hold it to this function.
    """
    n_intervals = max(1, min(config.intervals, n_cycles))
    base, extra = divmod(n_cycles, n_intervals)

    def pick_cycles(count: int) -> list[int]:
        count = min(count, n_intervals)
        iv = rng.choice(n_intervals, size=count, replace=False).astype(np.int64)
        lo = iv * base + np.minimum(iv, extra)
        lengths = np.where(iv < extra, base + 1, base)
        # One vectorised bounded draw per interval batch: numpy's
        # Generator consumes the bitstream per element exactly as the
        # equivalent sequence of scalar ``integers(length)`` calls
        # (tested property), so schedules — and digests — are unchanged.
        return (lo + rng.integers(lengths)).tolist()

    faults = [Fault(flop, FaultKind.SOFT, c) for c in pick_cycles(config.soft_per_flop)]
    for kind in (FaultKind.STUCK0, FaultKind.STUCK1):
        faults.extend(Fault(flop, kind, c) for c in pick_cycles(config.hard_per_flop))
    return faults


def run_campaign(config: CampaignConfig | None = None,
                 progress: bool = False, plan=None) -> CampaignResult:
    """Execute a campaign and return its result.

    Args:
        config: campaign parameters (default: :meth:`CampaignConfig.default`).
        progress: print per-shard progress lines.
        plan: how to execute it, an
            :class:`~repro.faults.parallel.ExecPlan` (default:
            ``ExecPlan()``: one shard runner, inline, on the batch
            engine at :data:`~repro.faults.parallel.DEFAULT_BATCH`
            lanes, or on the scalar engine when the compiled kernel
            cannot load; ``meta["kernel"]`` is then None).  Records and
            pruning stats are bit-identical for every plan (see
            :mod:`repro.faults.parallel`), which ``meta`` records.
    """
    from .parallel import execute_campaign

    config = config or CampaignConfig.default()
    return execute_campaign(config, progress=progress, plan=plan)


def _load_cached(path: Path, config: CampaignConfig) -> CampaignResult | None:
    """Load and validate a cached campaign; None if unusable.

    Guards against both corrupt pickles and stale files whose embedded
    config no longer hashes to the requested key (e.g. a cache dir
    carried across a schema change, or a hand-renamed file).
    """
    try:
        result = CampaignResult.load(path)
    except Exception as exc:  # unpicklable, truncated, wrong type ...
        warnings.warn(f"discarding unreadable campaign cache {path}: {exc}",
                      RuntimeWarning, stacklevel=3)
        return None
    if result.config.cache_key() != config.cache_key():
        warnings.warn(
            f"campaign cache {path} was produced by a different "
            f"configuration (key {result.config.cache_key()}, expected "
            f"{config.cache_key()}); re-running", RuntimeWarning, stacklevel=3)
        return None
    return result


def cached_campaign(config: CampaignConfig | None = None,
                    cache_dir: str | Path = ".campaign_cache",
                    progress: bool = False, plan=None) -> CampaignResult:
    """Run a campaign, or load it from the on-disk cache if present.

    All benchmark-harness figures share one campaign run through this
    cache, keyed by the configuration hash.  ``plan`` executes a run as
    in :func:`run_campaign`.  The key is independent of the plan — a
    result computed with any worker count, engine (scalar / batch) or
    batch width is identical, so it is shared by all of them.
    """
    config = config or CampaignConfig.default()
    path = Path(cache_dir) / f"campaign_{config.cache_key()}.pkl"
    if path.exists():
        result = _load_cached(path, config)
        if result is not None:
            return result
    result = run_campaign(config, progress=progress, plan=plan)
    result.save(path)
    return result
