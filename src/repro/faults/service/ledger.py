"""Durable campaign ledger: the crash-safe work queue behind resume.

One ledger directory per campaign, keyed by the campaign's cache key::

    <root>/ledger_<cache_key>/
        manifest.json      # shard plan, written once at creation
        shard_00004.json   # one committed outcome per shard (atomic)

Crash consistency comes from two rules:

1.  **Commit = rename.**  A shard outcome is written to a temp file in
    the same directory, flushed, then ``os.replace``-d into place.  A
    crash at any point leaves either no shard file (the shard is
    simply re-run on resume) or a complete one — never a torn file.
    Stray temp files from killed writers are swept on open.
2.  **The shard files are the only truth.**  There is no mutable state
    file to corrupt: progress is the set of ``shard_*.json`` files,
    rebuilt by a directory scan on open.  Leases live in memory only —
    after a crash every uncommitted shard is pending again, which is
    exactly the correct recovery semantics.

Leases follow a small state machine (DESIGN.md §5.16)::

    pending --lease--> leased --commit--> committed   (terminal)
       ^                  |
       +---- expiry ------+        (dead worker: TTL passes, any
                                    later lease call reclaims it)

Because campaign results are bit-identical for any shard split and
completion order (SeedSequence-keyed schedules + order-keyed merge),
re-running a shard that a dead worker half-finished is always safe:
the second execution produces byte-identical records.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from ..campaign import CampaignConfig
from ..parallel import Shard, plan_shards, resolve_chunk, sampling_rng
from .wire import (
    WIRE_SCHEMA,
    config_from_wire,
    config_to_wire,
    outcome_from_wire,
    outcome_to_wire,
)

#: Manifest schema tag; bump on incompatible ledger layout changes.
LEDGER_SCHEMA = 1

#: Default lease time-to-live in seconds.
DEFAULT_LEASE_TTL = 60.0


class LedgerError(RuntimeError):
    """A ledger directory is unusable for the requested campaign."""


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON via write-temp + fsync + rename.

    The temp file lives in the target directory so the rename never
    crosses a filesystem boundary (rename atomicity only holds within
    one filesystem).  ``json.dumps`` encodes in C (``json.dump`` always
    runs the pure-Python encoder) into the same bytes, written at once.
    """
    data = json.dumps(payload, separators=(",", ":")).encode()
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


@dataclass(frozen=True)
class LeaseGrant:
    """A shard handed to a worker, valid until ``deadline``."""

    shard_id: int
    shard: Shard
    worker: str
    deadline: float


class CampaignLedger:
    """The durable shard queue for one campaign configuration.

    Args:
        root: directory under which the per-campaign ledger dir lives.
        config: the campaign; the ledger dir is keyed by its cache key,
            so different configurations never collide.
        chunk_flops: flops per shard (>= 1, else ``ValueError``); fixed
            in the manifest at creation so every resume sees the
            identical shard plan (an existing manifest's plan always
            wins).  None plans the shallow scalar-sized shards that
            ``repro serve`` hands its remote workers, ~4 per benchmark.
        clock: monotonic time source, injectable for lease-expiry tests.
    """

    def __init__(self, root: str | Path, config: CampaignConfig,
                 chunk_flops: int | None = None, clock=time.monotonic):
        if chunk_flops is not None and chunk_flops < 1:
            raise ValueError(f"chunk_flops must be >= 1, got {chunk_flops!r}")
        self.config = config
        self.clock = clock
        self.path = Path(root) / f"ledger_{config.cache_key()}"
        self.path.mkdir(parents=True, exist_ok=True)
        self._sweep_temp_files()
        flops = self._sampled_flops()
        manifest_path = self.path / "manifest.json"
        if manifest_path.exists():
            manifest = self._load_manifest(manifest_path, len(flops))
            chunk = int(manifest["chunk_flops"])
        else:
            chunk = chunk_flops or resolve_chunk(len(flops), 1)
            manifest = {
                "schema": LEDGER_SCHEMA,
                "wire_schema": WIRE_SCHEMA,
                "cache_key": config.cache_key(),
                "config": config_to_wire(config),
                "chunk_flops": chunk,
                "n_flops": len(flops),
            }
            atomic_write_json(manifest_path, manifest)
        self.manifest = manifest
        self.shards: list[Shard] = plan_shards(
            config.benchmarks, flops, workers=1, chunk_flops=chunk)
        self._leases: dict[int, LeaseGrant] = {}
        self._committed: set[int] = {
            shard_id for shard_id in range(len(self.shards))
            if self._shard_path(shard_id).exists()
        }

    # -- creation helpers ---------------------------------------------------

    def _sampled_flops(self):
        from ..campaign import sample_flops
        return sample_flops(self.config, sampling_rng(self.config.seed))

    def _load_manifest(self, path: Path, n_flops: int) -> dict:
        try:
            manifest = json.loads(path.read_text())
        except ValueError as exc:
            raise LedgerError(f"corrupt ledger manifest {path}: {exc}") from exc
        if manifest.get("schema") != LEDGER_SCHEMA:
            raise LedgerError(
                f"ledger {path.parent} has schema "
                f"{manifest.get('schema')!r}, expected {LEDGER_SCHEMA}")
        if manifest.get("cache_key") != self.config.cache_key():
            raise LedgerError(
                f"ledger {path.parent} belongs to campaign "
                f"{manifest.get('cache_key')!r}, not "
                f"{self.config.cache_key()!r}")
        # Belt and braces: the key already pins the config, but the
        # embedded copy must agree with what we recomputed from it.
        try:
            config = config_from_wire(manifest["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(
                f"ledger {path.parent} manifest carries an unusable "
                f"campaign config: {exc}") from exc
        if config != self.config or manifest.get("n_flops") != n_flops:
            raise LedgerError(
                f"ledger {path.parent} manifest disagrees with the "
                f"recomputed campaign plan")
        return manifest

    def _sweep_temp_files(self) -> None:
        for stray in self.path.glob(".*.tmp-*"):
            stray.unlink(missing_ok=True)

    def _shard_path(self, shard_id: int) -> Path:
        return self.path / f"shard_{shard_id:05d}.json"

    # -- queue state --------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def committed_ids(self) -> list[int]:
        """Committed shard ids, ascending."""
        return sorted(self._committed)

    @property
    def n_committed(self) -> int:
        return len(self._committed)

    @property
    def complete(self) -> bool:
        """True once every shard has a committed outcome."""
        return len(self._committed) == len(self.shards)

    def progress(self) -> dict:
        """A JSON-able snapshot of the queue state."""
        now = self.clock()
        active = sum(1 for grant in self._leases.values()
                     if grant.deadline > now)
        return {
            "n_shards": len(self.shards),
            "committed": len(self._committed),
            "leased": active,
            "pending": len(self.shards) - len(self._committed) - active,
            "complete": self.complete,
        }

    # -- lease state machine ------------------------------------------------

    def lease(self, worker: str, ttl: float = DEFAULT_LEASE_TTL) -> LeaseGrant | None:
        """Lease the next available shard to ``worker``.

        Expired leases are reclaimed here: a shard whose lease deadline
        has passed without a commit goes back to pending and is handed
        out again.  Returns None when nothing is available — either the
        campaign is complete or every remaining shard is under an
        active lease.
        """
        now = self.clock()
        for shard_id, grant in list(self._leases.items()):
            if grant.deadline <= now:
                del self._leases[shard_id]
        for shard_id in range(len(self.shards)):
            if shard_id in self._committed or shard_id in self._leases:
                continue
            grant = LeaseGrant(shard_id=shard_id, shard=self.shards[shard_id],
                               worker=worker, deadline=now + ttl)
            self._leases[shard_id] = grant
            return grant
        return None

    def release(self, shard_id: int) -> None:
        """Voluntarily return a lease (worker shutting down cleanly)."""
        self._leases.pop(shard_id, None)

    # -- commits ------------------------------------------------------------

    def commit(self, shard_id: int, outcome: tuple) -> bool:
        """Durably record one shard outcome; returns False on duplicate.

        Commits are idempotent: a late commit from a worker whose lease
        expired (and whose shard was re-run by someone else) is simply
        dropped — both executions produced byte-identical outcomes, so
        first-writer-wins loses nothing.
        """
        if not 0 <= shard_id < len(self.shards):
            raise LedgerError(f"shard id {shard_id} out of range "
                              f"(0..{len(self.shards) - 1})")
        self._leases.pop(shard_id, None)
        if shard_id in self._committed:
            return False
        payload = outcome_to_wire(outcome)
        payload["shard_id"] = shard_id
        atomic_write_json(self._shard_path(shard_id), payload)
        self._committed.add(shard_id)
        return True

    def load_outcome(self, shard_id: int) -> tuple:
        """Read one committed outcome back from disk."""
        payload = json.loads(self._shard_path(shard_id).read_text())
        if payload.get("shard_id") != shard_id:
            raise LedgerError(
                f"shard file {self._shard_path(shard_id)} carries id "
                f"{payload.get('shard_id')!r}")
        return outcome_from_wire(payload)

    def iter_committed(self):
        """Yield ``(shard_id, outcome)`` in merge (order-key) order.

        Shard ids ascend in ``plan_shards`` order, which is exactly the
        (bench_idx, flop_base) merge order — so streaming the committed
        files by id reproduces the serial record order without holding
        more than one shard's records in memory.
        """
        for shard_id in self.committed_ids:
            yield shard_id, self.load_outcome(shard_id)
