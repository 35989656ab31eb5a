"""Resumable campaign service: durable ledger, incremental merge, HTTP API.

The campaign layer (PR 1) made results bit-identical for any worker
split by keying every random decision off structural
``SeedSequence`` keys; this package adds the two missing pieces for
running the paper's millions-of-injections campaign as a long-lived
backend:

* **durability** — :mod:`.ledger` persists the shard plan and every
  committed shard outcome with atomic write-temp + rename commits, so
  a killed runner (or server) resumes exactly where it stopped and the
  finished digest is bit-identical to an uninterrupted run;
* **service** — :mod:`.http` serves campaign status, shard leases for
  remote workers and low-latency prediction-table lookups (DSR
  signature -> fault type/unit posterior + Top-K SBIST order) over a
  dependency-free asyncio HTTP API, with 503 + Retry-After while the
  table is still training and lease-expiry reclamation for dead
  workers.

See DESIGN.md §5.16 for the ledger format and the lease state machine.
"""

from ..store import IncrementalResultStore
from .http import CampaignService, ServiceHandle, start_service
from .ledger import CampaignLedger, LeaseGrant, LedgerError
from .client import ServiceClient, run_worker
from .runner import run_resumable_campaign
from .wire import (
    WIRE_SCHEMA,
    config_from_wire,
    config_to_wire,
    outcome_from_wire,
    outcome_to_wire,
    record_from_wire,
    record_to_wire,
    shard_from_wire,
    shard_to_wire,
)

__all__ = [
    "CampaignLedger", "LeaseGrant", "LedgerError",
    "CampaignService", "ServiceHandle", "start_service",
    "ServiceClient", "run_worker",
    "run_resumable_campaign",
    "IncrementalResultStore",
    "WIRE_SCHEMA",
    "config_from_wire", "config_to_wire",
    "outcome_from_wire", "outcome_to_wire",
    "record_from_wire", "record_to_wire",
    "shard_from_wire", "shard_to_wire",
]
