"""HTTP client for the campaign service: remote workers and lookups.

``run_worker`` is the distribution story's worker half: point any
number of hosts at one server URL and each loops lease -> execute ->
commit until the campaign completes.  The worker derives everything it
needs from the server — the campaign config comes from ``GET /config``
(cache-key-checked), the shard's flop list rides in the lease — so a
worker needs zero local state and can be killed at any time; its lease
simply expires and another worker picks the shard up.
"""

from __future__ import annotations

import http.client
import json
import time

from ..campaign import CampaignConfig
from ..parallel import ExecPlan, run_shards
from .wire import config_from_wire, outcome_to_wire, shard_from_wire


class ServiceError(RuntimeError):
    """A non-2xx answer from the campaign service."""

    def __init__(self, status: int, message: str, retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


class ServiceClient:
    """Minimal synchronous JSON client for one service base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        if "://" in base_url:
            base_url = base_url.split("://", 1)[1]
        self.netloc = base_url.rstrip("/")
        self.timeout = timeout

    def request(self, method: str, path: str, body: dict | None = None) -> dict:
        conn = http.client.HTTPConnection(self.netloc, timeout=self.timeout)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            data = json.loads(raw) if raw else {}
            if response.status >= 300:
                retry_after = response.getheader("Retry-After")
                raise ServiceError(
                    response.status, data.get("error", raw.decode("latin-1")),
                    retry_after=float(retry_after) if retry_after else None)
            return data
        finally:
            conn.close()

    # -- typed endpoints ----------------------------------------------------

    def status(self) -> dict:
        return self.request("GET", "/status")

    def config(self) -> CampaignConfig:
        payload = self.request("GET", "/config")
        config = config_from_wire(payload["config"])
        if config.cache_key() != payload["cache_key"]:
            raise ServiceError(
                500, "server config does not hash to its own cache key — "
                "library version mismatch between worker and server")
        return config

    def lease(self, worker: str, ttl: float | None = None) -> dict:
        body = {"worker": worker}
        if ttl is not None:
            body["ttl"] = ttl
        return self.request("POST", "/lease", body)

    def commit(self, shard_id: int, outcome: tuple) -> dict:
        return self.request("POST", "/commit", {
            "shard_id": shard_id, "outcome": outcome_to_wire(outcome)})

    def predict(self, diverged) -> dict:
        dsr = ",".join(str(sc) for sc in sorted(diverged))
        return self.request("GET", f"/predict?dsr={dsr}")

    def table(self) -> dict:
        return self.request("GET", "/table")


def run_worker(base_url: str, worker_id: str = "worker",
               plan: ExecPlan | None = None, ttl: float | None = None,
               poll_seconds: float = 0.5, max_shards: int | None = None,
               progress: bool = False) -> int:
    """Lease-execute-commit loop against a campaign service.

    Runs until the server reports the campaign complete (or until
    ``max_shards`` commits, for tests that stage partial progress).
    ``plan`` executes the leased shards as in
    :func:`repro.faults.run_campaign` (default: one runner on the batch
    engine, or the scalar engine without the compiled kernel); every
    plan commits identical outcomes, and the server's ledger fixes the
    shard sizes.  Returns the number of shards this worker committed.
    """
    client = ServiceClient(base_url)
    config = client.config()
    plan = (plan or ExecPlan()).resolve()
    done = leased = 0
    complete = False

    def leases():
        nonlocal leased, complete
        while max_shards is None or leased < max_shards:
            grant = client.lease(worker_id, ttl=ttl)
            if grant.get("shard") is None:
                complete = grant["progress"]["complete"]
                return
            leased += 1
            yield grant["shard_id"], shard_from_wire(grant["shard"])

    def commit(shard_id: int, outcome: tuple) -> None:
        nonlocal done
        client.commit(shard_id, outcome)
        done += 1
        if progress:
            state = client.status()["progress"]
            print(f"[worker {worker_id}] shard {shard_id} committed "
                  f"({state['committed']}/{state['n_shards']})", flush=True)

    while True:
        before = done
        run_shards(config, plan, leases(), commit)
        if complete or (max_shards is not None and leased >= max_shards):
            return done
        if done == before:
            # Everything left is leased to someone else; wait for
            # either their commits or their lease expiries.
            time.sleep(poll_seconds)
