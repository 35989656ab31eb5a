"""Asyncio HTTP API: campaign status, shard leasing, prediction lookups.

Dependency-free: a small HTTP/1.1 request loop over
``asyncio.start_server`` (one connection per request, ``Connection:
close``), serving JSON.  Endpoints:

====================  ======================================================
``GET  /status``      queue progress, campaign config, digest when complete
``GET  /config``      the campaign configuration (for remote workers)
``POST /lease``       lease the next shard  ``{"worker": id, "ttl": s}``
``POST /commit``      commit a shard outcome ``{"shard_id", "outcome"}``
``GET  /predict``     DSR lookup ``?dsr=3,17,42`` -> type/unit posterior
                      + Top-K SBIST order; **503 + Retry-After** until
                      the campaign is complete and the table trained
``GET  /table``       the trained table as a portable payload
                      (:func:`repro.core.table.table_to_payload`)
====================  ======================================================

The prediction path is the fleet-facing hot path: a lookup is a dict
probe against the trained table plus two small posterior dicts, no
I/O, so thousands of concurrent ECU queries are served at asyncio
dispatch speed.  Training happens once, lazily, the first time a
complete campaign is asked for a prediction; while shards are still
outstanding every ``/predict`` degrades gracefully to 503 with a
``Retry-After`` hint instead of blocking or answering from a partial
table (a half-trained predictor would silently mis-rank units — the
fail-safe is to keep the client on its default full-diagnostic order,
exactly like the paper's catch-all entry).
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from dataclasses import dataclass

from ...core.predictor import train_predictor
from ...core.signatures import SignatureStats
from ...core.table import table_to_payload
from ..campaign import CampaignConfig
from ..store import IncrementalResultStore
from .ledger import DEFAULT_LEASE_TTL, CampaignLedger
from .runner import hydrate_store, ledger_digest
from .wire import config_to_wire, outcome_from_wire, shard_to_wire

#: Retry-After seconds advertised while the table is still training.
RETRY_AFTER_TRAINING = 5

#: Hard cap on request body size (a commit for a deep shard is well
#: under this; anything larger is a broken or hostile client).
MAX_BODY_BYTES = 64 * 1024 * 1024


class HttpError(Exception):
    """An error that maps straight to an HTTP status response."""

    def __init__(self, status: int, message: str, headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 500: "Internal Server Error",
            503: "Service Unavailable"}


class CampaignService:
    """Serves one campaign ledger over HTTP.

    Args:
        ledger: the durable shard queue (opened or created by the
            caller; the service only ever touches it from the event
            loop thread, so no extra locking is needed).
        fine: taxonomy for the trained prediction table.
        top_k: truncate served predictions to the K most likely units
            (None serves the full order).
        lease_ttl: default lease TTL when a worker does not ask for one.
    """

    def __init__(self, ledger: CampaignLedger, fine: bool = False,
                 top_k: int | None = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL):
        self.ledger = ledger
        self.fine = fine
        self.top_k = top_k
        self.lease_ttl = lease_ttl
        #: aggregates only; records stream from the ledger at training.
        self.store: IncrementalResultStore = hydrate_store(
            ledger, keep_records=False)
        self._predictor = None
        self._stats: SignatureStats | None = None
        self._digest: str | None = None

    # -- training -----------------------------------------------------------

    @property
    def training(self) -> bool:
        """True while the campaign is incomplete (table not servable)."""
        return not self.ledger.complete

    def _ensure_trained(self):
        if self._predictor is None:
            records = [r for _sid, outcome in self.ledger.iter_committed()
                       for r in outcome[0]]
            self._stats = SignatureStats.from_records(records, self.fine)
            self._predictor = train_predictor(
                records, fine=self.fine, top_k=self.top_k, stats=self._stats)
        return self._predictor

    def digest(self) -> str:
        """Digest of the completed campaign (cached after first use)."""
        if self._digest is None:
            self._digest = ledger_digest(self.ledger)
        return self._digest

    # -- endpoint handlers --------------------------------------------------

    def handle_status(self) -> dict:
        payload = {
            "schema": 1,
            "cache_key": self.ledger.config.cache_key(),
            "progress": self.ledger.progress(),
            "errors": self.store.n_errors,
            "training": self.training,
        }
        if not self.training:
            payload["digest"] = self.digest()
        return payload

    def handle_config(self) -> dict:
        return {"cache_key": self.ledger.config.cache_key(),
                "config": config_to_wire(self.ledger.config)}

    def handle_lease(self, body: dict) -> dict:
        worker = str(body.get("worker", "anonymous"))
        ttl = body.get("ttl", self.lease_ttl)
        # JSON numbers only, and finite: ``json`` parses NaN and
        # Infinity, and a lease that never expires strands its shard
        # when the worker dies.
        if (isinstance(ttl, bool) or not isinstance(ttl, (int, float))
                or not 0 < ttl <= sys.float_info.max):
            raise HttpError(400, "lease ttl must be a positive finite "
                            f"number of seconds, got {ttl!r}")
        ttl = float(ttl)
        grant = self.ledger.lease(worker, ttl=ttl)
        if grant is None:
            return {"shard": None, "progress": self.ledger.progress()}
        return {
            "shard_id": grant.shard_id,
            "shard": shard_to_wire(grant.shard),
            "deadline_in": ttl,
            "progress": self.ledger.progress(),
        }

    def handle_commit(self, body: dict) -> dict:
        try:
            shard_id = int(body["shard_id"])
            outcome = outcome_from_wire(body["outcome"])
        except HttpError:
            raise
        except Exception as exc:
            raise HttpError(400, f"malformed commit: {exc}") from exc
        if not 0 <= shard_id < self.ledger.n_shards:
            raise HttpError(409, f"shard id {shard_id} out of range")
        fresh = self.ledger.commit(shard_id, outcome)
        if fresh:
            self.store.add(shard_id, self.ledger.shards[shard_id].benchmark,
                           outcome)
        return {"status": "committed" if fresh else "duplicate",
                "progress": self.ledger.progress()}

    def _parse_dsr(self, query: dict) -> frozenset:
        if "dsr" not in query:
            raise HttpError(400, "missing dsr query parameter "
                            "(comma-separated SC indices, e.g. dsr=3,17)")
        raw = query["dsr"].strip()
        if raw == "":
            return frozenset()
        try:
            return frozenset(int(part) for part in raw.split(","))
        except ValueError as exc:
            raise HttpError(400, f"malformed dsr signature {raw!r}: "
                            f"{exc}") from exc

    def handle_predict(self, query: dict) -> dict:
        diverged = self._parse_dsr(query)
        if self.training:
            raise HttpError(
                503, "prediction table still training "
                f"({self.ledger.n_committed}/{self.ledger.n_shards} shards)",
                headers={"Retry-After": str(RETRY_AFTER_TRAINING)})
        predictor = self._ensure_trained()
        prediction = predictor.predict(diverged)
        return {
            "dsr": sorted(diverged),
            "units": list(prediction.units),
            "error_type": prediction.error_type.value,
            "from_default": prediction.from_default,
            "unit_posterior": dict(sorted(
                self._stats.set_probabilities(diverged).items())),
            "type_posterior": {
                etype.value: p for etype, p in sorted(
                    self._stats.type_probabilities(diverged).items(),
                    key=lambda kv: kv[0].value)},
            "access_cycles": predictor.access_cycles,
        }

    def handle_table(self) -> dict:
        if self.training:
            raise HttpError(
                503, "prediction table still training",
                headers={"Retry-After": str(RETRY_AFTER_TRAINING)})
        predictor = self._ensure_trained()
        return table_to_payload(predictor.table, self.fine)

    # -- HTTP plumbing ------------------------------------------------------

    def dispatch(self, method: str, path: str, query: dict, body: dict) -> dict:
        routes = {
            ("GET", "/status"): lambda: self.handle_status(),
            ("GET", "/config"): lambda: self.handle_config(),
            ("POST", "/lease"): lambda: self.handle_lease(body),
            ("POST", "/commit"): lambda: self.handle_commit(body),
            ("GET", "/predict"): lambda: self.handle_predict(query),
            ("GET", "/table"): lambda: self.handle_table(),
        }
        handler = routes.get((method, path))
        if handler is None:
            known = {route_path for _m, route_path in routes}
            if path in known:
                raise HttpError(405, f"{method} not allowed on {path}")
            raise HttpError(404, f"no such endpoint: {path}")
        return handler()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        status, headers, payload = 500, {}, {"error": "internal error"}
        try:
            method, path, query, body = await _read_request(reader)
            payload = self.dispatch(method, path, query, body)
            status = 200
        except HttpError as exc:
            status, headers = exc.status, exc.headers
            payload = {"error": exc.message}
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # pragma: no cover - defensive
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        try:
            _write_response(writer, status, payload, headers)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def serve(self, host: str = "127.0.0.1", port: int = 0):
        """Bind and return the ``asyncio.Server`` (caller drives the loop)."""
        return await asyncio.start_server(self._serve_connection, host, port)


async def _read_request(reader: asyncio.StreamReader):
    request_line = (await reader.readline()).decode("latin-1").strip()
    parts = request_line.split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, target, _version = parts
    content_length = 0
    while True:
        line = (await reader.readline()).decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError as exc:
                raise HttpError(400, f"bad Content-Length: {value!r}") from exc
    if content_length > MAX_BODY_BYTES:
        raise HttpError(413, f"body of {content_length} bytes exceeds "
                        f"{MAX_BODY_BYTES}")
    raw_body = await reader.readexactly(content_length) if content_length else b""
    body: dict = {}
    if raw_body:
        try:
            body = json.loads(raw_body)
        except ValueError as exc:
            raise HttpError(400, f"request body is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
    path, _, raw_query = target.partition("?")
    query: dict[str, str] = {}
    for pair in raw_query.split("&"):
        if pair:
            key, _, value = pair.partition("=")
            query[key] = value
    return method.upper(), path, query, body


def _write_response(writer: asyncio.StreamWriter, status: int, payload: dict,
                    extra_headers: dict | None = None) -> None:
    body = json.dumps(payload, separators=(",", ":")).encode()
    headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Connection": "close",
        **(extra_headers or {}),
    }
    head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    head += [f"{name}: {value}" for name, value in headers.items()]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)


# -- threaded host (for the CLI, tests and benchmarks) -----------------------

@dataclass
class ServiceHandle:
    """A running service: base URL plus a stop switch."""

    host: str
    port: int
    _loop: asyncio.AbstractEventLoop
    _thread: threading.Thread

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Stop the event loop and join the server thread."""
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)


def start_service(service: CampaignService, host: str = "127.0.0.1",
                  port: int = 0) -> ServiceHandle:
    """Run a :class:`CampaignService` on a daemon thread.

    Returns once the socket is bound (the reported port is final, so
    ``port=0`` gives a free ephemeral port — the tests' default).
    """
    loop = asyncio.new_event_loop()
    server = loop.run_until_complete(service.serve(host, port))
    bound_port = server.sockets[0].getsockname()[1]
    thread = threading.Thread(target=_run_loop, args=(loop, server),
                              name="campaign-service", daemon=True)
    thread.start()
    return ServiceHandle(host=host, port=bound_port, _loop=loop,
                         _thread=thread)


def _run_loop(loop: asyncio.AbstractEventLoop, server) -> None:
    asyncio.set_event_loop(loop)
    try:
        loop.run_forever()
    finally:
        server.close()
        with_suppress = loop.run_until_complete
        try:
            with_suppress(server.wait_closed())
        except Exception:
            pass
        loop.close()


def serve_forever(service: CampaignService, host: str, port: int,
                  announce=print) -> None:
    """Blocking entry point for ``python -m repro serve``."""
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    server = loop.run_until_complete(service.serve(host, port))
    bound = server.sockets[0].getsockname()
    announce(f"[serve] campaign {service.ledger.config.cache_key()} on "
             f"http://{bound[0]}:{bound[1]}  "
             f"({service.ledger.n_committed}/{service.ledger.n_shards} "
             f"shards committed)")
    try:
        loop.run_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        loop.run_until_complete(server.wait_closed())
        loop.close()
