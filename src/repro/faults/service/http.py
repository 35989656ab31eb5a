"""Asyncio HTTP API: campaign status, shard leasing, prediction lookups.

Dependency-free: a small HTTP/1.1 server on ``loop.create_server``, one
:class:`asyncio.Protocol` per connection, that keeps each connection
open for the client's next request, serving JSON.  Endpoints:

====================  ======================================================
``GET  /status``      queue progress, campaign config, digest when complete,
                      ``http`` connection and request counters
``GET  /config``      the campaign configuration (for remote workers)
``POST /lease``       lease the next shard  ``{"worker": id, "ttl": s}``
``POST /commit``      commit a shard outcome ``{"shard_id", "outcome"}``
``GET  /predict``     DSR lookup ``?dsr=3,17,42`` -> type/unit posterior
                      + Top-K SBIST order; **503 + Retry-After** until
                      the campaign is complete and the table trained
``GET  /table``       the trained table as a portable payload
                      (:func:`repro.core.table.table_to_payload`)
====================  ======================================================

A connection buffers what it receives.  Once a request's head is
complete (lines end in CRLF or a bare LF; at most
:data:`MAX_HEAD_BYTES`) it is parsed once, and once exactly
``Content-Length`` body bytes follow, the request is answered inside
``data_received`` with one write; pipelined requests are answered in
order.  While the transport's write buffer is full, the connection
stops reading and answering until it drains.

A connection serves requests until the client sends ``Connection:
close`` or speaks HTTP/1.0, a request is mis-framed, the client goes
away, it sits idle for :data:`IDLE_TIMEOUT_S`, or the server shuts
down; every response says ``Connection: keep-alive`` or ``close`` to
match.  Framing is strict, because a mis-framed body would be read as
the next request: ``Content-Length`` must be one non-negative integer
(else 400), ``Transfer-Encoding`` is refused (501), a body over
:data:`MAX_BODY_BYTES` is refused (413), a longer head than
:data:`MAX_HEAD_BYTES` too (400), and each of these closes the
connection.  The client may still be sending that request's body, and
closing a socket with unread bytes resets the connection, which can
lose the answer.  So the server half-closes and reads what still
arrives away until the client closes or :data:`LINGER_S` or
:data:`LINGER_BYTES` run out, and only then closes.  Errors found once
a request has been read in full (bad JSON, a bad ``dsr``, 404, 405,
409, 503) leave it open.

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
import logging
import re
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple
from urllib.parse import parse_qsl

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

#: Hard cap on a request head, request line and headers together.
MAX_HEAD_BYTES = 64 * 1024

#: Seconds a connection may go without a request before the server
#: closes it.  A client that comes back later finds it closed and
#: reconnects (:class:`~.client.ServiceClient` retries once).
IDLE_TIMEOUT_S = 30.0

#: After a framing error, the server discards what still arrives for
#: at most this many seconds and bytes before it closes anyway.
LINGER_S = 5.0
LINGER_BYTES = 256 * 1024 * 1024

_log = logging.getLogger(__name__)


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
            501: "Not Implemented", 503: "Service Unavailable"}

#: Every endpoint: (method, path) -> handler(service, query, body).  The
#: handler is looked up on the service at each call, so a patched
#: method is the one served.
_ROUTES = {
    ("GET", "/status"): lambda service, query, body: service.handle_status(),
    ("GET", "/config"): lambda service, query, body: service.handle_config(),
    ("POST", "/lease"): lambda service, query, body: service.handle_lease(body),
    ("POST", "/commit"): lambda service, query, body: service.handle_commit(body),
    ("GET", "/predict"): lambda service, query, body: service.handle_predict(query),
    ("GET", "/table"): lambda service, query, body: service.handle_table(),
}
_PATHS = frozenset(path for _method, path in _ROUTES)


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
        #: connections accepted, connections open now, requests read;
        #: like every field here, touched on the event loop thread only.
        self.http = {"connections": 0, "open": 0, "requests": 0}
        #: every open connection.
        self._open: set[_Connection] = set()

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
        payload["http"] = dict(self.http)
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
        route = _ROUTES.get((method, path))
        if route is None:
            if path in _PATHS:
                raise HttpError(405, f"{method} not allowed on {path}")
            raise HttpError(404, f"no such endpoint: {path}")
        return route(self, query, body)

    def _respond(self, request: _Request) -> tuple[int, dict, dict]:
        """Answer one fully read request: (status, headers, payload)."""
        try:
            path, _, raw_query = request.target.partition("?")
            # Blank values kept: ``dsr=`` is the empty signature.
            query = dict(parse_qsl(raw_query, keep_blank_values=True))
            body = _parse_body(request.body)
            return 200, {}, self.dispatch(request.method, path, query, body)
        except HttpError as exc:
            return exc.status, exc.headers, {"error": exc.message}
        except Exception as exc:
            _log.exception("unhandled error serving %s %s",
                           request.method, request.target)
            return 500, {}, {"error": f"{type(exc).__name__}: {exc}"}

    async def close_connections(self) -> None:
        """Abort every open connection and wait until each has closed.

        A server must do this before ``Server.wait_closed()``: since
        Python 3.12 that waits for open connections too, so one idle
        keep-alive client would hold a shutdown forever.
        """
        while self._open:
            for connection in self._open:
                connection.transport.abort()
            await asyncio.wait([connection.closed
                                for connection in self._open])

    async def serve(self, host: str = "127.0.0.1", port: int = 0):
        """Bind and return the ``asyncio.Server`` (caller drives the loop)."""
        loop = asyncio.get_running_loop()
        return await loop.create_server(lambda: _Connection(self), host, port)


class _Request(NamedTuple):
    method: str
    target: str
    body: bytes
    keep_alive: bool


class _Connection(asyncio.Protocol):
    """One client connection, answered inside ``data_received``.

    Received bytes collect in ``buffer``.  Each complete request, a
    head and then exactly ``Content-Length`` body bytes, is taken off
    its front and answered at once, so pipelined requests are answered
    in order.  While the transport's write buffer is over its
    high-water mark (``pause_writing``), the connection reads nothing
    and leaves buffered requests for ``resume_writing``.
    """

    def __init__(self, service: CampaignService):
        self.service = service
        self.loop = asyncio.get_running_loop()
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        #: where the search for the head's blank line resumes.
        self.scanned = 0
        #: a parsed head waiting for its body.
        self.head: _Head | None = None
        #: bytes read away since a framing error; None before one.
        self.discarded: int | None = None
        self.paused = False
        self.last_active = self.loop.time()
        self.idle_timer: asyncio.TimerHandle | None = None
        #: done once ``connection_lost`` has run.
        self.closed = self.loop.create_future()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.service._open.add(self)
        self.service.http["connections"] += 1
        self.service.http["open"] += 1
        # One timer per connection, re-armed lazily: each answer only
        # stamps ``last_active``, and the timer, when it fires, either
        # closes the connection or sleeps for the time left.
        self.idle_timer = self.loop.call_later(IDLE_TIMEOUT_S, self._expire)

    def _expire(self) -> None:
        left = self.last_active + IDLE_TIMEOUT_S - self.loop.time()
        if left > 0:
            self.idle_timer = self.loop.call_later(left, self._expire)
        else:
            self.transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        self.idle_timer.cancel()
        self.service.http["open"] -= 1
        self.service._open.discard(self)
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        if self.discarded is not None:
            self.discarded += len(data)
            if self.discarded > LINGER_BYTES:
                self.transport.close()
            return
        self.buffer += data
        self._answer()

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self._answer()
        if not self.paused:
            self.transport.resume_reading()

    def _answer(self) -> None:
        """Answer the buffered requests in order, as far as they go."""
        while not (self.paused or self.transport.is_closing()):
            try:
                request = self._take_request()
            except HttpError as exc:
                self.service.http["requests"] += 1
                self._refuse(exc)
                return
            if request is None:
                return
            self.service.http["requests"] += 1
            status, headers, payload = self.service._respond(request)
            self._send(status, headers, payload, request.keep_alive)

    def _refuse(self, exc: HttpError) -> None:
        """Answer a request whose framing is in doubt, then linger.

        Nothing more is parsed: the connection half-closes and discards
        what arrives until the client closes (``eof_received``) or a
        linger bound runs out.
        """
        self.transport.write(_response(exc.status, {"error": exc.message},
                                       exc.headers, keep_alive=False))
        self.transport.write_eof()
        self.buffer.clear()
        self.discarded = 0
        self.idle_timer.cancel()
        self.idle_timer = self.loop.call_later(LINGER_S, self.transport.close)

    def _send(self, status: int, headers: dict, payload: dict,
              keep_alive: bool) -> None:
        self.last_active = self.loop.time()
        self.transport.write(_response(status, payload, headers, keep_alive))
        if not keep_alive:
            self.transport.close()

    def _take_request(self) -> _Request | None:
        """Take the next complete request off the buffer; None if there
        is none yet.

        Raises :class:`HttpError` for anything that leaves the framing
        in doubt (the caller answers and closes the connection).
        """
        buffer = self.buffer
        if self.head is None:
            end = _HEAD_END.search(buffer, self.scanned, MAX_HEAD_BYTES)
            if end is None:
                if len(buffer) >= MAX_HEAD_BYTES:
                    raise HttpError(400, "request head exceeds "
                                    f"{MAX_HEAD_BYTES} bytes")
                # The blank line may straddle the next read.
                self.scanned = max(len(buffer) - 2, 0)
                return None
            self.head = _parse_head(bytes(buffer[:end.end()]))
            del buffer[:end.end()]
            self.scanned = 0
        if len(buffer) < self.head.length:
            return None
        method, target, keep_alive, length = self.head
        body = bytes(buffer[:length])
        del buffer[:length]
        self.head = None
        return _Request(method, target, body, keep_alive)


class _Head(NamedTuple):
    method: str
    target: str
    keep_alive: bool
    length: int


#: The blank line that ends a request head; lines end in CRLF or LF.
_HEAD_END = re.compile(rb"\n\r?\n")


def _parse_head(raw: bytes) -> _Head:
    """Parse a complete request head, blank line included.

    Raises :class:`HttpError` for anything that leaves the framing in
    doubt.
    """
    request_line, *header_lines = raw.decode("latin-1").split("\n")[:-2]
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts
    keep_alive = version == "HTTP/1.1"
    lengths: set[str] = set()
    chunked = False
    for line in header_lines:
        name, colon, value = line.partition(":")
        if not colon:
            raise HttpError(400, f"malformed header line: {line!r}")
        name = name.strip().lower()
        if name == "content-length":
            lengths.update(part.strip() for part in value.split(","))
        elif name == "transfer-encoding":
            chunked = True
        elif name == "connection":
            tokens = {token.strip().lower() for token in value.split(",")}
            keep_alive = keep_alive and "close" not in tokens
    if chunked:
        raise HttpError(501, "Transfer-Encoding is not supported; "
                        "send the body with a Content-Length")
    if not all(part.isascii() and part.isdigit() for part in lengths):
        raise HttpError(400, f"bad Content-Length: {sorted(lengths)}")
    if len({int(part) for part in lengths}) > 1:
        raise HttpError(400, f"conflicting Content-Length: {sorted(lengths)}")
    length = int(lengths.pop()) if lengths else 0
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body of {length} bytes exceeds "
                        f"{MAX_BODY_BYTES}")
    return _Head(method.upper(), target, keep_alive, length)


def _parse_body(raw: bytes) -> dict:
    if not raw:
        return {}
    try:
        body = json.loads(raw)
    except ValueError as exc:
        raise HttpError(400, f"request body is not JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise HttpError(400, "request body must be a JSON object")
    return body


def _response(status: int, payload: dict, extra_headers: dict,
              keep_alive: bool) -> bytes:
    """One response, head and body, for one write."""
    body = json.dumps(payload, separators=(",", ":")).encode()
    head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    head += [f"{name}: {value}" for name, value in extra_headers.items()]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


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
        """Stop the event loop, close every connection, join the thread."""
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
    thread = threading.Thread(target=_run_loop, args=(loop, server, service),
                              name="campaign-service", daemon=True)
    thread.start()
    return ServiceHandle(host=host, port=bound_port, _loop=loop,
                         _thread=thread)


async def _shutdown(server, service: CampaignService) -> None:
    server.close()
    await service.close_connections()
    await server.wait_closed()


def _run_loop(loop: asyncio.AbstractEventLoop, server,
              service: CampaignService) -> None:
    asyncio.set_event_loop(loop)
    try:
        loop.run_forever()
    finally:
        try:
            loop.run_until_complete(_shutdown(server, service))
        finally:
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
        try:
            loop.run_until_complete(_shutdown(server, service))
        finally:
            loop.close()
