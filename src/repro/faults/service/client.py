"""HTTP client for the campaign service: remote workers and lookups.

``run_worker`` is the distribution story's worker half: point any
number of hosts at one server URL and each loops lease -> execute ->
commit until the campaign completes.  The worker derives everything it
needs from the server — the campaign config comes from ``GET /config``
(cache-key-checked), the shard's flop list rides in the lease — so a
worker needs zero local state and can be killed at any time; its lease
simply expires and another worker picks the shard up.

:class:`ServiceClient` speaks HTTP/1.1 on a plain socket: each request
goes out as one ``sendall`` of head and body, and the answer is read
as a status line, headers and exactly ``Content-Length`` body bytes.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from urllib.parse import urlsplit

from ..campaign import CampaignConfig
from ..parallel import ExecPlan, run_shards
from .wire import config_from_wire, outcome_to_wire, shard_from_wire

#: Longest status or header line the client reads.
_MAX_LINE = 64 * 1024


class ServiceError(RuntimeError):
    """A non-2xx answer from the campaign service."""

    def __init__(self, status: int, message: str, retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


class ConnectionLost(ConnectionError):
    """The connection closed, or carried no well-framed answer."""


#: How a reused connection fails when the server closed it before
#: answering (idle timeout, restart).  Never a timeout: a request that
#: timed out may still be running.
_CLOSED_BY_SERVER = (ConnectionLost, ConnectionResetError, BrokenPipeError)


class ServiceClient:
    """Minimal synchronous JSON client for one service base URL.

    Keeps one persistent connection, which the threads sharing a client
    take in turn, and drops it when the server says ``Connection:
    close`` or answers in HTTP/1.0, and on any error mid-exchange.
    When a *reused* connection fails before any response byte arrives
    (reset or broken on send, or closed before the status line), the
    request is sent once more on a fresh connection: the server closed
    it first (idle timeout, restart), and every endpoint tolerates a
    repeat (``/commit`` is idempotent, and a ``/lease`` whose answer was
    lost expires after its TTL).  A timeout is never retried.
    ``close()``, or leaving a ``with`` block, closes the connection.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        url = urlsplit(base_url if "://" in base_url else f"//{base_url}")
        self.host = url.hostname
        self.port = url.port or 80
        self.timeout = timeout
        self._host_header = url.netloc
        self._sock: socket.socket | None = None
        self._reader = None
        self._lock = threading.Lock()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the persistent connection (the next request reopens)."""
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def _connect(self) -> None:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._reader = sock, sock.makefile("rb")

    def _send(self, message: bytes) -> bytes:
        """Send one request; return its answer's status line."""
        reused = self._sock is not None
        if not reused:
            self._connect()
        try:
            self._sock.sendall(message)
            line = self._reader.readline(_MAX_LINE)
            if not line:
                raise ConnectionLost("server closed the connection "
                                     "before answering")
            return line
        except _CLOSED_BY_SERVER:
            self._drop()
            if not reused:
                raise
        # The server had closed the reused connection: once more, fresh.
        return self._send(message)

    def _read_answer(self, status_line: bytes) -> tuple[int, dict, bytes, bool]:
        """Read the rest of an answer: (status, headers, body, keep-alive)."""
        parts = status_line.split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith(b"HTTP/")
                or len(parts[1]) != 3 or not parts[1].isdigit()):
            raise ConnectionLost(f"malformed status line: {status_line!r}")
        headers = {}
        while (line := self._reader.readline(_MAX_LINE)) not in (b"\r\n", b"\n"):
            if not line.endswith(b"\n"):
                raise ConnectionLost("connection closed in the answer's head")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise ConnectionLost(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "")
        if not (length.isascii() and length.isdigit()):
            raise ConnectionLost(f"answer without a valid Content-Length: "
                                 f"{length!r}")
        body = self._reader.read(int(length))
        if len(body) < int(length):
            raise ConnectionLost(f"connection closed {len(body)} bytes "
                                 f"into a {length}-byte body")
        tokens = {token.strip().lower()
                  for token in headers.get("connection", "").split(",")}
        keep_alive = parts[0] == b"HTTP/1.1" and "close" not in tokens
        return int(parts[1]), headers, body, keep_alive

    def request(self, method: str, path: str, body: dict | None = None) -> dict:
        payload = json.dumps(body).encode() if body is not None else b""
        head = f"{method} {path} HTTP/1.1\r\nHost: {self._host_header}\r\n"
        if payload:
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(payload)}\r\n")
        message = (head + "\r\n").encode("latin-1") + payload
        with self._lock:
            try:
                status, headers, raw, keep_alive = self._read_answer(
                    self._send(message))
            except BaseException:
                # Mid-exchange the connection's state is unknown.
                self._drop()
                raise
            if not keep_alive:
                self._drop()
        if status >= 300:
            raise ServiceError(status, _error_message(raw),
                               retry_after=_seconds(headers.get("retry-after")))
        return json.loads(raw) if raw else {}

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


def _error_message(raw: bytes) -> str:
    """A non-2xx body's message: its JSON ``error`` field, else its text."""
    text = raw.decode("latin-1")
    try:
        data = json.loads(raw)
    except ValueError:
        return text
    return data.get("error", text) if isinstance(data, dict) else text


def _seconds(retry_after: str | None) -> float | None:
    """A ``Retry-After`` in seconds; None when absent or an HTTP date."""
    try:
        return float(retry_after)
    except (TypeError, ValueError):
        return None


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
    with ServiceClient(base_url) as client:
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
