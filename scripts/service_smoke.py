#!/usr/bin/env python
"""End-to-end crash-recovery smoke for the campaign service.

Drives the real CLI surface (``python -m repro serve`` / ``work``)
through the full outage matrix the unit suite can only approximate
in-process:

1. compute the serial in-memory reference digest for the quick
   campaign;
2. start a server, run a worker over the lease HTTP API and SIGKILL
   the worker mid-campaign (uncommitted lease dies with it);
3. SIGKILL the *server* too, restart it on the same ledger directory;
4. run a fresh worker to completion and assert the served digest —
   and a direct ledger replay — are bit-identical to the reference;
5. assert from the restarted server's ``/status`` counters that the
   finisher worker and this script's polling client reused their
   connections.  The polling client keeps one ``ServiceClient`` across
   the SIGKILL and restart, so its first request afterwards goes out
   on the dead connection: the client must drop it and retry on a
   fresh one, which ``wait_for_server`` repeats until the restarted
   server answers.

Exits non-zero (with the server/worker logs on stderr) on any
mismatch; CI uploads the ledger directory as an artifact when that
happens.  Runs in ~30 s locally: ``PYTHONPATH=src python
scripts/service_smoke.py``.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.faults import CampaignConfig, ExecPlan  # noqa: E402
from repro.faults.parallel import execute_campaign  # noqa: E402
from repro.faults.service import ServiceClient  # noqa: E402
from repro.faults.service.runner import ledger_digest  # noqa: E402
from repro.faults.service.ledger import CampaignLedger  # noqa: E402

SCALE = "quick"
CHUNK_FLOPS = 12  # quick campaign: 108 flops -> 9 shards
POLL_S = 0.1
STARTUP_TIMEOUT_S = 30


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn(args: list[str], log_path: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    log = open(log_path, "ab")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO, env=env, stdout=log, stderr=subprocess.STDOUT)


def wait_for_server(client: ServiceClient) -> dict:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            return client.status()
        except (ConnectionError, OSError):
            time.sleep(POLL_S)
    raise SystemExit("server never came up")


def wait_for_commits(client: ServiceClient, at_least: int) -> int:
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        committed = client.status()["progress"]["committed"]
        if committed >= at_least:
            return committed
        time.sleep(POLL_S)
    raise SystemExit(f"never reached {at_least} committed shards")


def main() -> int:
    config = CampaignConfig.quick()
    print(f"[smoke] serial reference for {SCALE} campaign...", flush=True)
    # On the scalar engine (batch=0); the workers below run the default
    # engine, which is the batch engine wherever the kernel builds.
    reference = execute_campaign(config, plan=ExecPlan(batch=0))
    print(f"[smoke] reference digest {reference.digest()[:16]}... "
          f"({reference.n_injected} injections)", flush=True)

    # Optional argv[1]: working directory (CI passes one so the ledger
    # can be uploaded as an artifact on failure).
    if len(sys.argv) > 1:
        workdir = Path(sys.argv[1])
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        workdir = Path(tempfile.mkdtemp(prefix="service_smoke_"))
    ledger_dir = workdir / "ledger"
    server_log = workdir / "server.log"
    worker_log = workdir / "worker.log"
    print(f"[smoke] ledger at {ledger_dir}", flush=True)
    port = free_port()
    url = f"http://127.0.0.1:{port}"
    serve_args = ["serve", "--scale", SCALE, "--ledger", str(ledger_dir),
                  "--port", str(port), "--chunk-flops", str(CHUNK_FLOPS),
                  "--lease-ttl", "5"]

    server = spawn(serve_args, server_log)
    worker = None
    try:
        client = ServiceClient(url)
        status = wait_for_server(client)
        n_shards = status["progress"]["n_shards"]
        print(f"[smoke] server up: {n_shards} shards planned", flush=True)
        assert n_shards >= 3, f"need >=3 shards to kill mid-run: {n_shards}"

        # Cap the doomed worker below the shard count so it can never
        # finish the campaign before the SIGKILL lands, however fast
        # the host is — the kill is then always mid-campaign.
        worker = spawn(["work", "--url", url, "--worker", "doomed",
                        "--max-shards", str(n_shards - 2)], worker_log)
        committed = wait_for_commits(client, at_least=2)
        if worker.poll() is None:
            worker.send_signal(signal.SIGKILL)
        worker.wait()
        print(f"[smoke] SIGKILLed worker after {committed} commits",
              flush=True)
        assert committed < n_shards, "campaign finished before the kill"

        server.send_signal(signal.SIGKILL)
        server.wait()
        print("[smoke] SIGKILLed server; restarting on same ledger",
              flush=True)
        server = spawn(serve_args, server_log)
        status = wait_for_server(client)
        resumed = status["progress"]["committed"]
        print(f"[smoke] server resumed with {resumed} committed shards",
              flush=True)
        assert resumed >= 2, f"commits lost across SIGKILL: {resumed}"
        assert not status["progress"]["complete"]

        worker = spawn(["work", "--url", url, "--worker", "finisher"],
                       worker_log)
        wait_for_commits(client, at_least=n_shards)
        worker.wait(timeout=60)

        status = client.status()
        assert status["progress"]["complete"], status
        served = status["digest"]
        replayed = ledger_digest(
            CampaignLedger(ledger_dir, config, chunk_flops=CHUNK_FLOPS))
        print(f"[smoke] served digest   {served[:16]}...", flush=True)
        print(f"[smoke] replayed digest {replayed[:16]}...", flush=True)
        assert served == reference.digest(), \
            "served digest != serial reference"
        assert replayed == reference.digest(), \
            "ledger replay digest != serial reference"

        prediction = client.predict(frozenset())
        assert prediction["units"], prediction
        print(f"[smoke] /predict OK: empty DSR -> {prediction['units']} "
              f"({prediction['error_type']})", flush=True)

        counters = client.status()["http"]
        print(f"[smoke] restarted server: {counters['requests']} requests "
              f"over {counters['connections']} connections", flush=True)
        assert counters["requests"] >= 3 * counters["connections"], \
            f"clients did not reuse their connections: {counters}"
        print("[smoke] PASS: crash-recovery digest matches serial reference",
              flush=True)
        return 0
    except BaseException:
        for name, path in (("server", server_log), ("worker", worker_log)):
            if path.exists():
                sys.stderr.write(f"--- {name} log ---\n")
                sys.stderr.write(path.read_text(errors="replace"))
        raise
    finally:
        for proc in (worker, server):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
        # Leave the ledger in place for CI artifact upload on failure.
        print(f"[smoke] ledger preserved at {ledger_dir}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
