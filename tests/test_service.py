"""Resumable campaign service: crash recovery, merging, HTTP API.

The contract under test is the acceptance criterion of the service
layer: *killing the campaign runner at any shard boundary or mid-lease
and resuming yields a ``CampaignResult.digest()`` bit-identical to an
uninterrupted run*, across worker counts and engines — plus the lease
state machine, the commutative/associative incremental merge, and the
HTTP endpoints (concurrent lookups, 503-while-training, malformed
signatures, offline-vs-served Top-K parity), persistent connections
and request framing.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import http.client
import json
import logging
import socket
import threading
import time
from urllib.parse import urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import train_predictor
from repro.core.table import table_from_payload, table_to_payload
from repro.faults import (DEFAULT_BATCH, CampaignConfig, ExecPlan,
                          cext_available, parallel)
from repro.faults.parallel import execute_campaign, run_shard
from repro.faults.service import (
    CampaignLedger,
    CampaignService,
    IncrementalResultStore,
    LedgerError,
    ServiceClient,
    config_from_wire,
    config_to_wire,
    outcome_from_wire,
    outcome_to_wire,
    record_from_wire,
    record_to_wire,
    run_resumable_campaign,
    run_worker,
    shard_from_wire,
    shard_to_wire,
    start_service,
)
from repro.faults.service import http as service_http
from repro.faults.service.client import ServiceError
from repro.faults.service.runner import ledger_digest

#: Small enough that a full crash-recovery sweep stays in seconds,
#: large enough to produce errors in every shard.
CRASH_CONFIG = CampaignConfig(
    benchmarks=("ttsprk",),
    soft_per_flop=1,
    hard_per_flop=1,
    flop_fraction=0.02,
    max_observe=300,
)

#: Fixed shard granularity so the sweep covers a known shard count.
CRASH_CHUNK = 12

#: sha256 of every file ``run_resumable_campaign(CRASH_CONFIG,
#: plan=ExecPlan(chunk_flops=CRASH_CHUNK))`` writes.  Pinned so the
#: on-disk bytes never change by accident: a ledger written by an
#: earlier version must resume on a later one.
LEDGER_SHA256 = {
    "manifest.json":
        "0b1b2542fa5999dbbab363bb14247f8da9975551cc746b22399c5a07dbe5a5d2",
    "shard_00000.json":
        "68ad8a5299d487cb54e0134e1ab2f9ca5df98dfc76ce6e8a6c6f6ce77de777cd",
    "shard_00001.json":
        "ca329c09375047f9cb59726767e2ff648eadba566e2a6e2abbf86b72a86dcc8c",
    "shard_00002.json":
        "686812b86e10c3bdfccb26c38b8d79b73b2f46d320d26519a6d7a4af46471395",
    "shard_00003.json":
        "d356b2c3c2a7bb46a67f5c91c6a1922fa7143b556357b638ffc4da2b6cde1e1d",
}


class Killed(Exception):
    """The simulated crash signal."""


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted monolithic result the ledger path must match,
    on the scalar engine."""
    return execute_campaign(CRASH_CONFIG, plan=ExecPlan(batch=0))


@pytest.fixture(scope="module")
def n_shards():
    from repro.faults.campaign import sample_flops
    from repro.faults.parallel import sampling_rng

    flops = sample_flops(CRASH_CONFIG, sampling_rng(CRASH_CONFIG.seed))
    return -(-len(flops) // CRASH_CHUNK)


# -- crash recovery ----------------------------------------------------------

@pytest.mark.parametrize("workers,batch", [(1, 0), (2, 0),
                                           (1, 8), (2, 8)],
                         ids=["w1-scalar", "w2-scalar", "w1-batch", "w2-batch"])
def test_kill_at_every_shard_boundary(tmp_path, reference, n_shards,
                                      workers, batch):
    """Kill after k commits for every k; resume must match bit for bit."""
    assert n_shards >= 3, "sweep needs several shards to mean anything"
    plan = ExecPlan(workers=workers, batch=batch, chunk_flops=CRASH_CHUNK)
    for k in range(1, n_shards):
        ledger_dir = tmp_path / f"k{k}"

        def kill_after(shard_id, n_committed, k=k):
            if n_committed >= k:
                raise Killed(f"killed after {n_committed} commits")

        with pytest.raises(Killed):
            run_resumable_campaign(CRASH_CONFIG, ledger_dir=str(ledger_dir),
                                   plan=plan, on_commit=kill_after)
        resumed = run_resumable_campaign(
            CRASH_CONFIG, ledger_dir=str(ledger_dir), plan=plan)
        assert resumed.meta["resumed_shards"] >= k
        assert resumed.digest() == reference.digest()
        assert resumed.injected == reference.injected
        assert resumed.golden_cycles == reference.golden_cycles


@pytest.mark.parametrize("batch", [0, 8], ids=["scalar", "batch"])
def test_kill_mid_lease(tmp_path, reference, n_shards, monkeypatch, batch):
    """Die *inside* a leased shard (no commit); resume re-runs it exactly."""
    plan = ExecPlan(batch=batch, chunk_flops=CRASH_CHUNK)
    for die_at in (0, n_shards // 2):
        ledger_dir = tmp_path / f"mid{die_at}"
        real_run_shard = run_shard
        state = {"executed": 0}

        def exploding_run_shard(config, shard, plan=None):
            if state["executed"] == die_at:
                raise Killed(f"killed mid-lease in shard {shard.flop_base}")
            state["executed"] += 1
            return real_run_shard(config, shard, plan)

        # Patched where the one shard loop looks it up.
        monkeypatch.setattr(parallel, "run_shard", exploding_run_shard)
        with pytest.raises(Killed):
            run_resumable_campaign(CRASH_CONFIG, ledger_dir=str(ledger_dir),
                                   plan=plan)
        monkeypatch.setattr(parallel, "run_shard", real_run_shard)
        resumed = run_resumable_campaign(
            CRASH_CONFIG, ledger_dir=str(ledger_dir), plan=plan)
        assert resumed.meta["resumed_shards"] == die_at
        assert resumed.digest() == reference.digest()


def test_repeated_kills_still_converge(tmp_path, reference):
    """Kill after every single commit, resuming each time."""
    ledger_dir = str(tmp_path / "ledger")

    def kill_every_commit(shard_id, n_committed):
        raise Killed

    plan = ExecPlan(chunk_flops=CRASH_CHUNK)
    result = None
    for _attempt in range(64):  # bounded: one shard of progress per attempt
        try:
            result = run_resumable_campaign(
                CRASH_CONFIG, ledger_dir=ledger_dir, plan=plan,
                on_commit=kill_every_commit)
            break
        except Killed:
            continue
    else:
        pytest.fail("campaign never completed")
    # The final (uninterrupted-tail) attempt commits the last shard and
    # returns; every earlier attempt contributed exactly one shard.
    assert result is None or result.digest() == reference.digest()
    final = run_resumable_campaign(CRASH_CONFIG, ledger_dir=ledger_dir,
                                   plan=plan)
    assert final.digest() == reference.digest()


@pytest.fixture(scope="module")
def chunked_reference():
    """The scalar, serial, monolithic run at the crash chunking."""
    return execute_campaign(CRASH_CONFIG,
                            plan=ExecPlan(batch=0, chunk_flops=CRASH_CHUNK))


@pytest.mark.parametrize("batch", [0, None], ids=["scalar", "default"])
@pytest.mark.parametrize("workers", [1, 2], ids=["w1", "w2"])
@pytest.mark.parametrize("driver", ["execute", "ledger"])
def test_uninterrupted_matches_monolithic_and_pruning(
        tmp_path, reference, chunked_reference, n_shards, driver, workers,
        batch):
    """Same chunking => identical records AND identical PruneStats, for
    either driver on any plan; the meta records the plan that ran."""
    plan = ExecPlan(workers=workers, batch=batch, chunk_flops=CRASH_CHUNK)
    if driver == "execute":
        result = execute_campaign(CRASH_CONFIG, plan=plan)
    else:
        result = run_resumable_campaign(CRASH_CONFIG,
                                        ledger_dir=str(tmp_path), plan=plan)
        assert result.meta["resumed_shards"] == 0
    mono = chunked_reference
    assert result.digest() == reference.digest()
    assert result.records == mono.records
    assert result.injected == mono.injected
    assert result.golden_cycles == mono.golden_cycles
    assert result.sampled_flops == mono.sampled_flops
    assert result.meta["pruning"] == mono.meta["pruning"]
    lanes = (DEFAULT_BATCH if batch is None else batch) or None
    if not cext_available():
        lanes = None
    expected = {"workers": workers, "chunk_flops": CRASH_CHUNK,
                "n_shards": n_shards, "batch": lanes,
                "kernel": "cext" if lanes else None}
    assert {key: result.meta[key] for key in expected} == expected


def test_ledger_rejects_out_of_range_chunk(tmp_path):
    """``repro serve --chunk-flops 0`` used to plan one-flop shards."""
    for chunk in (0, -4):
        with pytest.raises(ValueError, match="^chunk_flops must be >= 1"):
            CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=chunk)
    assert not any(tmp_path.iterdir())


def test_pooled_worker_matches_reference(tmp_path, reference):
    """A remote worker runs its leases through the same shard loop, so
    a pool of runners commits the same campaign."""
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    handle = start_service(CampaignService(ledger))
    try:
        committed = run_worker(handle.base_url, "pool",
                               plan=ExecPlan(workers=2))
        assert committed == ledger.n_shards
        with ServiceClient(handle.base_url) as client:
            assert client.status()["digest"] == reference.digest()
    finally:
        handle.stop()


def test_drivers_print_the_same_final_progress_line(tmp_path, capsys):
    """One progress printer: the monolithic and the ledger driver end on
    the same line (errors, pruned, equiv, saved) apart from the time."""
    config = CampaignConfig.quick()
    execute_campaign(config, progress=True)
    mono = capsys.readouterr().out.splitlines()[-1]
    run_resumable_campaign(config, ledger_dir=str(tmp_path), progress=True)
    ledgered = capsys.readouterr().out.splitlines()[-1]
    assert " pruned=" in mono and " equiv=" in mono and " saved=" in mono
    assert mono.rsplit(" t=", 1)[0] == ledgered.rsplit(" t=", 1)[0]


def test_commit_durability_is_atomic(tmp_path):
    """A torn (partially written) shard file can never be observed.

    The commit protocol writes a temp file and renames; this asserts
    the directory never contains a shard file that fails to parse,
    even with commits landing between scans, and that stray temp files
    from a killed writer are swept on reopen.
    """
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    grant = ledger.lease("w")
    outcome = run_shard(CRASH_CONFIG, grant.shard)
    ledger.commit(grant.shard_id, outcome)
    for shard_file in ledger.path.glob("shard_*.json"):
        json.loads(shard_file.read_text())  # parses or the test fails
    # Simulate a writer killed mid-write: a stray temp file.
    stray = ledger.path / ".shard_00099.json.tmp-12345"
    stray.write_text("{ torn")
    reopened = CampaignLedger(tmp_path, CRASH_CONFIG)
    assert not stray.exists()
    assert reopened.committed_ids == [grant.shard_id]
    reloaded = reopened.load_outcome(grant.shard_id)
    assert reloaded[0] == outcome[0]
    assert reloaded[1] == outcome[1]


def test_ledger_files_are_byte_identical_to_pinned(tmp_path):
    run_resumable_campaign(CRASH_CONFIG, ledger_dir=str(tmp_path),
                           plan=ExecPlan(chunk_flops=CRASH_CHUNK))
    (ledger_path,) = tmp_path.iterdir()
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in ledger_path.iterdir()}
    assert written == LEDGER_SHA256


def test_ledger_rejects_foreign_manifest(tmp_path):
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    manifest = json.loads((ledger.path / "manifest.json").read_text())
    manifest["cache_key"] = "0" * 16
    (ledger.path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(LedgerError, match="belongs to campaign"):
        CampaignLedger(tmp_path, CRASH_CONFIG)
    (ledger.path / "manifest.json").write_text("not json at all")
    with pytest.raises(LedgerError, match="corrupt ledger manifest"):
        CampaignLedger(tmp_path, CRASH_CONFIG)


@pytest.mark.parametrize("field,value", (
    ("max_observe", -5), ("intervals", 0), ("soft_per_flop", -1),
    ("flop_fraction", 0.0)))
def test_ledger_refuses_out_of_range_manifest_config(tmp_path, field, value):
    """A manifest whose embedded config ``CampaignConfig`` refuses is a
    ``LedgerError``, not a ``ValueError`` from deep inside a resume."""
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    path = ledger.path / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"][field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(LedgerError, match=field):
        CampaignLedger(tmp_path, CRASH_CONFIG)


def test_incomplete_ledger_refuses_result(tmp_path):
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    with pytest.raises(RuntimeError, match="incomplete"):
        ledger_digest(ledger)


# -- lease state machine -----------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def test_lease_expiry_reclamation(tmp_path):
    """A dead worker's shard goes back to pending after its TTL."""
    clock = FakeClock()
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK,
                            clock=clock)
    dead = ledger.lease("dead-worker", ttl=30.0)
    live = ledger.lease("live-worker", ttl=30.0)
    assert dead.shard_id != live.shard_id
    # While the lease is active the shard is not handed out again.
    others = set()
    while (g := ledger.lease("scout", ttl=1.0)) is not None:
        others.add(g.shard_id)
    assert dead.shard_id not in others
    # TTL passes without a commit: the next lease call reclaims it.
    clock.now += 31.0
    reclaimed = ledger.lease("live-worker", ttl=30.0)
    assert reclaimed is not None
    assert reclaimed.shard_id == dead.shard_id
    # The reclaiming worker commits; the dead worker's late commit is a
    # dropped duplicate (identical bytes anyway), never a double count.
    outcome = run_shard(CRASH_CONFIG, reclaimed.shard)
    assert ledger.commit(reclaimed.shard_id, outcome) is True
    assert ledger.commit(dead.shard_id, outcome) is False
    assert ledger.progress()["committed"] == 1


def test_lease_progress_counts(tmp_path):
    clock = FakeClock()
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK,
                            clock=clock)
    total = ledger.n_shards
    ledger.lease("w1", ttl=10.0)
    state = ledger.progress()
    assert state == {"n_shards": total, "committed": 0, "leased": 1,
                     "pending": total - 1, "complete": False}
    clock.now += 11.0
    assert ledger.progress()["leased"] == 0
    assert ledger.progress()["pending"] == total


# -- incremental merge: commutative / associative ----------------------------

@pytest.fixture(scope="module")
def committed_outcomes(tmp_path_factory, reference):
    """All shard outcomes of the crash campaign, via a completed ledger."""
    root = tmp_path_factory.mktemp("merge_ledger")
    run_resumable_campaign(CRASH_CONFIG, ledger_dir=str(root),
                           plan=ExecPlan(chunk_flops=CRASH_CHUNK))
    ledger = CampaignLedger(root, CRASH_CONFIG)
    return [(sid, ledger.shards[sid].benchmark, outcome)
            for sid, outcome in ledger.iter_committed()]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_merge_order_invariance(committed_outcomes, reference, data):
    """Any commit permutation yields the identical result and digest."""
    order = data.draw(st.permutations(range(len(committed_outcomes))))
    store = IncrementalResultStore(CRASH_CONFIG)
    for i in order:
        shard_id, benchmark, outcome = committed_outcomes[i]
        assert store.add(shard_id, benchmark, outcome) is True
    result = store.result()
    assert result.digest() == reference.digest()
    assert result.injected == reference.injected
    assert result.meta["pruning"] == _summed_pruning(committed_outcomes)
    # Duplicate replay changes nothing.
    sid0, bench0, out0 = committed_outcomes[0]
    assert store.add(sid0, bench0, out0) is False
    assert store.result().digest() == reference.digest()


def _summed_pruning(outcomes):
    total: dict[str, int] = {}
    for _sid, _bench, (_r, _i, _n, pruning) in outcomes:
        for key, count in pruning.items():
            total[key] = total.get(key, 0) + count
    return total


def test_merge_associativity_via_partial_stores(committed_outcomes, reference):
    """Merging pre-grouped halves equals merging everything directly."""
    groups = ([], [])
    for index, item in enumerate(committed_outcomes):
        groups[index % 2].append(item)
    combined = IncrementalResultStore(CRASH_CONFIG)
    for group in groups:  # group order reversed relative to commit order
        for sid, bench, outcome in reversed(group):
            combined.add(sid, bench, outcome)
    assert combined.result().digest() == reference.digest()


# -- wire format round trips -------------------------------------------------

def test_record_wire_roundtrip(reference):
    for record in reference.records:
        assert record_from_wire(record_to_wire(record)) == record
    # JSON round trip too (the wire rows must survive serialisation).
    rows = json.loads(json.dumps([record_to_wire(r) for r in reference.records]))
    assert [record_from_wire(row) for row in rows] == reference.records


def test_outcome_wire_roundtrip(tmp_path):
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    grant = ledger.lease("w")
    outcome = run_shard(CRASH_CONFIG, grant.shard)
    payload = json.loads(json.dumps(outcome_to_wire(outcome)))
    records, injected, n_cycles, pruning = outcome_from_wire(payload)
    assert records == outcome[0]
    assert injected == outcome[1]
    assert n_cycles == outcome[2]
    assert pruning == outcome[3]
    with pytest.raises(ValueError, match="unsupported outcome schema"):
        outcome_from_wire({**payload, "schema": 99})


def test_config_and_shard_wire_roundtrip(tmp_path):
    for config in (CRASH_CONFIG, CampaignConfig.quick(),
                   dataclasses.replace(CampaignConfig.default(), prune=False)):
        clone = config_from_wire(json.loads(json.dumps(config_to_wire(config))))
        assert clone == config
        assert clone.cache_key() == config.cache_key()
    with pytest.raises(ValueError, match="unknown campaign config fields"):
        config_from_wire({"benchmarks": ["ttsprk"], "warp_factor": 9})
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    for shard in ledger.shards:
        assert shard_from_wire(json.loads(
            json.dumps(shard_to_wire(shard)))) == shard


# -- HTTP API ----------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_service(tmp_path_factory, reference):
    """A served campaign, complete and ready to predict (Top-K=3)."""
    root = tmp_path_factory.mktemp("served_ledger")
    run_resumable_campaign(CRASH_CONFIG, ledger_dir=str(root),
                           plan=ExecPlan(chunk_flops=CRASH_CHUNK))
    service = CampaignService(CampaignLedger(root, CRASH_CONFIG), top_k=3)
    handle = start_service(service)
    yield service, handle
    handle.stop()


def test_http_full_campaign_through_lease_api(tmp_path, reference):
    """A remote worker drives the whole campaign over HTTP."""
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    handle = start_service(CampaignService(ledger))
    try:
        with ServiceClient(handle.base_url) as client:
            assert client.status()["training"] is True
            assert client.config() == CRASH_CONFIG
            committed = run_worker(handle.base_url, "remote-1")
            assert committed == ledger.n_shards
            status = client.status()
        assert status["progress"]["complete"] is True
        assert status["training"] is False
        assert status["digest"] == reference.digest()
        assert status["errors"] == reference.n_errors
    finally:
        handle.stop()


def test_http_503_while_training(tmp_path):
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    handle = start_service(CampaignService(ledger))
    try:
        with ServiceClient(handle.base_url) as client:
            for call in (lambda: client.predict({1, 2}), client.table):
                with pytest.raises(ServiceError) as excinfo:
                    call()
                assert excinfo.value.status == 503
                assert excinfo.value.retry_after is not None
    finally:
        handle.stop()


def test_http_error_paths(trained_service):
    _service, handle = trained_service
    with ServiceClient(handle.base_url) as client:
        cases = [
            ("GET", "/predict", 400),                 # missing dsr
            ("GET", "/predict?dsr=3,foo", 400),       # malformed signature
            ("GET", "/predict?dsr=3;4", 400),         # wrong separator
            ("GET", "/nonsense", 404),
            ("POST", "/predict", 405),                # wrong method
            ("GET", "/lease", 405),
        ]
        for method, path, expected in cases:
            with pytest.raises(ServiceError) as excinfo:
                client.request(method, path, {} if method == "POST" else None)
            assert excinfo.value.status == expected, (method, path)
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/commit", {"shard_id": "x", "outcome": {}})
        assert excinfo.value.status == 400
        # A TTL that is not a positive finite number; NaN and Infinity are
        # what ``json`` parses the bare tokens to, and would grant a lease
        # that never expires.
        for ttl in (-5, float("nan"), float("inf"), "abc"):
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/lease", {"ttl": ttl})
            assert excinfo.value.status == 400, ttl


def test_http_concurrent_lookups_consistent(trained_service, reference):
    """>= 32 in-flight requests all answer exactly like the offline table."""
    _service, handle = trained_service
    offline = train_predictor(reference.records, top_k=3)
    signatures = sorted({r.diverged for r in reference.records},
                        key=lambda s: (len(s), sorted(s)))[:8]
    signatures.append(frozenset({0, 61}))  # never-observed -> default entry
    n_threads = 32
    answers: list[list] = [None] * n_threads
    errors: list[Exception] = []
    barrier = threading.Barrier(n_threads)

    def worker(index: int):
        try:
            with ServiceClient(handle.base_url) as client:
                barrier.wait(timeout=30)
                answers[index] = [client.predict(sig) for sig in signatures]
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    assert all(answer is not None for answer in answers)
    expected = []
    for sig in signatures:
        prediction = offline.predict(sig)
        expected.append((list(prediction.units), prediction.error_type.value,
                         prediction.from_default))
    for answer in answers:
        got = [(a["units"], a["error_type"], a["from_default"])
               for a in answer]
        assert got == expected


def test_http_topk_matches_offline_table(trained_service, reference):
    """Offline-trained and HTTP-served tables give identical Top-K orders."""
    _service, handle = trained_service
    offline = train_predictor(reference.records, top_k=3)
    with ServiceClient(handle.base_url) as client:
        # Via /predict:
        for sig in {r.diverged for r in reference.records}:
            served = client.predict(sig)
            prediction = offline.predict(sig)
            assert tuple(served["units"]) == prediction.units
            assert served["error_type"] == prediction.error_type.value
        # Via /table payload round trip:
        rebuilt, fine = table_from_payload(client.table())
    assert fine is False
    for sig in {r.diverged for r in reference.records} | {frozenset({7, 9})}:
        assert rebuilt.lookup(sig) == offline.table.lookup(sig)


def test_table_payload_roundtrip(reference):
    predictor = train_predictor(reference.records, fine=True, top_k=5)
    payload = json.loads(json.dumps(table_to_payload(predictor.table, True)))
    rebuilt, fine = table_from_payload(payload)
    assert fine is True
    assert rebuilt.n_units == predictor.table.n_units
    assert len(rebuilt) == len(predictor.table)
    for sig in {r.diverged for r in reference.records}:
        assert rebuilt.lookup(sig) == predictor.table.lookup(sig)
    with pytest.raises(ValueError, match="unsupported table payload schema"):
        table_from_payload({**payload, "schema": 42})


def test_server_restart_preserves_state(tmp_path, reference):
    """Kill the server (SIGKILL analogue: drop it), restart, resume."""
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    handle = start_service(CampaignService(ledger))
    with ServiceClient(handle.base_url) as client:
        run_worker(handle.base_url, "w1", max_shards=2)
        assert client.status()["progress"]["committed"] == 2
    handle.stop()  # server gone; ledger survives on disk
    reopened = CampaignLedger(tmp_path, CRASH_CONFIG)
    assert reopened.n_committed == 2
    handle2 = start_service(CampaignService(reopened))
    try:
        run_worker(handle2.base_url, "w2")
        with ServiceClient(handle2.base_url) as client:
            status = client.status()
        assert status["progress"]["complete"] is True
        assert status["digest"] == reference.digest()
    finally:
        handle2.stop()


# -- persistent connections and request framing ------------------------------

@pytest.fixture
def live_service(tmp_path):
    """A served campaign with no shard committed yet."""
    service = CampaignService(
        CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK))
    handle = start_service(service)
    yield service, handle
    handle.stop()


def _connect(handle) -> socket.socket:
    return socket.create_connection((handle.host, handle.port), timeout=10)


def _exchange(sock: socket.socket, request: bytes) -> tuple[int, str, dict]:
    """Send one raw request; return (status, Connection header, payload)."""
    sock.sendall(request)
    response = http.client.HTTPResponse(sock)
    response.begin()
    payload = json.loads(response.read())
    response.close()
    return response.status, response.getheader("Connection"), payload


def _at_eof(sock: socket.socket) -> bool:
    return sock.recv(1) == b""


STATUS = b"GET /status HTTP/1.1\r\nHost: t\r\n\r\n"


def _post(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


@pytest.mark.parametrize("request_bytes,expected", [
    (b"POST /lease HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n", 400),
    (b"POST /lease HTTP/1.1\r\nHost: t\r\nContent-Length: 2x\r\n\r\n{}", 400),
    (b"POST /lease HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n"
     b"Content-Length: 40\r\n\r\n{}", 400),
    (b"POST /lease HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
     b"2\r\n{}\r\n0\r\n\r\n", 501),
    (f"POST /commit HTTP/1.1\r\nHost: t\r\nContent-Length: "
     f"{service_http.MAX_BODY_BYTES + 1}\r\n\r\n".encode(), 413),
    (b"GET /status\r\n\r\n", 400),
    (b"GET /status HTTP/1.1\r\nHost t\r\n\r\n", 400),
], ids=["negative-length", "non-numeric-length", "conflicting-length",
        "chunked", "too-large", "no-version", "header-without-colon"])
def test_framing_error_answers_then_closes(live_service, request_bytes,
                                           expected):
    """A request whose framing is in doubt is refused and its connection
    closed, so no stray body bytes are read as the next request; a
    chunked ``/lease`` leases nothing."""
    service, handle = live_service
    with _connect(handle) as sock:
        status, connection, payload = _exchange(sock, request_bytes)
        assert (status, connection) == (expected, "close"), payload
        assert _at_eof(sock)
    with ServiceClient(handle.base_url) as client:
        assert client.status()["progress"]["leased"] == 0


def test_oversized_body_is_refused_while_it_arrives(live_service, monkeypatch):
    """A framing error found while the body is still arriving is
    answered, and the rest of the body read away before the connection
    closes.  Closing on unread bytes resets the connection: the client
    then took the reset for an idle close and sent the request again."""
    service, handle = live_service
    monkeypatch.setattr(service_http, "MAX_BODY_BYTES", 1024)
    with ServiceClient(handle.base_url) as client:
        client.status()
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/commit", {"pad": "x" * (4 << 20)})
    assert excinfo.value.status == 413
    assert (service.http["connections"], service.http["requests"]) == (1, 2)


@pytest.mark.parametrize("request_bytes,expected", [
    (_post("/lease", b"{not json"), 400),
    (_post("/lease", b"[1, 2]"), 400),
    (b"GET /predict?dsr=3;4 HTTP/1.1\r\nHost: t\r\n\r\n", 400),
    (b"GET /nonsense HTTP/1.1\r\nHost: t\r\n\r\n", 404),
    (b"GET /lease HTTP/1.1\r\nHost: t\r\n\r\n", 405),
    (_post("/commit", json.dumps({
        "shard_id": 10_000,
        "outcome": outcome_to_wire(([], {}, 0, {}))}).encode()), 409),
    (b"GET /predict?dsr=1 HTTP/1.1\r\nHost: t\r\n\r\n", 503),
], ids=["bad-json", "json-not-object", "bad-dsr", "404", "405", "409", "503"])
def test_error_after_a_full_read_keeps_the_connection(live_service,
                                                      request_bytes, expected):
    _service, handle = live_service
    with _connect(handle) as sock:
        status, connection, _payload = _exchange(sock, request_bytes)
        assert (status, connection) == (expected, "keep-alive")
        status, connection, payload = _exchange(sock, STATUS)
        assert (status, connection) == (200, "keep-alive")
        assert payload["http"] == {"connections": 1, "open": 1, "requests": 2}


@pytest.mark.parametrize("request_bytes", [
    b"GET /status HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    b"GET /status HTTP/1.0\r\n\r\n",
], ids=["connection-close", "http-1.0"])
def test_client_asked_close_answers_close_then_eof(live_service,
                                                   request_bytes):
    _service, handle = live_service
    with _connect(handle) as sock:
        status, connection, _payload = _exchange(sock, request_bytes)
        assert (status, connection) == (200, "close")
        assert _at_eof(sock)


def _read_answers(sock: socket.socket, n: int) -> list[tuple[int, str, dict]]:
    """Read ``n`` answers in a row: (status, Connection header, payload)."""
    answers = []
    with sock.makefile("rb") as reader:
        for _ in range(n):
            status = int(reader.readline().split()[1])
            headers = {}
            while (line := reader.readline()) != b"\r\n":
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.lower()] = value.strip()
            payload = json.loads(reader.read(int(headers["content-length"])))
            answers.append((status, headers["connection"], payload))
    return answers


def _send_in_pieces(sock: socket.socket, pieces) -> None:
    """Send each piece on its own, so the server reads them apart."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    for piece in pieces:
        sock.sendall(piece)
        time.sleep(0.002)


def test_request_delivered_one_byte_per_send(live_service):
    _service, handle = live_service
    request = _post("/lease", b'{"worker": "bytewise", "ttl": 60}')
    with _connect(handle) as sock:
        _send_in_pieces(sock, [request[i:i + 1] for i in range(len(request))])
        [(status, connection, granted)] = _read_answers(sock, 1)
        assert (status, connection) == (200, "keep-alive")
        assert granted["shard_id"] == 0
        _status, _connection, payload = _exchange(sock, STATUS)
        assert payload["progress"]["leased"] == 1
        assert payload["http"] == {"connections": 1, "open": 1, "requests": 2}


def test_pipelined_requests_are_answered_in_order(live_service):
    _service, handle = live_service
    with _connect(handle) as sock:
        sock.sendall(_post("/lease", b'{"worker": "piped"}') + STATUS)
        (lease_status, _, granted), (status, connection, payload) = \
            _read_answers(sock, 2)
        assert (lease_status, granted["shard_id"]) == (200, 0)
        assert (status, connection) == (200, "keep-alive")
        assert payload["progress"]["leased"] == 1
        assert payload["http"]["requests"] == 2


def test_commit_body_split_across_sends(live_service):
    service, handle = live_service
    with ServiceClient(handle.base_url) as client:
        grant = client.lease("splitter")
    outcome = run_shard(CRASH_CONFIG, shard_from_wire(grant["shard"]))
    body = json.dumps({"shard_id": grant["shard_id"],
                       "outcome": outcome_to_wire(outcome)}).encode()
    request = _post("/commit", body)
    head = len(request) - len(body)
    quarter = len(body) // 4
    cuts = [0, head + 10, head + quarter, head + 3 * quarter, len(request)]
    with _connect(handle) as sock:
        _send_in_pieces(sock, [request[a:b] for a, b in zip(cuts, cuts[1:])])
        [(status, connection, payload)] = _read_answers(sock, 1)
    assert (status, connection) == (200, "keep-alive"), payload
    assert payload["status"] == "committed"
    assert service.ledger.n_committed == 1


def test_head_over_the_limit_answers_400_then_closes(live_service):
    """A head must end within ``MAX_HEAD_BYTES``; one that ends exactly
    there is served."""
    _service, handle = live_service
    limit = service_http.MAX_HEAD_BYTES
    start = b"GET /status HTTP/1.1\r\nX-Pad: "
    with _connect(handle) as sock:
        fits = start + b"a" * (limit - len(start) - 4) + b"\r\n\r\n"
        assert len(fits) == limit
        assert _exchange(sock, fits)[:2] == (200, "keep-alive")
        status, connection, payload = _exchange(
            sock, start + b"a" * (limit - len(start)))
        assert (status, connection) == (400, "close"), payload
        assert _at_eof(sock)


def _settled(read, deadline_s: float = 10.0):
    """Poll ``read()`` until it returns the same value four times running."""
    deadline = time.monotonic() + deadline_s
    values = [read()]
    while len(values) < 4 or len(set(values[-4:])) > 1:
        assert time.monotonic() < deadline, f"never settled: {values[-4:]}"
        time.sleep(0.05)
        values.append(read())
    return values[-1]


def test_backpressure_stops_reading_until_the_client_reads(live_service):
    """Requests sent without reading the answers: once the transport's
    write buffer is full the server stops reading and answering, and it
    answers every request, in order, once the client reads."""
    service, handle = live_service
    n = 2000
    with socket.socket() as sock:
        # Small socket buffers at both ends, so the answers back up into
        # the server's transport instead of the kernel's (loopback grows
        # a send buffer to megabytes).
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(10)
        sock.connect((handle.host, handle.port))
        deadline = time.monotonic() + 10
        while not service._open and time.monotonic() < deadline:
            time.sleep(0.01)
        [connection] = service._open
        connection.transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock.sendall(STATUS * n)
        answered = _settled(lambda: service.http["requests"])
        assert 0 < answered < n
        assert not connection.transport.is_reading()
        answers = _read_answers(sock, n)
    assert {status for status, _connection, _payload in answers} == {200}
    assert [payload["http"]["requests"] for _status, _connection, payload
            in answers] == list(range(1, n + 1))


def test_stdlib_client_gets_a_get_and_a_post_over_one_connection(live_service):
    """An independent client, ``http.client``, interoperates."""
    _service, handle = live_service
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
    try:
        conn.request("GET", "/config")
        response = conn.getresponse()
        assert (response.status, response.will_close) == (200, False)
        payload = json.loads(response.read())
        assert config_from_wire(payload["config"]) == CRASH_CONFIG
        conn.request("POST", "/lease", body=json.dumps({"worker": "stdlib"}),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert (response.status, response.will_close) == (200, False)
        assert json.loads(response.read())["shard_id"] == 0
        conn.request("GET", "/status")
        counters = json.loads(conn.getresponse().read())["http"]
    finally:
        conn.close()
    assert counters == {"connections": 1, "open": 1, "requests": 3}


def test_predict_decodes_percent_encoded_query(trained_service, reference):
    """``urlencode`` spells a DSR ``3%2C17``; both spellings, and a
    blank ``dsr=`` for the empty set, answer alike."""
    _service, handle = trained_service
    signature = max((r.diverged for r in reference.records), key=len)
    plain = ",".join(str(sc) for sc in sorted(signature))
    encoded = urlencode({"dsr": plain})
    assert "%2C" in encoded
    with ServiceClient(handle.base_url) as client:
        assert client.request("GET", f"/predict?{encoded}") == \
            client.request("GET", f"/predict?dsr={plain}") == \
            client.predict(signature)
        assert client.request("GET", "/predict?dsr=") == \
            client.predict(frozenset())


def test_worker_and_lookups_each_reuse_one_connection(tmp_path):
    """A worker over a whole ledger plus K lookups: two connections."""
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    handle = start_service(CampaignService(ledger))
    lookups = 25
    try:
        assert run_worker(handle.base_url, "solo") == ledger.n_shards
        with ServiceClient(handle.base_url) as client:
            for _ in range(lookups):
                client.predict(frozenset())
            counters = client.status()["http"]
    finally:
        handle.stop()
    # The worker: /config, a /lease and a /commit per shard, and the
    # /lease that found none left.
    worker_requests = 1 + 2 * ledger.n_shards + 1
    assert counters["connections"] == 2
    assert counters["requests"] == worker_requests + lookups + 1


def test_idle_connection_is_closed_and_the_client_retries(live_service,
                                                          monkeypatch):
    service, handle = live_service
    monkeypatch.setattr(service_http, "IDLE_TIMEOUT_S", 0.2)
    with ServiceClient(handle.base_url) as client:
        client.status()
        deadline = time.monotonic() + 10
        while service.http["open"] and time.monotonic() < deadline:
            time.sleep(0.05)
        assert service.http["open"] == 0, "idle connection never closed"
        assert client.status()["http"] == \
            {"connections": 2, "open": 1, "requests": 2}


def test_timed_out_request_is_not_retried(live_service, monkeypatch):
    """A timeout may leave the request running: never sent twice."""
    _service, handle = live_service
    release = threading.Event()

    def stalled_config(self):
        release.wait(timeout=30)
        return {}

    with ServiceClient(handle.base_url, timeout=1.0) as client:
        client.status()  # the next request reuses this connection
        monkeypatch.setattr(CampaignService, "handle_config", stalled_config)
        try:
            with pytest.raises(TimeoutError):
                client.request("GET", "/config")
        finally:
            release.set()
    # Any repeat reached the server before this client connected, on
    # the old connection or an earlier new one, so it would show here.
    with ServiceClient(handle.base_url) as client:
        counters = client.status()["http"]
    assert (counters["connections"], counters["requests"]) == (2, 3)


def test_restarted_server_is_reached_through_a_stale_connection(tmp_path):
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    handle = start_service(CampaignService(ledger))
    with ServiceClient(handle.base_url) as client:
        client.status()
        handle.stop()
        handle = start_service(
            CampaignService(CampaignLedger(tmp_path, CRASH_CONFIG)),
            port=handle.port)
        try:
            assert client.status()["http"] == \
                {"connections": 1, "open": 1, "requests": 1}
        finally:
            handle.stop()


def test_stop_closes_idle_connections(tmp_path, caplog):
    """Since Python 3.12 ``Server.wait_closed()`` waits for open
    connections; before it, closing the loop under one left a pending
    task behind."""
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    handle = start_service(CampaignService(ledger))
    with ServiceClient(handle.base_url) as client:
        client.status()  # leaves an idle keep-alive connection open
        with caplog.at_level(logging.INFO, logger="asyncio"):
            start = time.monotonic()
            handle.stop()
            elapsed = time.monotonic() - start
            gc.collect()
    assert elapsed < 1.0
    assert not handle._thread.is_alive()
    assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


# -- the client against a raw-socket server -----------------------------------

def _reply(status: int, body: bytes, **headers: str) -> bytes:
    head = [f"HTTP/1.1 {status} Reason", f"Content-Length: {len(body)}",
            *(f"{name.replace('_', '-')}: {value}"
              for name, value in headers.items())]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


OK = _reply(200, b"{}")


class FakeServer:
    """Answers the n-th request it reads, on any connection, with the
    n-th scripted ``(reply bytes, close after it)``, and records each
    request line with the number of the connection it came on."""

    def __init__(self, script):
        self.script = list(script)
        self.requests: list[tuple[int, bytes]] = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.conns: list[socket.socket] = []
        self.stop = threading.Event()
        self.threads = [threading.Thread(target=self._accept)]
        self.lock = threading.Lock()
        self.threads[0].start()

    def _accept(self) -> None:
        while not self.stop.is_set():
            try:
                conn, _addr = self.listener.accept()
            except TimeoutError:
                continue
            with self.lock:
                self.conns.append(conn)
                thread = threading.Thread(target=self._serve,
                                          args=(conn, len(self.conns) - 1))
                self.threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket, number: int) -> None:
        with conn, conn.makefile("rb") as reader:
            while line := reader.readline():
                length = 0
                while (header := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = header.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                reader.read(length)
                with self.lock:
                    self.requests.append((number, line.rstrip()))
                    if not self.script:
                        return
                    reply, close = self.script.pop(0)
                conn.sendall(reply)
                if close:
                    return

    def __enter__(self) -> FakeServer:
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        self.threads[0].join(timeout=10)
        self.listener.close()
        with self.lock:
            for conn in self.conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # wakes its reader
                except OSError:  # its thread has closed it already
                    pass
        for thread in self.threads:
            thread.join(timeout=10)
            assert not thread.is_alive()


STATUS_LINE = b"GET /status HTTP/1.1"


def test_answer_cut_mid_body_raises_and_is_not_retried():
    cut = _reply(200, b'{"progress": {}}' + b" " * 84)[:-60]
    with FakeServer([(OK, False), (cut, True)]) as server:
        with ServiceClient(server.url, timeout=5) as client:
            assert client.status() == {}
            with pytest.raises(ConnectionError, match="into a 100-byte body"):
                client.status()
    assert server.requests == [(0, STATUS_LINE), (0, STATUS_LINE)]


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 OK\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
], ids=["malformed-status-line", "no-content-length"])
def test_malformed_answer_raises_and_drops_the_connection(reply):
    with FakeServer([(OK, False), (reply, False), (OK, False)]) as server:
        with ServiceClient(server.url, timeout=5) as client:
            client.status()
            with pytest.raises(ConnectionError):
                client.status()
            client.status()
    assert [number for number, _line in server.requests] == [0, 0, 1]


@pytest.mark.parametrize("reply", [
    _reply(200, b"{}", Connection="close"),
    OK.replace(b"HTTP/1.1", b"HTTP/1.0"),
], ids=["connection-close", "http-1.0"])
def test_answer_saying_close_drops_the_connection(reply):
    """The server leaves the connection open; the client drops it."""
    with FakeServer([(reply, False), (OK, False)]) as server:
        with ServiceClient(server.url, timeout=5) as client:
            client.status()
            client.status()
    assert [number for number, _line in server.requests] == [0, 1]


@pytest.mark.parametrize("reply,message,retry_after", [
    (_reply(502, b"<html><body>Bad Gateway</body></html>",
            Content_Type="text/html"),
     "<html><body>Bad Gateway</body></html>", None),
    (_reply(503, b'{"error": "busy"}', Retry_After="7"), "busy", 7.0),
    (_reply(503, b"down", Retry_After="Wed, 21 Oct 2026 07:28:00 GMT"),
     "down", None),
], ids=["html-502", "json-503", "dated-retry-after"])
def test_non_2xx_answer_raises_service_error(reply, message, retry_after):
    with FakeServer([(reply, False)]) as server:
        with ServiceClient(server.url, timeout=5) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.status()
    status = int(reply.split()[1])
    assert str(excinfo.value) == f"HTTP {status}: {message}"
    assert (excinfo.value.status, excinfo.value.retry_after) == \
        (status, retry_after)


@pytest.mark.parametrize("base_url", [
    "127.0.0.1:8322", "http://127.0.0.1:8322", "http://127.0.0.1:8322/",
    "localhost", "http://localhost/", "[::1]:8322", "http://[::1]:8322/",
])
def test_url_forms_parse_as_http_client_parses_them(base_url):
    netloc = base_url.split("://", 1)[-1].rstrip("/")
    reference = http.client.HTTPConnection(netloc)
    client = ServiceClient(base_url)
    assert (client.host, client.port) == (reference.host, reference.port)
