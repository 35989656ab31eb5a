"""Resumable campaign service: crash recovery, merging, HTTP API.

The contract under test is the acceptance criterion of the service
layer: *killing the campaign runner at any shard boundary or mid-lease
and resuming yields a ``CampaignResult.digest()`` bit-identical to an
uninterrupted run*, across worker counts and engines — plus the lease
state machine, the commutative/associative incremental merge, and the
HTTP endpoints (concurrent lookups, 503-while-training, malformed
signatures, offline-vs-served Top-K parity).
"""

from __future__ import annotations

import dataclasses
import json
import threading

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
from repro.faults.service.client import ServiceError
from repro.faults.service.runner import ledger_digest, result_from_ledger

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
    threads = result.meta["threads"]
    assert threads is None if lanes is None else threads >= 1


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
        assert ServiceClient(handle.base_url).status()["digest"] == \
            reference.digest()
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


def test_incomplete_ledger_refuses_result(tmp_path):
    ledger = CampaignLedger(tmp_path, CRASH_CONFIG, chunk_flops=CRASH_CHUNK)
    with pytest.raises(RuntimeError, match="incomplete"):
        result_from_ledger(ledger)
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
        client = ServiceClient(handle.base_url)
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
        client = ServiceClient(handle.base_url)
        for call in (lambda: client.predict({1, 2}), client.table):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
    finally:
        handle.stop()


def test_http_error_paths(trained_service):
    _service, handle = trained_service
    client = ServiceClient(handle.base_url)
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
            client = ServiceClient(handle.base_url)
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
    client = ServiceClient(handle.base_url)
    offline = train_predictor(reference.records, top_k=3)
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
    client = ServiceClient(handle.base_url)
    run_worker(handle.base_url, "w1", max_shards=2)
    assert client.status()["progress"]["committed"] == 2
    handle.stop()  # server gone; ledger survives on disk
    reopened = CampaignLedger(tmp_path, CRASH_CONFIG)
    assert reopened.n_committed == 2
    handle2 = start_service(CampaignService(reopened))
    try:
        run_worker(handle2.base_url, "w2")
        status = ServiceClient(handle2.base_url).status()
        assert status["progress"]["complete"] is True
        assert status["digest"] == reference.digest()
    finally:
        handle2.stop()
