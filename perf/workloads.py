"""The benchmark's workloads, run inside fresh child processes.

A child sets up (imports, kernel resolution, golden traces), then runs
the workload's timed operation once with the library's defaults.  Once
timing (and tracing) is over, ``check`` verifies what it produced.
``run.py`` times a reference loop around each operation and reports
the median ratio of the two.  Nothing here passes an
engine, kernel, batch, executor or thread knob: the numbers are those
of the defaults.

Why these workloads:

* ``paper-analysis`` is the analysis share of regenerating the paper:
  cross-validated evaluations on the paper's committed campaign.  No
  injection happens, so an engine change should show none.
* ``inject-deep`` is one deep campaign.  Injection is nearly all of its
  time and analysis does no work, so engine and scheduling changes show
  in full and an analysis change should show none.
* ``serve-work`` runs the same injection layer through many shallow
  shards leased, executed and committed over HTTP (the write path), then
  answers ``/predict`` lookups from two closed-loop clients (the read
  path).  Per-shard wire and commit costs show here, where deep pools
  amortise them.
* ``paper-regen``, the cold regeneration of all paper artifacts, runs
  when named but is not in ``BENCHMARK.json``: it is one 30-50 s
  operation per run, and on a shared host its run-to-run spread exceeds
  any bound the benchmark may set (see ``README.md``).
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The 15 harness files that regenerate the 17 paper artifacts.
PAPER_BENCHES = (
    "bench_table1_manifestation.py", "bench_table2_latencies.py",
    "bench_table3_type_accuracy.py", "bench_table4_overhead.py",
    "bench_fig4_5_distributions.py", "bench_fig11_lert_7units.py",
    "bench_fig12_13_topk_7units.py", "bench_fig14_lert_13units.py",
    "bench_fig15_16_topk_13units.py", "bench_availability.py",
    "bench_onoffchip.py", "bench_ablation_balance.py",
    "bench_ablation_coverage.py", "bench_ablation_dynamic.py",
    "bench_ablation_lbist.py",
)

#: What they write to ``benchmarks/results/``; each must equal the
#: file committed there.
PAPER_ARTIFACTS = (
    "ablation_balance.txt", "ablation_coverage.txt", "ablation_dynamic.txt",
    "ablation_lbist.txt", "fig11_lert_7units.txt", "fig12_13_topk_7units.txt",
    "fig14_lert_13units.txt", "fig15_16_topk_13units.txt",
    "fig4_hard_distributions.txt", "fig5_soft_distributions.txt",
    "headline_availability.txt", "sec3b_type_signal.txt",
    "sec5b_onoffchip.txt", "table1_manifestation.txt",
    "table2_latencies.txt", "table3_type_accuracy.txt", "table4_overhead.txt",
)

#: Smoke regeneration: the files whose paper-shape assertions still
#: hold on the harness's quick-scale campaign; together they reach
#: every analysis layer.
SMOKE_BENCHES = ("bench_table1_manifestation.py",
                 "bench_fig4_5_distributions.py",
                 "bench_fig12_13_topk_7units.py")

#: The campaign both injection workloads run, in deep shards or in
#: shallow ledger shards.  The fault mix is that of
#: ``CampaignConfig.default()``, which the paper harness runs: 2 soft
#: errors and 1 stuck-at per polarity per flop.  Every flop is sampled
#: (``flop_fraction=1.0``), so the seed moves the fault schedule and the
#: stimulus but not which flops are hit (at 0.35 the simulated cycles
#: moved by up to half).  Over seeds 1-10 ttsprk's simulated cycles
#: spread by 2.5% (interquartile range over median), canrdr's by 5.9%.
CAMPAIGN = dict(benchmarks=("ttsprk",), soft_per_flop=2, hard_per_flop=1,
                flop_fraction=1.0)
#: Flops per ledger shard: many shallow pools, one commit each.
SERVE_CHUNK_FLOPS = 8
#: ``/predict`` load: closed-loop clients, requests each, and the share
#: of requests for DSR sets the campaign produced (the rest are unseen
#: sets answered by the catch-all entry).
CLIENTS = 2
REQUESTS_PER_CLIENT = 1000
SEEN_SHARE = 0.9
#: Table width the service answers with and the offline check trains.
TOP_K = 3

SMOKE = dict(soft_per_flop=1, hard_per_flop=1, flop_fraction=0.01)
SMOKE_REQUESTS_PER_CLIENT = 100


@dataclass
class Op:
    """What one timed operation produced."""

    wall_s: float
    injections: int
    digest: str
    pruning: dict
    #: checks made, and a message for each that failed.
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: workload-specific measurements (latencies, worker rate ...).
    extra: dict = field(default_factory=dict)
    #: what ``check`` needs that is not reported (``/predict`` answers).
    kept: dict = field(default_factory=dict, repr=False)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _warm_up(config) -> None:
    """A tiny campaign on the workload's benchmarks and seed.

    Builds their golden traces into the working directory's cache and
    the process's in-memory one, so the timed campaigns start warm.
    """
    from repro.faults import CampaignConfig, run_campaign

    run_campaign(CampaignConfig(benchmarks=config.benchmarks, seed=config.seed,
                                soft_per_flop=1, hard_per_flop=1,
                                flop_fraction=0.002))


def _planned(config) -> int:
    """Injections the campaign plan calls for."""
    from repro.faults import sample_flops, sampling_rng

    n_flops = len(sample_flops(config, sampling_rng(config.seed)))
    return (len(config.benchmarks) * n_flops
            * (config.soft_per_flop + 2 * config.hard_per_flop))


class PaperRegen:
    """Cold regeneration of the paper artifacts through the harness.

    The harness pins ``CampaignConfig.default()``, so the seed is
    unused.
    """

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        self.root = root
        self.workdir = workdir
        self.smoke = smoke

    def setup(self) -> None:
        import pytest  # noqa: F401
        from repro.faults import kernels

        kernels.resolve_kernel()
        bench_dir = self.workdir / "benchmarks"
        bench_dir.mkdir()
        for name in ("conftest.py",) + (SMOKE_BENCHES if self.smoke
                                        else PAPER_BENCHES):
            shutil.copy2(self.root / "benchmarks" / name, bench_dir / name)
        # An ini file here makes the temp tree pytest's rootdir, so no
        # configuration from the checkout leaks in.
        (self.workdir / "pytest.ini").write_text("[pytest]\n")
        if self.smoke:
            os.environ["REPRO_BENCH_SCALE"] = "quick"

    def run(self) -> Op:
        import pytest

        probe = _harness_probe()
        args = [str(self.workdir / "benchmarks"), "-q",
                "--benchmark-disable", "-p", "no:cacheprovider",
                "-o", "python_files=bench_*.py"]
        start = time.perf_counter()
        exit_code = pytest.main(args, plugins=[probe])
        wall = time.perf_counter() - start

        campaign = probe.campaign
        op = Op(wall_s=wall,
                injections=campaign.n_injected if campaign else 0,
                digest=campaign.digest() if campaign else "",
                pruning=dict(campaign.meta.get("pruning", {})) if campaign else {})
        op.attempted += probe.collected
        op.failures += [f"pytest: {nodeid} failed" for nodeid in probe.failed]
        op.check(exit_code == 0 and probe.collected > 0,
                 f"pytest exited with {exit_code} after {probe.collected} tests")
        op.check(campaign is not None, "harness campaign fixture never ran")
        return op

    def check(self, op: Op) -> None:
        """Every paper artifact is written and equals the committed one.

        The smoke pass runs a few files on the quick-scale campaign, so
        it only checks that they wrote paper artifacts.
        """
        results = self.workdir / "benchmarks" / "results"
        written = sorted(path.name for path in results.glob("*.txt"))
        if self.smoke:
            op.check(bool(written) and set(written) <= set(PAPER_ARTIFACTS),
                     f"smoke regeneration wrote {written}")
            return
        op.check(written == sorted(PAPER_ARTIFACTS),
                 f"artifacts written {written}, expected {sorted(PAPER_ARTIFACTS)}")
        for name in written:
            op.check((results / name).read_bytes()
                     == (self.root / "benchmarks" / "results" / name).read_bytes(),
                     f"artifact {name} differs from benchmarks/results/{name}")


def _harness_probe():
    """A pytest plugin that keeps the harness's campaign and counts tests."""
    import pytest

    class HarnessProbe:
        def __init__(self):
            self.campaign = None
            self.collected = 0
            self.failed: list[str] = []

        def pytest_collection_finish(self, session):
            self.collected = len(session.items)

        def pytest_runtest_logreport(self, report):
            if report.failed and report.nodeid not in self.failed:
                self.failed.append(report.nodeid)

        @pytest.hookimpl(wrapper=True)
        def pytest_fixture_setup(self, fixturedef, request):
            result = yield
            if fixturedef.argname == "campaign":
                self.campaign = result
            return result

    return HarnessProbe()


class PaperAnalysis:
    """The paper's Fig. 12/13 Top-K sweep on the paper's own campaign.

    Regenerating the paper from a clone loads the campaign committed in
    ``.campaign_cache/`` and spends its time in cross-validated
    evaluations: 41 ``evaluate_campaign`` calls for all artifacts, 7 in
    this sweep.  The seed shuffles the folds; at seed 0, the harness's,
    the rendered artifact must equal the committed one.
    """

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        from repro.faults import CampaignConfig

        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.config = CampaignConfig.quick() if smoke else CampaignConfig.default()
        self.campaign = None

    def setup(self) -> None:
        import repro.analysis  # noqa: F401
        from repro.faults.campaign import CampaignResult

        path = (self.root / ".campaign_cache"
                / f"campaign_{self.config.cache_key()}.pkl")
        if not path.exists():
            raise SystemExit(f"paper-analysis needs the committed campaign {path}; "
                             f"regenerate it with the benchmark harness")
        self.campaign = CampaignResult.load(path)

    def run(self) -> Op:
        from repro.analysis import topk_sweep
        from repro.analysis.reports import render_topk

        start = time.perf_counter()
        sweep = topk_sweep(self.campaign, seed=self.seed)
        text = render_topk(sweep)
        wall = time.perf_counter() - start
        return Op(wall_s=wall, injections=self.campaign.n_injected,
                  digest=hashlib.sha256(text.encode()).hexdigest(),
                  pruning=dict(self.campaign.meta.get("pruning", {})),
                  kept={"sweep": sweep, "text": text})

    def check(self, op: Op) -> None:
        """The Fig. 12 shape, and the committed artifact at seed 0."""
        sweep = op.kept["sweep"]
        accs = [sweep[k].location_accuracy for k in sorted(sweep)]
        op.check(self.campaign.config.cache_key() == self.config.cache_key(),
                 "the committed campaign was made by another configuration")
        op.check(len(accs) == 7 and all(b >= a - 1e-9 for a, b in zip(accs, accs[1:]))
                 and accs[-1] == 1.0,
                 f"Top-K location accuracy {accs} is not monotone up to 1.0")
        if self.seed == 0 and not self.smoke:
            name = "fig12_13_topk_7units.txt"
            op.check(op.kept["text"] + "\n"
                     == (self.root / "benchmarks" / "results" / name).read_text(),
                     f"seed 0 sweep differs from benchmarks/results/{name}")


class InjectDeep:
    """One deep campaign on the default (scalar, inline) engine."""

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        from repro.faults import CampaignConfig

        self.config = CampaignConfig(seed=seed, **{**CAMPAIGN, **(SMOKE if smoke else {})})

    def setup(self) -> None:
        from repro.faults import kernels

        kernels.resolve_kernel()
        _warm_up(self.config)

    def run(self) -> Op:
        from repro.faults import run_campaign

        start = time.perf_counter()
        result = run_campaign(self.config)
        wall = time.perf_counter() - start
        return Op(wall_s=wall, injections=result.n_injected,
                  digest=result.digest(), pruning=dict(result.meta["pruning"]))

    def check(self, op: Op) -> None:
        planned = _planned(self.config)
        op.check(op.injections == planned,
                 f"{op.injections} injections, plan has {planned}")


class ServeWork:
    """A fresh ledger drained by one HTTP worker, then ``/predict`` load."""

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        from repro.faults import CampaignConfig

        self.workdir = workdir
        self.seed = seed
        self.config = CampaignConfig(seed=seed, **{**CAMPAIGN, **(SMOKE if smoke else {})})
        self.per_client = SMOKE_REQUESTS_PER_CLIENT if smoke else REQUESTS_PER_CLIENT

    def setup(self) -> None:
        import repro.faults.service  # noqa: F401
        from repro.faults import kernels

        kernels.resolve_kernel()
        _warm_up(self.config)

    def run(self) -> Op:
        from repro.faults import records_digest
        from repro.faults.service import (CampaignLedger, CampaignService,
                                          ServiceClient, run_worker,
                                          start_service)

        ledger = CampaignLedger(self.workdir / "ledger", self.config,
                                chunk_flops=SERVE_CHUNK_FLOPS)
        service = CampaignService(ledger, top_k=TOP_K)
        handle = start_service(service)
        try:
            start = time.perf_counter()
            shards = run_worker(handle.base_url, worker_id="perf")
            work_s = time.perf_counter() - start

            # The first lookup of a complete campaign trains the table;
            # time that on its own so it stays out of the latencies.
            start = time.perf_counter()
            ServiceClient(handle.base_url).table()
            train_s = time.perf_counter() - start

            records = [record for _shard, outcome in ledger.iter_committed()
                       for record in outcome[0]]
            requests = _predict_requests(records, CLIENTS * self.per_client,
                                         self.seed)
            lanes = [requests[i::CLIENTS] for i in range(CLIENTS)]
            answers: list[list] = [[] for _ in lanes]
            latencies: list[list[float]] = [[] for _ in lanes]
            threads = [threading.Thread(
                target=_client_loop,
                args=(handle.base_url, lanes[i], answers[i], latencies[i]))
                for i in range(CLIENTS)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            predict_s = time.perf_counter() - start
        finally:
            handle.stop()

        op = Op(wall_s=work_s + train_s + predict_s,
                injections=sum(service.store.injected.values()),
                digest=records_digest(records),
                pruning=dict(service.store.pruning),
                kept={"records": records, "lanes": lanes, "answers": answers,
                      "shards": shards, "n_shards": ledger.n_shards,
                      "complete": ledger.complete})
        latency = sorted(t for lane in latencies for t in lane)
        cuts = statistics.quantiles(latency, n=100)
        op.extra.update({
            "work_s": work_s,
            "train_s": train_s,
            "predict_p50_ms": cuts[49] * 1e3,
            "predict_p90_ms": cuts[89] * 1e3,
            "predict_p99_ms": cuts[98] * 1e3,
            "predict_per_s": len(latency) / predict_s,
        })
        return op

    def check(self, op: Op) -> None:
        """The plan ran in full, and every ``/predict`` answer equals the
        offline predictor's."""
        from repro.core import train_predictor

        kept = op.kept
        planned = _planned(self.config)
        op.check(op.injections == planned,
                 f"{op.injections} injections, plan has {planned}")
        op.check(kept["shards"] == kept["n_shards"] and kept["complete"],
                 f"worker committed {kept['shards']} of {kept['n_shards']} shards")
        predictor = train_predictor(kept["records"], top_k=TOP_K)
        expected: dict = {}
        for lane, got in zip(kept["lanes"], kept["answers"]):
            op.check(len(got) == len(lane),
                     f"{len(lane) - len(got)} lookups got no answer")
            for dsr, answer in zip(lane, got):
                if dsr not in expected:
                    p = predictor.predict(dsr)
                    expected[dsr] = (list(p.units), p.error_type.value,
                                     p.from_default)
                ok = (isinstance(answer, dict)
                      and (answer.get("units"), answer.get("error_type"),
                           answer.get("from_default")) == expected[dsr])
                op.check(ok, f"/predict {sorted(dsr)}: got {answer!r}, "
                             f"expected {expected[dsr]!r}")


def _predict_requests(records, n: int, seed: int) -> list[frozenset]:
    """Seeded lookup mix: seen DSR sets by frequency, plus unseen ones."""
    from repro.lockstep.categories import SIGNAL_CATEGORIES

    rng = random.Random(seed)
    seen = {record.diverged for record in records}
    out = []
    for _ in range(n):
        if rng.random() < SEEN_SHARE:
            out.append(rng.choice(records).diverged)
            continue
        while True:
            dsr = frozenset(rng.sample(range(len(SIGNAL_CATEGORIES)),
                                       rng.randint(1, 8)))
            if dsr not in seen:
                break
        out.append(dsr)
    return out


def _client_loop(base_url: str, lane, answers: list, latencies: list) -> None:
    """One closed-loop client: the next lookup goes when the last returns."""
    from repro.faults.service import ServiceClient

    client = ServiceClient(base_url)
    for dsr in lane:
        start = time.perf_counter()
        try:
            answer = client.predict(dsr)
        except Exception as exc:  # noqa: BLE001 - a failed lookup is a result
            answer = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        answers.append(answer)


WORKLOADS = {
    "paper-analysis": PaperAnalysis,
    "inject-deep": InjectDeep,
    "serve-work": ServeWork,
    "paper-regen": PaperRegen,
}
