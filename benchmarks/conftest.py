"""Shared campaign fixtures for the benchmark harness.

All paper tables/figures are regenerated from ONE fault-injection
campaign (cached on disk under ``.campaign_cache`` keyed by config +
schema version), mirroring the paper's single 10M-injection dataset.
Set ``REPRO_BENCH_SCALE=full`` to inject into every flop, 4 soft
faults and one stuck-at per polarity each (129,300 injections; not the
paper's exhaustive every-interval campaign), or ``quick`` for a
seconds-scale smoke run.  A cold default-scale campaign takes about
0.6 s in a fresh process on one worker of a 2-vCPU host with the
compiled kernel (8-9 s on the scalar engine), and is cached
afterwards.

``--workers N`` (or ``REPRO_BENCH_WORKERS=N``) fans the campaign out
over N processes; ``0`` uses every core.  Results — and therefore the
cache key — are identical for any worker count.

Every benchmark session also writes its timings to
``results/BENCH_<scale>.json`` (machine-readable pytest-benchmark
stats) so successive PRs can track the performance trajectory; pass
``--benchmark-json=PATH`` for the full raw dump instead.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.faults import CampaignConfig, ExecPlan, cached_campaign

RESULTS_DIR = Path(__file__).parent / "results"
CACHE_DIR = Path(__file__).parent.parent / ".campaign_cache"


def pytest_addoption(parser):
    parser.addoption(
        "--workers", action="store", type=int, metavar="N",
        default=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
        help="worker processes for the shared injection campaign "
             "(0 = all cores); results are identical for any value")


def _scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "default")


def _config() -> CampaignConfig:
    scale = _scale()
    if scale == "quick":
        return CampaignConfig.quick()
    if scale == "full":
        return CampaignConfig.full()
    return CampaignConfig.default()


@pytest.fixture(scope="session")
def campaign_workers(request) -> int:
    """Worker-process count for campaign execution."""
    return request.config.getoption("--workers")


@pytest.fixture(scope="session")
def campaign(campaign_workers):
    """The shared fault-injection campaign (disk-cached)."""
    return cached_campaign(_config(), cache_dir=CACHE_DIR, progress=True,
                           plan=ExecPlan(workers=campaign_workers))


@pytest.fixture(scope="session")
def report():
    """Persist a rendered paper artifact and echo it to the terminal."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}")

    return _report


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session, exitstatus):
    """Dump this session's benchmark stats to ``results/BENCH_<scale>.json``.

    A compact, stable summary (mean/stddev/rounds per benchmark) meant
    to be diffed across PRs; complements ``--benchmark-json``'s full
    raw dump.
    """
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    entries = []
    for bench in bench_session.benchmarks:
        try:
            data = bench.as_dict(include_data=False, stats=True)
        except Exception:
            continue
        stats = data.get("stats", {})
        entries.append({
            "name": data.get("name"),
            "fullname": data.get("fullname"),
            "group": data.get("group"),
            "stats": {key: stats.get(key)
                      for key in ("min", "max", "mean", "stddev", "median",
                                  "rounds", "iterations", "ops")},
        })
    if not entries:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "scale": _scale(),
        "workers": session.config.getoption("--workers", default=1),
        "benchmarks": sorted(entries, key=lambda e: e["fullname"] or ""),
    }
    out = RESULTS_DIR / f"BENCH_{_scale()}.json"
    out.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(f"\n[bench] wrote machine-readable stats to {out}")
