#!/usr/bin/env python3
"""Benchmark: paper analysis, deep injection, serve/work.

Run from the repository root::

    python3 perf/run.py                         # every workload
    python3 perf/run.py --workload inject-deep --seed 3
    python3 perf/run.py --workload paper-regen --trace 1   # per-layer numbers
    python3 perf/run.py --out a.jsonl           # append run records
    python3 perf/run.py --compare a.jsonl b.jsonl

Each workload runs as a series of fresh child processes until
BENCHMARK.json's ``run_seconds`` have passed (``--seconds`` may only
repeat that value); a child sets up, then runs the workload's operation
once while a thread times a fixed reference chunk (``HostSpeed``).
Set-up-only children follow until there are ``MIN_SETUPS`` set-up
samples.  ``wall_ref`` is an operation's wall time over the chunk's
mean time during it, ``setup_s`` and ``peak_rss_mb`` are medians over
children.
The parent prints every metric by name with its unit, checks the
outputs, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; it exits non-zero if
any check fails.  ``--trace 1`` runs traced children instead and reports
the per-layer metrics (see ``trace.py``).

The benchmark measures the library's defaults: children get no engine,
kernel, batch, executor or thread knob, and every ``REPRO_*`` variable is
removed from their environment.  It reads and writes only inside the
checkout: every file goes to the git-ignored ``.perf_work/`` at its
root, and the per-run temp tree there is deleted afterwards.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = PERF / "pins.json"
WORK = ROOT / ".perf_work"

#: Set-up samples each timed run takes at least; ``setup_s`` is their
#: median.  A set-up-only child costs well under a second.
MIN_SETUPS = 15
CHILD_TIMEOUT_S = 150.0
#: The first warm-up in a checkout compiles the C kernel.
WARMUP_TIMEOUT_S = 900.0
#: The reference chunk: iterations of a fixed pure-Python loop, about
#: 1 ms on an idle 2-vCPU guest, timed every ``REF_PERIOD_S``.
REF_ITERATIONS = 5000
REF_PERIOD_S = 0.05


# -- child side ----------------------------------------------------------------

class HostSpeed:
    """Times the reference chunk on a thread while an operation runs.

    On a shared host the speed of a vCPU swings by half within seconds
    and drifts by a fifth over minutes as neighbours come and go, and
    both move the operation's time and the chunk's together.  Sampled
    at a fixed period on the operation's CPU, the chunk's mean time is
    the host's mean speed over the operation, so the ratio of the two
    keeps what the code does.  The chunk is timed in thread CPU time,
    so waiting for the interpreter lock does not count; the lock time
    it takes from the operation (a few per cent) is the same for every
    commit.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            start = time.thread_time()
            table: dict[int, int] = {}
            for i in range(REF_ITERATIONS):
                key = i * 2654435761 % 1021
                table[key] = table.get(key, 0) + 1
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(REF_PERIOD_S):
                return

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def chunk_s(self) -> float:
        """Mean seconds of one reference chunk over the window."""
        return statistics.fmean(self.samples)


def child_main(args) -> int:
    """Set up, run one timed operation (unless ``--setup-only``), report.

    One operation per process, so every operation starts from the same
    state and ``peak_rss_mb`` measures set-up plus one operation.  The
    output is checked after the timed and traced window.
    """
    start = time.perf_counter()
    if args.child == "warmup":
        return _warm_up_child(args.result)
    # One CPU per child, picked by pid so successive children use all of
    # them: the speed samples must come from the CPU the operation runs
    # on.  The library sizes its threads by os.cpu_count(), which the
    # affinity does not change.
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[os.getpid() % len(cpus)]})
    tracer = None
    if args.trace:
        from trace import REPRO_TARGETS, Tracer

        tracer = Tracer()
        tracer.install(REPRO_TARGETS)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.child](ROOT, Path.cwd(), args.seed, args.smoke)
    workload.setup()
    out: dict = {"setup_s": time.perf_counter() - start}
    if not args.setup_only:
        with HostSpeed() as speed:
            op = workload.run()
        wall = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            from trace import span_cost

            out["layers"] = layer_metrics(tracer, op, wall, span_cost())
            tracer.uninstall()
            tracer.dump_jsonl(args.spans)
            Path(args.spans).with_suffix(".summary.json").write_text(
                json.dumps(tracer.summary(), indent=1))
        workload.check(op)
        out.update(op={"wall_s": op.wall_s, "chunk_s": speed.chunk_s(),
                       "injections": op.injections,
                       "digest": op.digest, "pruning": op.pruning},
                   attempted=op.attempted, failures=op.failures, rss_mb=rss_mb)
    Path(args.result).write_text(json.dumps(out))
    return 0


def _warm_up_child(result: str) -> int:
    """Import everything once (and build the C kernel) outside any timing."""
    import pytest  # noqa: F401
    import repro.analysis  # noqa: F401
    import repro.faults.service  # noqa: F401
    from repro.faults import kernels

    Path(result).write_text(json.dumps({
        "kernel": kernels.resolve_kernel(), "cext": kernels.cext_available()}))
    return 0


def layer_metrics(tracer, op, wall: float, per_span_s: float) -> dict:
    """The per-layer metrics of one traced child (set-up included)."""
    summary = tracer.summary()
    counts = tracer.counters

    def self_s(layer: str) -> float:
        return summary.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> int:
        return int(summary.get(layer, {}).get("calls", 0))

    def p50(name: str) -> float:
        durations = tracer.durations(name)
        return statistics.median(durations) if durations else 0.0

    injections = counts.get("injections", 0)
    sim_cycles = counts.get("prune.sim_cycles", 0)
    pruned = counts.get("prune.soft_pruned", 0) + counts.get("prune.hard_pruned", 0)
    handler_p50 = p50("CampaignService.handle_predict")
    extra = op.extra
    return {
        "golden.self_s": self_s("golden"),
        "golden.calls": calls("golden"),
        "schedule.self_s": self_s("schedule"),
        "schedule.calls": calls("schedule"),
        "inject.self_s": self_s("inject"),
        "inject.shards": calls("inject"),
        "inject.injections": injections,
        "inject.errors": counts.get("errors", 0),
        "inject.ns_per_sim_cycle":
            self_s("inject") * 1e9 / sim_cycles if sim_cycles else 0.0,
        "inject.pruned_frac": pruned / injections if injections else 0.0,
        "inject.sim_cycles": sim_cycles,
        "inject.pruned": pruned,
        "inject.deferred": (counts.get("prune.soft_deferred", 0)
                            + counts.get("prune.hard_deferred", 0)),
        "inject.equiv_hits": counts.get("prune.equiv_hits", 0),
        "inject.cycles_saved": counts.get("prune.cycles_saved", 0),
        "campaign.self_s": self_s("campaign"),
        "evaluate.self_s": self_s("evaluate"),
        "evaluate.calls": tracer.calls("evaluate_campaign"),
        "topk.calls": tracer.calls("topk_sweep"),
        "train.self_s": self_s("train"),
        "train.calls": calls("train"),
        "signatures.self_s": self_s("signatures"),
        "lert.self_s": self_s("lert"),
        "lert.calls": calls("lert"),
        "lert.records": counts.get("lert.records", 0),
        "kfold.self_s": self_s("kfold"),
        "accuracy.self_s": self_s("accuracy"),
        "bc.self_s": self_s("bc"),
        "render.self_s": self_s("render"),
        "ledger.lease_s": self_s("lease"),
        "ledger.commit_s": self_s("commit"),
        "ledger.commits": calls("commit"),
        "ledger.commit_ms_p50": p50("CampaignLedger.commit") * 1e3,
        "store.add_s": self_s("store"),
        "wire.self_s": self_s("wire"),
        "http.predict_handler_us_p50": handler_p50 * 1e6,
        "http.overhead_us_p50": (extra["predict_p50_ms"] * 1e3 - handler_p50 * 1e6
                                 if "predict_p50_ms" in extra else 0.0),
        "service.work_inj_per_s": (op.injections / extra["work_s"]
                                   if "work_s" in extra else 0.0),
        "service.train_s": extra.get("train_s", 0.0),
        "predict.p50_ms": extra.get("predict_p50_ms", 0.0),
        "predict.p90_ms": extra.get("predict_p90_ms", 0.0),
        "predict.p99_ms": extra.get("predict_p99_ms", 0.0),
        "predict.per_s": extra.get("predict_per_s", 0.0),
        "harness.other_s": wall - sum(row["self_s"] for row in summary.values()),
        "trace.wall_s": wall,
        "trace.spans": len(tracer.spans),
        "trace.overhead_frac": len(tracer.spans) * per_span_s / wall,
    }


# -- parent side ---------------------------------------------------------------

def child_env(tmp: Path) -> dict:
    """The parent's environment minus ``REPRO_*``, confined to the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    # The C kernel's first-use build goes to $XDG_CACHE_HOME, by default
    # ~/.cache outside the checkout; keep it in the checkout and across
    # runs, so only the first run compiles.
    env["XDG_CACHE_HOME"] = str(WORK / "cache")
    return env


def spawn(kind: str, run_dir: Path, env: dict, args, *, setup_only=False,
          trace=False, spans: Path | None = None,
          timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child in a fresh directory; return its result."""
    cwd = Path(tempfile.mkdtemp(dir=run_dir, prefix=f"{kind}-"))
    result = run_dir / f"{cwd.name}.json"
    cmd = [sys.executable, str(PERF / "run.py"), "--child", kind,
           "--seed", str(args.seed), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", "1", "--spans", str(spans)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr,
                              timeout=timeout)
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"{kind} child exited with {proc.returncode}")
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def run_workload(name: str, args, run_dir: Path, env: dict) -> list[dict]:
    """Timed children until ``--seconds`` pass, then set-up-only ones
    until there are ``MIN_SETUPS`` set-up samples."""
    results: list[dict] = []
    spans_dir = WORK / "trace"
    if args.trace:
        spans_dir.mkdir(exist_ok=True)
        for stale in spans_dir.glob(f"{name}-*"):
            stale.unlink()
    begin = time.perf_counter()
    while not results or (not args.smoke
                          and time.perf_counter() - begin < args.seconds):
        results.append(spawn(name, run_dir, env, args, trace=args.trace,
                             spans=spans_dir / f"{name}-{len(results)}.jsonl"))
    while not args.trace and not args.smoke and len(results) < MIN_SETUPS:
        results.append(spawn(name, run_dir, env, args, setup_only=True))
    return results


def aggregate(name: str, results: list[dict], args, spec: dict,
              pins: dict) -> dict:
    """Medians, plus the checks that span operations or need the pins.

    Every operation of a run must produce the same output: digest,
    pruning counts and injections.
    """
    timed = [r for r in results if "op" in r]
    ops = [r["op"] for r in timed]
    failures = [msg for r in timed for msg in r["failures"]]
    attempted = sum(r["attempted"] for r in timed)

    def check(ok: bool, message: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(message)

    first = ops[0]
    for key in ("digest", "pruning", "injections"):
        values = [op[key] for op in ops]
        check(all(v == values[0] for v in values),
              f"{key} differs between operations of one run: {values}")
    pin = pins.get(name, {})
    if not args.smoke and (name == "paper-regen" or args.seed == pins["seed"]):
        for key in ("digest", "pruning", "injections"):
            check(first[key] == pin[key],
                  f"{key} {first[key]!r} != pinned {pin[key]!r}")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        samples = {m: [r["layers"][m] for r in timed] for m in names}
    else:
        samples = {
            "setup_s": [r["setup_s"] for r in results],
            "wall_ref": [op["wall_s"] / op["chunk_s"] for op in ops],
            "peak_rss_mb": [r["rss_mb"] for r in timed],
        }
    metrics = {m: statistics.median(v) for m, v in samples.items()}
    if not args.trace:
        # Recorded and printed, not a metric: it follows the host.
        samples["wall_s"] = [op["wall_s"] for op in ops]
        samples["chunk_s"] = [op["chunk_s"] for op in ops]
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metric names {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(expected)}")
    return {"metrics": metrics, "samples": samples, "attempted": attempted,
            "failures": failures, "children": len(results), "ops": len(ops)}


def host_record(warm: dict) -> dict:
    """What the numbers were measured on."""
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                            timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = None
    return {
        "nproc": os.cpu_count(),
        "cc": cc,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git": _git("rev-parse", "HEAD"),
        "kernel": warm["kernel"],
        "cext": warm["cext"],
    }


def _git(*argv: str) -> str | None:
    """Output of a git command in the checkout, or None if it is no repo."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                          text=True, timeout=60)
    return proc.stdout.strip() if proc.returncode == 0 else None


def report(name: str, agg: dict, spec: dict, args) -> dict:
    """Print every metric with its unit; return the driver's result line."""
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(f"[perf] {name} seed={args.seed} trace={int(args.trace)} "
          f"children={agg['children']} operations={agg['ops']}")
    for metric, value in agg["metrics"].items():
        shown = (f"{int(value):>16d}" if float(value).is_integer()
                 else f"{value:>16.6g}")
        print(f"  {metric:30s} {shown} {units[metric]}")
    if "wall_s" in agg["samples"]:
        walls = agg["samples"]["wall_s"]
        print(f"  (operation wall time: median {statistics.median(walls):.4g} s, "
              f"fastest {min(walls):.4g} s)")
    print(f"  checks: {agg['attempted']} attempted, {len(agg['failures'])} failed")
    for message in agg["failures"][:20]:
        print(f"  FAILED {message}")
    return {
        "correct": not agg["failures"],
        "attempted": max(1, agg["attempted"]),
        "failed": len(agg["failures"]),
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in agg["metrics"].items()},
    }


def parent_main(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").exists() or not (
            ROOT / "benchmarks" / "conftest.py").exists():
        print(f"perf: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    pins = json.loads(PINS_PATH.read_text())
    if args.seed is None:
        args.seed = pins["seed"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    elif args.seconds != spec["run_seconds"]:
        print(f"perf: --seconds must be BENCHMARK.json's run_seconds "
              f"({spec['run_seconds']}), so that runs compare", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload and args.workload not in WORKLOADS:
        print(f"perf: unknown workload {args.workload!r} "
              f"(choose from {list(WORKLOADS)})", file=sys.stderr)
        return 2
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    env = child_env(run_dir)
    status_before = _git("status", "--porcelain")
    ok = True
    try:
        warm = spawn("warmup", run_dir, env, args, timeout=WARMUP_TIMEOUT_S)
        host = host_record(warm)
        print(f"[perf] host {json.dumps(host)}")
        for name in names:
            agg = aggregate(name, run_workload(name, args, run_dir, env),
                            args, spec, pins)
            if _git("status", "--porcelain") != status_before:
                agg["failures"].append("the run changed files tracked or "
                                       "unignored in the checkout")
            agg["attempted"] += 1
            line = report(name, agg, spec, args)
            ok = ok and line["correct"]
            if args.out:
                _append_record(args.out, name, args, host, agg, line)
            print(json.dumps(line), flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0 if ok else 1


def _append_record(path: str, name: str, args, host: dict, agg: dict,
                   line: dict) -> None:
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": name, "seed": args.seed, "trace": bool(args.trace),
        "smoke": args.smoke, "seconds": args.seconds, "host": host,
        "correct": line["correct"], "attempted": line["attempted"],
        "failures": agg["failures"], "metrics": agg["metrics"],
        "samples": agg["samples"],
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


# -- comparing two sets of runs --------------------------------------------------

def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float | None) -> str:
    """Judge B against A by the rules a performance claim must meet.

    ``better``: at least ten pairs, B wins nine tenths of them, and the
    medians differ by more than A's interquartile range.  ``worse``: B's
    median is worse than A's by more than the bound.  ``unresolved``:
    either side spreads wider than the bound, unless every run of B beats
    every run of A.  Otherwise ``within bound``.  Metrics without a bound
    (per-layer) get ``better``/``worse`` by the pair rule, else ``-``.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1a, med_a, q3a = _quartiles(a)
    q1b, med_b, q3b = _quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    beyond_noise = abs(med_b - med_a) > q3a - q1a
    if len(pairs) >= 10 and beyond_noise:
        if wins >= 0.9 * len(pairs) and sign * (med_b - med_a) > 0:
            return "better"
        if bound is None and losses >= 0.9 * len(pairs):
            return "worse"
    if bound is None:
        return "-"
    if med_a and sign * (med_a - med_b) / abs(med_a) > bound:
        return "worse"
    spread = max((q3a - q1a) / abs(med_a) if med_a else 0.0,
                 (q3b - q1b) / abs(med_b) if med_b else 0.0)
    if spread > bound and not all(sign * (y - x) > 0 for x in a for y in b):
        return "unresolved"
    return "within bound"


def compare_main(path_a: str, path_b: str) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def load(label: str, path: str) -> dict:
        runs: dict = {}
        failed = 0
        for line in Path(path).read_text().splitlines():
            record = json.loads(line)
            if record["smoke"]:
                continue
            if not record["correct"]:
                failed += 1
                continue
            for metric, value in record["metrics"].items():
                runs.setdefault((record["workload"], metric), []).append(value)
        if failed:
            print(f"{label}: {failed} runs with failed checks left out")
        return runs

    a, b = load("A", path_a), load("B", path_b)
    print(f"{'workload':12s} {'metric':28s} {'A median [q1, q3] n':>34s} "
          f"{'B median [q1, q3] n':>34s} {'change':>8s}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        (q1a, med_a, q3a), (q1b, med_b, q3b) = _quartiles(a[key]), _quartiles(b[key])
        change = f"{(med_b - med_a) / abs(med_a):+.1%}" if med_a else "-"
        info = meta.get(metric, {"better": "lower"})
        print(f"{workload:12s} {metric:28s} "
              f"{f'{med_a:.4g} [{q1a:.4g}, {q3a:.4g}] {len(a[key])}':>34s} "
              f"{f'{med_b:.4g} [{q1b:.4g}, {q3b:.4g}] {len(b[key])}':>34s} "
              f"{change:>8s}  {verdict(a[key], b[key], info['better'], info.get('bound'))}")
    return 0


# -- command line ----------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per workload; may only "
                             "repeat BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run, per-layer metrics")
    parser.add_argument("--out", help="append run records (JSON lines) here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configurations, one child per workload")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare_main(*args.compare)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
