"""Tests of the benchmark itself: smoke pass, tracer and verdict rules.

Run with ``python -m pytest perf/test_perf.py -q`` from the repository
root (the tier-1 suite does not collect this directory).
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text())


def _load(name: str):
    """Import a perf module by path (``trace`` is also a stdlib name)."""
    spec = importlib.util.spec_from_file_location(f"perf_{name}", PERF / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace = _load("trace")
run = _load("run")


def _smoke(*extra: str) -> list[dict]:
    proc = subprocess.run([sys.executable, str(PERF / "run.py"), "--smoke", *extra],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


@pytest.mark.parametrize("trace_flag, kind", [("0", "end_to_end"),
                                              ("1", "per_layer")])
def test_smoke_prints_the_benchmark_metrics(trace_flag, kind):
    # paper-regen is not in BENCHMARK.json but runs when named.
    lines = (_smoke("--trace", trace_flag)
             + _smoke("--trace", trace_flag, "--workload", "paper-regen"))
    assert len(lines) == len(SPEC["workloads"]) + 1
    names = {m["name"]: m["unit"] for m in SPEC[kind]}
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == names
    if trace_flag == "1":
        # One traced serve round trains the table once, on its /table
        # call; the offline check of the answers runs untraced.
        serve = lines[[w["name"] for w in SPEC["workloads"]].index("serve-work")]
        assert serve["metrics"]["train.calls"]["value"] == 1


# -- tracer ----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def demo():
    """A throwaway package whose functions advance a fake clock."""
    clock = FakeClock()
    lib = types.ModuleType("perfdemo.lib")

    def inner():
        clock.now += 2

    def outer():
        clock.now += 1
        lib.inner()
        lib.inner()
        clock.now += 1

    def items(n):
        for i in range(n):
            clock.now += 1
            yield i

    class Store:
        @classmethod
        def build(cls):
            clock.now += 3
            return cls()

    lib.inner, lib.outer, lib.items, lib.Store = inner, outer, items, Store
    user = types.ModuleType("perfdemo.user")
    user.outer = outer  # a second binding of the same object
    modules = {"perfdemo": types.ModuleType("perfdemo"),
               "perfdemo.lib": lib, "perfdemo.user": user}
    sys.modules.update(modules)
    originals = (outer, inner, items, vars(Store)["build"].__func__)
    tracer = trace.Tracer(clock=clock)
    tracer.install([trace.Target("a", "perfdemo.lib:outer"),
                    trace.Target("b", "perfdemo.lib:inner"),
                    trace.Target("g", "perfdemo.lib:items"),
                    trace.Target("s", "perfdemo.lib:Store.build")],
                   packages=("perfdemo",))
    yield types.SimpleNamespace(clock=clock, lib=lib, user=user, tracer=tracer,
                                originals=originals)
    tracer.uninstall()
    for name in modules:
        sys.modules.pop(name)


def test_nested_self_time_and_every_binding(demo):
    demo.user.outer()  # reached through the second binding
    summary = demo.tracer.summary()
    assert summary["a"] == {"calls": 1, "total_s": 6.0, "self_s": 2.0}
    assert summary["b"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    outer_span = next(s for s in demo.tracer.spans if s.layer == "a")
    assert all(s.parent == outer_span.id for s in demo.tracer.spans
               if s.layer == "b")


def test_generator_is_timed_per_next(demo):
    for _ in demo.lib.items(3):
        demo.clock.now += 5  # the consumer's work is not the generator's
    summary = demo.tracer.summary()
    assert summary["g"]["self_s"] == 3.0
    assert summary["g"]["calls"] == 4  # three items and the final StopIteration


def test_classmethod_and_uninstall(demo):
    assert isinstance(demo.lib.Store.build(), demo.lib.Store)
    assert demo.tracer.summary()["s"]["self_s"] == 3.0
    demo.tracer.uninstall()
    assert (demo.lib.outer, demo.lib.inner, demo.user.outer) == (
        demo.originals[0], demo.originals[1], demo.originals[0])
    assert vars(demo.lib.Store)["build"].__func__ is demo.originals[3]


def test_spans_from_threads_do_not_nest(demo):
    import threading

    thread = threading.Thread(target=demo.lib.inner)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    demo.lib.inner()
    assert [s.parent for s in demo.tracer.spans] == [-1, -1]


def test_dump_jsonl(demo, tmp_path):
    demo.lib.outer()
    path = tmp_path / "spans.jsonl"
    demo.tracer.dump_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["outer", "inner", "inner"]
    assert rows[0]["self_s"] == 2.0


# -- compare verdicts ------------------------------------------------------------

def test_verdict_rules():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    noisy = [5.0, 15.0] * 5
    assert run.verdict(base, faster, "lower", 0.1) == "better"
    assert run.verdict(base, slower, "lower", 0.1) == "worse"
    assert run.verdict(base, base, "lower", 0.1) == "within bound"
    assert run.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert run.verdict(base, faster, "higher", 0.1) == "worse"
    assert run.verdict(base, slower, "lower", None) == "worse"
    assert run.verdict(base, base, "lower", None) == "-"
