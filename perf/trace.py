"""Outside-in span tracer for the benchmark's traced runs.

The tracer times calls into the library's layers without touching the
library: :meth:`Tracer.install` replaces each target function, by
object identity, in every namespace of the traced packages that binds
it.  ``run_shard``, for example, is bound in ``repro.faults.parallel``,
``repro.faults.service.runner`` and ``repro.faults.service.client``;
all three names get the same wrapper.  Install before the harness
imports anything, so harness modules bind the wrappers too.  Names
imported inside a function body (``from .campaign import
schedule_faults``) are looked up at call time and need nothing more.

Each call becomes a span: layer, function, thread, start, end, the
span that was open on the same thread when it started, and its self
time (its duration minus the durations of the spans it opened).
Generator functions get one span per ``next()``, so work done by the
consumer between items is not charged to the generator.  Spans stay in
memory until :meth:`Tracer.dump_jsonl` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    """One timed call (or one ``next()`` of a traced generator)."""

    id: int
    parent: int  # id of the enclosing span on the same thread, -1 at the root
    layer: str
    name: str
    thread: int
    start: float
    end: float
    self_s: float


class Target(NamedTuple):
    """A function to trace: ``"package.module:Qual.name"`` under ``layer``.

    ``observe(tracer, args, kwargs, result)`` runs after a traced call
    returns, outside its span, to fold counts from the arguments or the
    return value into :attr:`Tracer.counters`.
    """

    layer: str
    path: str
    observe: Callable | None = None


class Tracer:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1][0] if stack else -1
        frame = [next(self._ids), parent, self.clock(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, layer: str, name: str, frame: list) -> None:
        end = self.clock()
        stack = self._local.stack
        stack.pop()
        span_id, parent, start, child_s = frame
        duration = end - start
        if stack:
            stack[-1][3] += duration
        self.spans.append(Span(span_id, parent, layer, name,
                               threading.get_ident(), start, end,
                               duration - child_s))

    def count(self, key: str, value: int) -> None:
        """Add ``value`` to counter ``key`` (called from observe hooks)."""
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + int(value)

    def wrap(self, layer: str, fn: Callable, observe: Callable | None = None,
             name: str | None = None) -> Callable:
        """Return a traced stand-in for ``fn``."""
        name = name or fn.__qualname__
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = self._enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(layer, name, frame)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, name, frame)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return traced

    # -- installation --------------------------------------------------------

    def install(self, targets: Iterable[Target],
                packages: tuple[str, ...] = ("repro",)) -> None:
        """Wrap every target in place; :meth:`uninstall` undoes it.

        A module-level function is replaced in every already-imported
        module under ``packages`` whose namespace holds that very
        object.  A method or classmethod is replaced on its class,
        which every caller reaches through attribute lookup.
        """
        for target in targets:
            module_name, qualname = target.path.split(":")
            owner = importlib.import_module(module_name)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(target.layer, raw.__func__,
                                                target.observe, qualname))
                else:
                    new = self.wrap(target.layer, raw, target.observe, qualname)
                self._replace(owner, attr, raw, new)
                continue
            new = self.wrap(target.layer, raw, target.observe, qualname)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if not any(module_name == pkg or module_name.startswith(pkg + ".")
                           for pkg in packages):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._replace(module, key, raw, new)

    def _replace(self, owner: object, attr: str, old: object, new: object) -> None:
        setattr(owner, attr, new)
        self._installed.append((owner, attr, old))

    def uninstall(self) -> None:
        """Put every replaced name back."""
        for owner, attr, old in reversed(self._installed):
            setattr(owner, attr, old)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``total_s`` and ``self_s``.

        ``total_s`` sums only the outermost span of each nest of spans
        from the same layer, so a layer that calls itself (a campaign
        driver wrapping another) is not counted twice.
        """
        by_id = {span.id: span for span in self.spans}
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.layer,
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += span.self_s
            parent = by_id.get(span.parent)
            while parent is not None and parent.layer != span.layer:
                parent = by_id.get(parent.parent)
            if parent is None:
                row["total_s"] += span.end - span.start
        return out

    def calls(self, name: str) -> int:
        """Number of spans recorded for one function (by qualified name)."""
        return sum(1 for span in self.spans if span.name == name)

    def durations(self, name: str) -> list[float]:
        """Durations of every span recorded for one function."""
        return [span.end - span.start for span in self.spans
                if span.name == name]

    def dump_jsonl(self, path) -> None:
        """Write one JSON object per span, times relative to tracer start."""
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                row = span._asdict()
                row["start"] -= self.origin
                row["end"] -= self.origin
                fh.write(json.dumps(row) + "\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Measured seconds one span adds to a call (best of ``repeats``)."""
    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    best_plain = best_traced = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        best_plain = min(best_plain, time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best_traced = min(best_traced, time.perf_counter() - start)
    return max(0.0, best_traced - best_plain) / calls


# -- the library's layers ------------------------------------------------------

def _count_shard(tracer: Tracer, args, kwargs, outcome) -> None:
    """Injection counts from every shard outcome, whichever driver ran it."""
    records, injected, _n_cycles, pruning = outcome
    tracer.count("injections", sum(injected.values()))
    tracer.count("errors", len(records))
    for key, value in (pruning or {}).items():
        tracer.count(f"prune.{key}", value)


def _count_lert(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("lert.records", result.n_errors)


_RENDERERS = ("render_table1", "render_table2", "render_fig4_5",
              "render_fig11", "render_table3", "render_topk", "render_table4")

#: Every library function the benchmark times, by layer.
REPRO_TARGETS: tuple[Target, ...] = (
    Target("golden", "repro.faults.golden:GoldenTrace.cached"),
    Target("schedule", "repro.faults.campaign:schedule_faults"),
    Target("inject", "repro.faults.parallel:run_shard", _count_shard),
    Target("campaign", "repro.faults.campaign:cached_campaign"),
    Target("campaign", "repro.faults.campaign:run_campaign"),
    Target("campaign", "repro.faults.parallel:execute_campaign"),
    Target("evaluate", "repro.analysis.evaluation:evaluate_campaign"),
    Target("evaluate", "repro.analysis.evaluation:topk_sweep"),
    Target("train", "repro.core.predictor:train_predictor"),
    Target("signatures", "repro.core.signatures:SignatureStats.from_records"),
    Target("lert", "repro.reaction.lert:evaluate_strategy", _count_lert),
    Target("kfold", "repro.analysis.crossval:kfold"),
    Target("accuracy", "repro.core.predictor:location_accuracy"),
    Target("accuracy", "repro.core.predictor:type_accuracy"),
    *(Target("bc", f"repro.core.bhattacharyya:{name}")
      for name in ("cross_unit_bc", "average_bc", "bc_extremes",
                   "type_bc_per_unit", "average_type_bc")),
    *(Target("render", f"repro.analysis.reports:{name}") for name in _RENDERERS),
    Target("lease", "repro.faults.service.ledger:CampaignLedger.lease"),
    Target("commit", "repro.faults.service.ledger:CampaignLedger.commit"),
    Target("store", "repro.faults.service.store:IncrementalResultStore.add"),
    Target("wire", "repro.faults.service.wire:outcome_to_wire"),
    Target("wire", "repro.faults.service.wire:outcome_from_wire"),
    Target("http", "repro.faults.service.http:CampaignService.handle_predict"),
)
