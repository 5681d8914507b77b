"""Per-layer wall-clock spans recorded from outside the program.

:class:`LayerTracer` patches the public entry point of each layer
(class attributes, plus the ``replay_interleaved`` name the server
module imported) with a wrapper that times the call, nests it under
the calling thread's open span, and appends one record to an
in-memory list.  Nothing under ``src/`` knows it is being traced;
uninstalling puts the original attributes back.

A span's *self* time is its duration minus the time its child spans
on the same thread cover.  Every span carries the batch (serving) or
candidate (what-if) it belongs to: serving spans are tagged with a
query id while they run and resolved to that query's batch once the
responses are in; children inherit their top-level ancestor's tag.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time

from repro.core.cost import CostModel
from repro.obs import Tracer
from repro.query.optimizer import Optimizer
from repro.query.physical import QueryPlan
from repro.server import AdmissionController, QueryServer
from repro.server import server as server_module
from repro.service import InterferenceModel
from repro.session import Session
from repro.whatif import WhatIfSweep

#: Layer span name -> (owner, attribute) of the wrapped entry point.
LAYERS = {
    "session.compile": (Session, "compile"),
    "query.optimize": (Optimizer, "optimize"),
    "core.estimate": (CostModel, "estimate"),
    "core.concurrent_estimates": (CostModel, "concurrent_estimates"),
    "service.co_run": (InterferenceModel, "co_run"),
    "service.standalone": (InterferenceModel, "standalone"),
    "server.next_batch": (AdmissionController, "next_batch"),
    "db.execute": (QueryPlan, "execute"),
    "simulator.replay": (server_module, "replay_interleaved"),
    "whatif.price": (WhatIfSweep, "price"),
}

#: Server worker stages wrapped only to tag the spans they contain with
#: a query id (they record no span of their own, so they add nothing
#: to coverage): ``_compile(tenant, qid, ...)`` and
#: ``_execute_batch(batch, start_ns)``.
TAGGERS = {
    "_compile": lambda args: args[2],
    "_execute_batch": lambda args: args[1][0].qid,
}

#: Levels whose simulator misses are reported (the union over the
#: serving profiles; absent levels report 0).
MISS_LEVELS = ("L1", "L2", "BufferPool")


class LayerSpan:
    __slots__ = ("sid", "parent", "name", "thread", "start", "end",
                 "child_ns", "tag", "extra")

    def __init__(self, sid, parent, name, thread, tag):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.tag = tag
        self.start = self.end = 0
        self.child_ns = 0
        self.extra = None

    @property
    def busy_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class LayerTracer:
    """Records layer spans while installed (use as a context manager)."""

    def __init__(self) -> None:
        self.spans: list[LayerSpan] = []
        self.plan_caches: dict[int, object] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = set()
            local.tag = None
        return local

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._state()
            if name in local.active:  # recursion: the outer span covers it
                return fn(*args, **kwargs)
            stack = local.stack
            span = LayerSpan(next(tracer._ids),
                             stack[-1].sid if stack else None, name,
                             threading.current_thread().name, local.tag)
            stack.append(span)
            local.active.add(name)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                local.active.discard(name)
                if stack:
                    stack[-1].child_ns += span.end - span.start
                tracer.spans.append(span)
            tracer._annotate(span, args, result)
            return result

        return traced

    def _annotate(self, span: LayerSpan, args, result) -> None:
        if span.name == "simulator.replay":
            counters = result.counters
            misses = {level.name: level.seq_misses + level.rand_misses
                      for level in counters.levels}
            span.extra = (counters.accesses, misses)
        elif span.name == "server.next_batch":
            span.extra = len(result)
            if result:
                # the batch just formed owns this span and every
                # dispatcher span until the next one is formed
                span.tag = result[0].qid
                self._local.tag = span.tag
        elif span.name == "session.compile":
            cache = args[0].plan_cache
            self.plan_caches[id(cache)] = cache
        elif span.name == "whatif.price":
            span.tag = args[1].label

    def _tagger(self, pick, fn):
        tracer = self

        def tagged(*args, **kwargs):
            local = tracer._state()
            previous, local.tag = local.tag, pick(args)
            try:
                return fn(*args, **kwargs)
            finally:
                local.tag = previous

        return tagged

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "LayerTracer":
        for name, (owner, attr) in LAYERS.items():
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        for attr, pick in TAGGERS.items():
            self._patch(QueryServer, attr,
                        self._tagger(pick, getattr(QueryServer, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def resolve_tags(self, batch_of_qid: dict[int, int] | None) -> None:
        """Replace query-id tags by batch indexes (serving) and give
        every child span its top-level ancestor's tag."""
        by_sid = {span.sid: span for span in self.spans}
        for span in sorted(self.spans, key=lambda s: s.sid):
            if span.parent is not None:
                span.tag = by_sid[span.parent].tag
            elif batch_of_qid is not None and span.tag is not None:
                span.tag = f"batch {batch_of_qid[span.tag]}"

    def coverage(self, start_ns: int, end_ns: int) -> float:
        """Share of ``[start_ns, end_ns]`` covered by the union of
        top-level spans on any thread."""
        intervals = sorted((max(s.start, start_ns), min(s.end, end_ns))
                           for s in self.spans if s.parent is None)
        covered, reach = 0, start_ns
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered / (end_ns - start_ns)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, busy and self seconds per layer, plus the derived
        counts and ratios (all for this tracer's spans only)."""
        out: dict[str, float] = {}
        by_name: dict[str, list[LayerSpan]] = {name: [] for name in LAYERS}
        for span in self.spans:
            by_name[span.name].append(span)
        for name, spans in by_name.items():
            out[f"{name}.calls"] = len(spans)
            out[f"{name}.busy_s"] = sum(s.busy_ns for s in spans) / 1e9
            out[f"{name}.self_s"] = sum(s.self_ns for s in spans) / 1e9
        co_run = by_name["service.co_run"]
        out["service.co_run.p50_us"] = (
            statistics.median(s.busy_ns for s in co_run) / 1e3
            if co_run else 0.0)
        replays = [s.extra for s in by_name["simulator.replay"]]
        accesses = sum(a for a, _ in replays)
        out["simulator.accesses"] = accesses
        out["simulator.wall_ns_per_access"] = (
            out["simulator.replay.busy_s"] * 1e9 / accesses
            if accesses else 0.0)
        for level in MISS_LEVELS:
            out[f"simulator.misses.{level}"] = sum(
                m.get(level, 0) for _, m in replays)
        forming = {s.sid for s in by_name["server.next_batch"]}
        formed = sum(1 for s in by_name["server.next_batch"] if s.extra)
        out["server.batches_formed"] = formed
        out["server.co_run_per_batch"] = (
            sum(1 for s in co_run if s.parent in forming) / formed
            if formed else 0.0)
        lookups = hits = 0
        for cache in self.plan_caches.values():
            stats = cache.stats()
            hits += stats["hits"]
            lookups += stats["hits"] + stats["misses"]
        out["session.plan_cache.lookups"] = lookups
        out["session.plan_cache.hit_ratio"] = (hits / lookups if lookups
                                               else 0.0)
        return out


def chrome_trace(tracers: list[LayerTracer]) -> dict:
    """Every recorded span as the Chrome ``trace_event`` payload
    :meth:`repro.obs.Tracer.chrome_trace` exports (wall clock, one
    track per traced round and thread)."""
    export = Tracer()
    for round_index, tracer in enumerate(tracers):
        sids: dict[int, int] = {}
        for span in sorted(tracer.spans, key=lambda s: s.sid):
            recorded = export.span(
                span.name, track=f"round {round_index} {span.thread}",
                category=span.name.split(".")[0],
                parent=sids.get(span.parent),
                wall_start_ns=span.start, wall_end_ns=span.end,
                self_us=span.self_ns / 1e3,
                owner="" if span.tag is None else str(span.tag))
            sids[span.sid] = recorded.sid
    return export.chrome_trace("wall")
