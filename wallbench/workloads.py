"""The benchmark's three workloads, each driven through the public API.

A workload is run as *rounds*.  Every round rebuilds its inputs from
the run's seed and a stream number (``setup``, timed as ``setup_s``)
and then does the measured work once (``measure``): one serving stream
through :meth:`repro.server.QueryServer.serve`, or one
:meth:`repro.whatif.WhatIfSweep.run`.  Rounds of one seed and stream
number do identical work, so their simulated-clock outputs must agree
bit for bit — with and without layer tracing.

Query streams hold the generator's own templates in the exact
proportions of its mix (``WorkloadGenerator.mix``).  The seed picks
the table contents and, with the stream number, the Poisson arrival
stamps.  The order of a serving stream depends on the stream number
only: the batches the server forms follow the order, and seeded orders
moved the median step time of ``serve-ooc`` by up to 30% between seeds
(6% between runs of one seed).  What-if streams are ordered by seed
and stream number; the sweep's pricing work hardly depends on order.
Drawing each query's kind at random made the amount of work, and so
every wall-clock figure, vary by about ±15% from seed to seed.
"""

from __future__ import annotations

import asyncio
import math
import random
import statistics
import time
from dataclasses import dataclass, field

from repro import QueryServer, Session
from repro.hardware import disk_extended_scaled, origin2000_scaled
from repro.obs import validate_whatif_report
from repro.query import PlannerConfig
from repro.server import TenantQuota
from repro.service import (WorkloadGenerator, WorkloadQuery, poisson_gaps,
                           stamp_arrivals)
from repro.whatif import CapturedWorkload, ProfileSpace, WhatIfSweep

SCALE = 512
CLIENTS = 8
TENANTS = ("tenant-a", "tenant-b")
#: Offered load of the serving streams, in simulated queries per
#: simulated second (far above what the machine sustains, so the whole
#: stream queues at once and batches stay full).
RATE_QPS = 32_000.0
#: Larger than any stream: nothing is shed by design.
QUEUE = 4096


@dataclass
class RoundResult:
    """One measured round."""

    wall_s: float
    #: Queries served (serving) or priced over all candidates (what-if).
    done: int
    attempted: int
    failed: int
    #: Wall milliseconds of every step, in completion order.
    steps_ms: list[float]
    #: Simulated-clock outputs; equal across rounds of one stream.
    sim: dict[str, object]
    #: Everything the round's output check found wrong.
    problems: list[str] = field(default_factory=list)
    #: perf_counter_ns bounds of the measured region.
    start_ns: int = 0
    end_ns: int = 0
    #: qid -> batch index (serving only; resolves span tags).
    batch_of_qid: dict[int, int] | None = None


def exact_mix(factory, n_queries: int) -> list[tuple[str, str]]:
    """``(kind, text)`` pairs with every kind of ``factory``'s mix in
    exact proportion, cycling through each kind's templates.  The
    templates are harvested from one long draw of the generator (they
    do not depend on its seed)."""
    generator = factory(seed=0, scale=SCALE)
    templates: dict[str, list[str]] = {}
    for query in generator.generate(1024, clients=1):
        seen = templates.setdefault(query.kind, [])
        if query.text not in seen:
            seen.append(query.text)
    total = sum(generator.mix.values())
    pairs: list[tuple[str, str]] = []
    for kind in sorted(generator.mix):
        share = n_queries * generator.mix[kind] / total
        count = round(share)
        if not math.isclose(share, count, abs_tol=1e-9):
            raise ValueError(f"{n_queries} queries cannot hold kind "
                             f"{kind!r} in exact proportion")
        texts = sorted(templates[kind])
        pairs.extend((kind, texts[i % len(texts)]) for i in range(count))
    return pairs


def seeded_stream(pairs: list[tuple[str, str]], order_seed: int,
                  stamp_seed: int) -> list[WorkloadQuery]:
    """The pairs shuffled by ``order_seed``, dealt round-robin to the
    clients and stamped with Poisson arrivals drawn from
    ``stamp_seed``."""
    order = list(pairs)
    random.Random(order_seed).shuffle(order)
    queries = [WorkloadQuery(qid=i, client=i % CLIENTS, kind=kind,
                             text=text)
               for i, (kind, text) in enumerate(order)]
    return stamp_arrivals(
        queries, poisson_gaps(random.Random(stamp_seed), RATE_QPS))


class ServeWorkload:
    """An open loop on the simulated clock: the stamped stream is
    submitted in one go and served by two tenants on a two-worker
    server with interference-aware admission."""

    def __init__(self, name: str, n_queries: int, hierarchy, factory,
                 config: PlannerConfig | None) -> None:
        self.name = name
        self.hierarchy = hierarchy
        self.factory = factory
        self.config = config
        self.pairs = exact_mix(factory, n_queries)
        self.reference: dict[str, int] = {}

    def prepare(self, seed: int) -> None:
        """Untimed: the row count of every distinct text, from a direct
        ``Session.execute`` on a fresh catalog built with ``seed``."""
        session = Session(hierarchy=self.hierarchy(), config=self.config)
        self.factory(session, seed=seed, scale=SCALE)
        for _, text in sorted(set(self.pairs)):
            result = session.execute(text, restore=True)
            self.reference[text] = len(result.values)

    def setup(self, seed: int, stream: int):
        server = QueryServer(self.hierarchy(), mode="interference-aware",
                             max_workers=2, max_batch=4, max_queue=QUEUE,
                             config=self.config)
        for name in TENANTS:
            tenant = server.add_tenant(
                name, TenantQuota(max_queued=QUEUE))
            self.factory(tenant.session, seed=seed, scale=SCALE)
        return server, seeded_stream(self.pairs, stream,
                                     seed * 1009 + stream)

    def measure(self, state, host=None) -> RoundResult:
        return asyncio.run(self._serve(*state))

    async def _serve(self, server: QueryServer,
                     stream: list[WorkloadQuery]) -> RoundResult:
        completions: dict[int, int] = {}  # batch index -> first seen ns

        def seen(future: asyncio.Future) -> None:
            if not future.cancelled() and future.exception() is None:
                completions.setdefault(future.result().batch_index,
                                       time.perf_counter_ns())

        # serve() creates the response futures itself; wrapping this
        # instance's submit_nowait is how their done-callbacks are added
        submit = server.submit_nowait

        def observed_submit(*args, **kwargs):
            future = submit(*args, **kwargs)
            future.add_done_callback(seen)
            return future

        server.submit_nowait = observed_submit
        problems: list[str] = []
        async with server:
            start = time.perf_counter_ns()
            try:
                responses = await server.serve(stream)
            except Exception as exc:  # a query that raised fails the round
                problems.append(f"serve raised {exc!r}")
                responses = []
            end = time.perf_counter_ns()
        report = server.report()
        served = [r for r in responses if r.ok]
        failed = len(stream) - len(served)
        if failed:
            problems.append(f"{failed} of {len(stream)} queries shed or "
                            "raised")
        for response in served:
            expected = self.reference[response.text]
            if response.rows != expected:
                problems.append(
                    f"qid {response.qid} {response.text!r}: "
                    f"{response.rows} rows, direct execution gives "
                    f"{expected}")
        marks = sorted(completions.values())
        steps = [(b - a) / 1e6 for a, b in zip([start] + marks, marks)]
        return RoundResult(
            wall_s=(end - start) / 1e9, done=len(served),
            attempted=len(stream), failed=failed, steps_ms=steps,
            sim={"sim_qps": report.sustained_qps,
                 "sim_p99_ms": (report.p99_latency_ns or 0.0) / 1e6,
                 "contention_error": report.mean_contention_error,
                 "batch_size_mean": (sum(b.size for b in report.batches)
                                     / max(1, len(report.batches))),
                 "queue_wait_sim_p50_ms": statistics.median(
                     [r.wait_ns for r in served] or [0.0]) / 1e6},
            problems=problems, start_ns=start, end_ns=end,
            batch_of_qid={r.qid: r.batch_index for r in served})


class TimedSweep(WhatIfSweep):
    """A sweep that keeps the wall time of every ``price`` call and,
    given a :class:`hostspeed.HostSpeed`, samples the host's speed
    after each call (``reference_s`` is the time those samples took)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.steps_ms: list[float] = []
        self.host = None
        self.reference_s = 0.0

    def price(self, candidate):
        start = time.perf_counter_ns()
        outcome = super().price(candidate)
        step_s = (time.perf_counter_ns() - start) / 1e9
        self.steps_ms.append(step_s * 1e3)
        if self.host is not None:
            self.reference_s += self.host.sample(step_s)
        return outcome


class WhatIfWorkload:
    """Pure model arithmetic: a contention-heavy mix priced on every
    candidate of an ``l2_kb × mem_ns × cores`` grid, compiling cold on
    each candidate and spot-checking none."""

    name = "whatif-sweep"
    #: Pricing cost follows ``cores`` (the batch cap) far more than the
    #: other axes, so three ``cores`` values put the median price call
    #: inside one group of candidates rather than on the edge of two.
    AXES = {"l2_kb": [32, 64, 128], "mem_ns": [200.0, 800.0],
            "cores": [2, 3, 4]}

    def __init__(self, n_queries: int) -> None:
        self.pairs = exact_mix(WorkloadGenerator.contention_heavy,
                               n_queries)

    def prepare(self, seed: int) -> None:
        pass

    def setup(self, seed: int, stream: int):
        space = ProfileSpace(self.AXES, name="l2 x mem x cores")
        session = Session()
        WorkloadGenerator.contention_heavy(session, seed=seed, scale=SCALE)
        workload = CapturedWorkload.from_session(
            session, seeded_stream(self.pairs, seed * 1009 + stream,
                                   seed * 1009 + stream),
            clients=CLIENTS)
        candidates = len(space.expand().candidates) + 1  # + baseline
        return TimedSweep(space, workload), candidates

    def measure(self, state, host=None) -> RoundResult:
        sweep, candidates = state
        sweep.host = host
        start = time.perf_counter_ns()
        report = sweep.run(spot_check="none")
        end = time.perf_counter_ns()
        problems = [f"report: {p}"
                    for p in validate_whatif_report(report.to_json())]
        outcomes = [report.baseline, *report.outcomes()]
        for outcome in outcomes:
            if not (math.isfinite(outcome.makespan_ns)
                    and outcome.makespan_ns > 0):
                problems.append(f"{outcome.label}: predicted makespan "
                                f"{outcome.makespan_ns!r}")
        if len(outcomes) != candidates:
            problems.append(f"{len(outcomes)} outcomes for "
                            f"{candidates} candidates")
        queries = len(sweep.workload.queries)
        return RoundResult(
            wall_s=(end - start) / 1e9 - sweep.reference_s,
            done=len(outcomes) * queries,
            attempted=candidates * queries,
            failed=(candidates - len(outcomes)) * queries,
            steps_ms=list(sweep.steps_ms),
            sim={"sim_qps": report.baseline.throughput_qps,
                 "makespans_ns": [o.makespan_ns for o in outcomes]},
            problems=problems, start_ns=start, end_ns=end)


def make(name: str):
    if name == "serve-mem":
        return ServeWorkload(name, 40, origin2000_scaled,
                             WorkloadGenerator.contention_heavy, None)
    if name == "serve-ooc":
        return ServeWorkload(name, 20, disk_extended_scaled,
                             WorkloadGenerator.out_of_core,
                             PlannerConfig(memory_budget=2048))
    if name == "whatif-sweep":
        return WhatIfWorkload(40)
    raise ValueError(f"unknown workload {name!r}")
