"""Simulated-time multi-client execution over one shared engine.

The trace-driven simulator executes one access at a time, so
*concurrency* is simulated the way the ⊙ model describes it: record
each plan's access trace (the exact sequence of ``(address, nbytes)``
the engine's operators issue), then replay a batch's traces
**interleaved round-robin** through a single cold
:class:`~repro.simulator.MemorySystem`.  The interleaved replay makes
the co-runners genuinely compete for every cache level — the measured
counterpart of composing their patterns under ``⊙``.

Recording happens against the shared :class:`~repro.db.Database` (one
address space, so two queries over one table really do share lines),
with base-column values snapshot/restored around each run: sort-based
operators reorder shared base columns in place, and every batch member
must observe the same base state — concurrent execution over one
snapshot.

Timing follows :mod:`repro.service.interference`: per batch,
``makespan = max(Σ mem_i, max_i (cpu_i + mem_i))`` with ``mem_i``
query ``i``'s share of the replayed (contended) memory time — memory
latencies serialize on the shared hierarchy, CPU overlaps other
queries' stalls.  Batches execute in sequence on a simulated clock.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

from ..db.context import Database
from ..hardware.hierarchy import MemoryHierarchy
from ..query.observe import MeasuredResult, measure_plan
from ..query.optimizer import plan_signature
from ..query.physical import QueryPlan
from ..session import Session
from ..simulator.counters import CounterSnapshot
from ..simulator.memory import MemorySystem
from .interference import InterferenceModel
from .metrics import BatchMetrics, QueryMetrics, WorkloadReport
from .scheduler import Task, check_admission, form_batches
from .workload import WorkloadQuery

__all__ = ["TraceRecorder", "record_trace", "replay_interleaved",
           "trace_length", "measure_solo", "BatchReplay",
           "ServiceExecutor"]


class TraceRecorder:
    """A stand-in for :class:`~repro.simulator.MemorySystem` that
    records the access trace instead of simulating it (operators only
    ever call :meth:`access`/:meth:`read`/:meth:`write` — or, since the
    vectorized engine, :meth:`access_range` and :meth:`batch`).

    Trace entries are either a plain ``(addr, nbytes)`` access or a
    coalesced ``("range", addr, nbytes, stride, count)`` run standing
    for ``count`` accesses; replay expands ranges access-for-access, so
    a trace recorded under vectorized execution replays to the same
    counters as its scalar recording."""

    __slots__ = ("trace",)

    def __init__(self) -> None:
        self.trace: list[tuple] = []

    def access(self, addr: int, nbytes: int = 1, write: bool = False) -> None:
        self.trace.append((addr, nbytes))

    def access_range(self, addr: int, nbytes: int, stride: int | None = None,
                     count: int = 1, write: bool = False) -> None:
        if count > 0:
            self.trace.append(("range", addr, nbytes,
                               nbytes if stride is None else stride, count))

    def batch(self):
        trace = self.trace

        def fused(addr: int, nbytes: int = 8, write: bool = False) -> None:
            trace.append((addr, nbytes))

        return fused

    def read(self, addr: int, nbytes: int = 1) -> None:
        self.access(addr, nbytes)

    def write(self, addr: int, nbytes: int = 1) -> None:
        self.access(addr, nbytes, write=True)


def trace_length(trace: Sequence[tuple]) -> int:
    """The number of simulated accesses a trace stands for (coalesced
    range entries count every item in the run)."""
    return sum(entry[4] if entry[0] == "range" else 1 for entry in trace)


@contextmanager
def _restored_columns(db: Database):
    """Snapshot/restore registered columns' values (in-place sorts must
    not leak between recordings; the copy is Python-level and invisible
    to the simulated trace)."""
    saved = {column: list(column.values) for column in db.catalog.values()}
    try:
        yield
    finally:
        for column, values in saved.items():
            column.values = values


def record_trace(db: Database, plan: QueryPlan) -> tuple[list[tuple], int]:
    """Execute ``plan`` against ``db`` with a recording memory system;
    returns its access trace and the result's row count.  Base columns
    are restored afterwards, so every batch member records against the
    same base state."""
    recorder = TraceRecorder()
    real = db.mem
    with _restored_columns(db):
        db.mem = recorder
        try:
            result = plan.execute(db)
        finally:
            db.mem = real
    return recorder.trace, len(result.values)


@dataclass(frozen=True)
class BatchReplay:
    """The measured outcome of one interleaved batch replay."""

    #: Total memory time of the batch (sum of all attributed latencies).
    total_ns: float
    #: Memory time attributed to each trace's own accesses.
    memory_ns: tuple[float, ...]
    #: Elapsed (shared-clock) time at which each trace finished.
    finish_ns: tuple[float, ...]
    #: Per-level hit/miss counters of the shared memory system after
    #: the whole batch drained — the sample the metrics registry takes
    #: at batch boundaries.
    counters: CounterSnapshot | None = None

    def timing(self, cpu_ns: Sequence[float]
               ) -> tuple[list[float], float]:
        """Each member's finish time (relative to the batch start)
        given its pure-CPU time, and the batch makespan.  A member is
        done once its accesses have drained *and* its own CPU work fits
        after/between them; the batch is done when its last member is
        and the shared hierarchy has drained."""
        finishes = [max(finish, memory + cpu) for finish, memory, cpu
                    in zip(self.finish_ns, self.memory_ns, cpu_ns)]
        return finishes, max(max(finishes), self.total_ns)


#: Default time-slice length (accesses per turn) of the interleaved
#: replay.  The ⊙ model divides capacity as if each co-runner keeps a
#: steady working partition; a quantum of one access instead models
#: adversarial per-access alternation (SMT worst case), where the
#: competitors evict each other's hot lines *between consecutive
#: accesses* — measurably worse than proportional sharing, especially
#: for the 8-entry TLB.  A quantum of tens of accesses corresponds to
#: the scheduler-granularity time-slicing a query service actually
#: exhibits, and is the regime the Section 5.2 division describes.
DEFAULT_QUANTUM = 64


def replay_interleaved(hierarchy: MemoryHierarchy,
                       traces: Sequence[Sequence[tuple]],
                       quantum: int = DEFAULT_QUANTUM) -> BatchReplay:
    """Replay ``traces`` round-robin (``quantum`` accesses per active
    trace per turn) through one cold
    :class:`~repro.simulator.MemorySystem`.

    Round-robin interleaving is the fair time-slicing ⊙ assumes: every
    co-runner advances at the same access rate while all compete for
    the same caches.  Shorter traces drop out as they finish, leaving
    the remainder more of the cache — the same asymmetry the footprint
    division models.
    """
    if quantum < 1:
        raise ValueError("quantum must be positive")
    mem = MemorySystem(hierarchy)
    n = len(traces)
    memory = [0.0] * n
    finish = [0.0] * n
    # Per-trace cursor: (entry index, accesses already replayed out of
    # the current entry).  A coalesced range entry stands for `count`
    # accesses, and a quantum boundary may split it mid-run — the
    # remainder replays as access_range(addr + done * stride, ...),
    # which is access-for-access identical to finishing the loop.
    positions: list[tuple[int, int]] = [(0, 0)] * n
    active = [i for i in range(n) if trace_length(traces[i]) > 0]
    while active:
        still_active = []
        for i in active:
            trace = traces[i]
            entry_index, done = positions[i]
            budget = quantum
            before = mem.elapsed_ns
            while budget > 0 and entry_index < len(trace):
                entry = trace[entry_index]
                if entry[0] == "range":
                    _, addr, nbytes, stride, count = entry
                    take = min(count - done, budget)
                    mem.access_range(addr + done * stride, nbytes,
                                     stride, take)
                    budget -= take
                    done += take
                    if done == count:
                        entry_index += 1
                        done = 0
                else:
                    addr, nbytes = entry
                    mem.access(addr, nbytes)
                    budget -= 1
                    entry_index += 1
            memory[i] += mem.elapsed_ns - before
            positions[i] = (entry_index, done)
            if entry_index < len(trace):
                still_active.append(i)
            else:
                finish[i] = mem.elapsed_ns
        active = still_active
    return BatchReplay(total_ns=mem.elapsed_ns,
                       memory_ns=tuple(memory),
                       finish_ns=tuple(finish),
                       counters=mem.snapshot())


def measure_solo(session: Session, plan: QueryPlan) -> MeasuredResult:
    """One plan's cold typed measurement over ``session``'s engine.

    Runs against a *fresh* memory system swapped in for the duration
    (the engine's own clock and cache state stay untouched, exactly as
    trace recording + replay guarantee), with base columns restored so
    later runs observe the same base state — the solo-batch path both
    the offline executor and the query server use."""
    db = session.db
    real = db.mem
    db.mem = MemorySystem(session.hierarchy)
    try:
        with _restored_columns(db), \
                db.execution_scope(session.config.execution):
            return measure_plan(db, plan, session.model,
                                pipeline=session.config.pipeline,
                                cold=False,  # the swapped-in system
                                             # is already cold
                                signature=plan_signature(plan.root))
    finally:
        db.mem = real


class ServiceExecutor:
    """Drives a workload through compile → schedule → co-run replay.

    Parameters
    ----------
    session:
        The root session owning the shared engine, catalog, and plan
        cache.  Each client gets its own :meth:`~Session.spawn`-ed
        session over the same engine and cache, so compile provenance
        (hit/miss) is tracked per client while plans are shared.
    mode / max_batch / slack / lookahead:
        Batch formation (:func:`~repro.service.scheduler.form_batch`;
        ``mode`` is one of :data:`~repro.service.ADMISSION_MODES`),
        priced on the session's *current* profile at every
        :meth:`run`.
    quantum:
        Time-slice length of the interleaved replay (accesses per
        co-runner per turn; see :data:`DEFAULT_QUANTUM`).
    """

    def __init__(self, session: Session, *,
                 mode: str = "interference-aware", max_batch: int = 4,
                 slack: float = 1.0, lookahead: int = 8,
                 quantum: int = DEFAULT_QUANTUM) -> None:
        check_admission(mode, max_batch, slack, lookahead)
        self.session = session
        self.mode = mode
        self.max_batch = max_batch
        self.slack = slack
        self.lookahead = lookahead
        self.quantum = quantum
        self.interference = InterferenceModel(session.hierarchy)
        self._clients: dict[int, Session] = {}

    # ------------------------------------------------------------------
    def _client_session(self, client: int) -> Session:
        if client not in self._clients:
            self._clients[client] = self.session.spawn()
        return self._clients[client]

    def admit(self, queries: Sequence[WorkloadQuery]) -> list[Task]:
        """Compile every queued query through its client's session (all
        sharing one plan cache) into scheduler tasks."""
        tasks: list[Task] = []
        for wq in queries:
            client = self._client_session(wq.client)
            planned = client.compile(wq.text)
            plan = planned.plan
            memory, cpu = self.interference.standalone(plan)
            tasks.append(Task(query=wq, plan=plan,
                              solo_memory_ns=memory, cpu_ns=cpu,
                              cache_hit=client.last_compile_cached,
                              signature=plan_signature(plan.root)))
        return tasks

    def run(self, queries: Sequence[WorkloadQuery]) -> WorkloadReport:
        """Admit, schedule, and execute ``queries``; returns the full
        simulated-time report."""
        if self.interference.hierarchy is not self.session.hierarchy:
            # the shared engine's profile changed since construction
            self.interference = InterferenceModel(self.session.hierarchy)
        batches = form_batches(self.admit(queries), self.interference,
                               mode=self.mode, max_batch=self.max_batch,
                               slack=self.slack, lookahead=self.lookahead)
        db = self.session.db
        clock = 0.0
        query_metrics: list[QueryMetrics] = []
        batch_metrics: list[BatchMetrics] = []
        for index, batch in enumerate(batches):
            if len(batch) == 1:
                # A solo member needs no interleaving: run it through
                # the typed measured path, which yields the identical
                # cold-cache counters a single-trace replay would (the
                # out-of-core suite proves replay == execution) *plus*
                # per-operator predicted-vs-measured attribution.
                measured = measure_solo(self.session, batch[0].plan)
                elapsed = measured.measured_ns
                replay = BatchReplay(total_ns=elapsed,
                                     memory_ns=(elapsed,),
                                     finish_ns=(elapsed,))
                operators = (measured.operators,)
            else:
                with db.execution_scope(self.session.config.execution):
                    traces = [record_trace(db, t.plan)[0] for t in batch]
                replay = replay_interleaved(self.session.hierarchy, traces,
                                            quantum=self.quantum)
                operators = (None,) * len(batch)
            finishes, makespan = replay.timing([t.cpu_ns for t in batch])
            for t, mem_ns, finish, ops in zip(batch, replay.memory_ns,
                                              finishes, operators):
                query_metrics.append(QueryMetrics(
                    qid=t.query.qid, client=t.query.client,
                    kind=t.query.kind, signature=t.signature,
                    batch_index=index, cache_hit=t.cache_hit,
                    start_ns=clock, finish_ns=clock + finish,
                    memory_ns=mem_ns, cpu_ns=t.cpu_ns,
                    operators=ops))
            prediction = batch.prediction
            batch_metrics.append(BatchMetrics(
                index=index, size=len(batch),
                predicted_memory_ns=prediction.batch_memory_ns,
                measured_memory_ns=replay.total_ns,
                predicted_makespan_ns=prediction.makespan_ns,
                measured_makespan_ns=makespan))
            clock += makespan
        query_metrics.sort(key=lambda m: m.qid)
        return WorkloadReport(self.mode, query_metrics, batch_metrics,
                              fingerprint=self.session.fingerprint)
