"""The one batch runner: measuring a co-run batch on the simulator.

The trace-driven simulator executes one access at a time, so
*concurrency* is simulated the way the ⊙ model describes it: record
each plan's access trace (the exact sequence of accesses the engine's
operators issue), then replay a batch's traces **interleaved
round-robin** through a single cold
:class:`~repro.simulator.MemorySystem`.  The interleaved replay makes
the co-runners genuinely compete for every cache level — the measured
counterpart of composing their patterns under ``⊙``.  A solo batch
needs no interleaving and is measured directly; :func:`run_batch`, the
batch runner of the query server (and so of what-if spot checks),
picks the path.

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
queries' stalls (:meth:`BatchReplay.metrics`).  The server runs batches
in sequence on its simulated clock.
"""

from __future__ import annotations

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
from .metrics import BatchMetrics
from .scheduler import Batch

__all__ = ["TraceRecorder", "record_trace", "replay_interleaved",
           "trace_length", "measure_solo", "run_batch", "BatchReplay"]


class TraceRecorder:
    """A stand-in for :class:`~repro.simulator.MemorySystem` that
    records the access trace instead of simulating it (operators only
    ever call :meth:`access`/:meth:`read`/:meth:`write` — or, since the
    vectorized engine, :meth:`access_range` and :meth:`batch`).

    Trace entries are a plain ``(addr, nbytes)`` access or a coalesced
    ``("range", addr, nbytes, stride, count)`` run standing for
    ``count`` accesses, each with a trailing ``True`` when it writes;
    replay expands ranges access-for-access, so a trace recorded under
    vectorized execution replays to the same counters (buffer-pool
    write-backs included) as its scalar recording.  ``offset`` shifts
    every address (a tenant's private slice of a shared replay)."""

    __slots__ = ("trace", "offset")

    def __init__(self, offset: int = 0) -> None:
        self.trace: list[tuple] = []
        self.offset = offset

    def access(self, addr: int, nbytes: int = 1, write: bool = False) -> None:
        addr += self.offset
        self.trace.append((addr, nbytes, True) if write else (addr, nbytes))

    def access_range(self, addr: int, nbytes: int, stride: int | None = None,
                     count: int = 1, write: bool = False) -> None:
        if count > 0:
            entry = ("range", addr + self.offset, nbytes,
                     nbytes if stride is None else stride, count)
            self.trace.append(entry + (True,) if write else entry)

    def batch(self):
        append = self.trace.append
        offset = self.offset

        def fused(addr: int, nbytes: int = 8, write: bool = False) -> None:
            addr += offset
            append((addr, nbytes, True) if write else (addr, nbytes))

        return fused

    def read(self, addr: int, nbytes: int = 1) -> None:
        self.access(addr, nbytes)

    def write(self, addr: int, nbytes: int = 1) -> None:
        self.access(addr, nbytes, write=True)


def trace_length(trace: Sequence[tuple]) -> int:
    """The number of simulated accesses a trace stands for (coalesced
    range entries count every item in the run)."""
    return sum(entry[4] if entry[0] == "range" else 1 for entry in trace)


def record_trace(db: Database, plan: QueryPlan, offset: int = 0
                 ) -> tuple[list[tuple], int]:
    """Execute ``plan`` against ``db`` with a recording memory system;
    returns its access trace (addresses shifted by ``offset``) and the
    result's row count.  Base columns are restored afterwards, so every
    batch member records against the same base state."""
    recorder = TraceRecorder(offset)
    real = db.mem
    with db.restoring_columns():
        db.mem = recorder
        try:
            result = plan.execute(db)
        finally:
            db.mem = real
    return recorder.trace, len(result.values)


@dataclass(frozen=True)
class BatchReplay:
    """The measured outcome of one batch: an interleaved replay, or a
    solo member's measured run."""

    #: Total memory time of the batch (sum of all attributed latencies).
    total_ns: float
    #: Memory time attributed to each trace's own accesses.
    memory_ns: tuple[float, ...]
    #: Elapsed (shared-clock) time at which each trace finished.
    finish_ns: tuple[float, ...]
    #: Per-level hit/miss counters of the shared memory system after
    #: the whole batch drained — the sample the metrics registry takes
    #: at batch boundaries.
    counters: CounterSnapshot

    def metrics(self, index: int, batch: Batch
                ) -> tuple[list[float], BatchMetrics]:
        """Each member's finish time (relative to the batch start) and
        the batch's measurement next to the ⊙ prediction it was formed
        with.  A member is done once its accesses have drained *and*
        its own CPU work fits after/between them; the batch is done
        when its last member is and the shared hierarchy has
        drained."""
        finishes = [max(finish, memory + task.cpu_ns) for finish, memory, task
                    in zip(self.finish_ns, self.memory_ns, batch)]
        prediction = batch.prediction
        return finishes, BatchMetrics(
            index=index, size=len(batch),
            predicted_memory_ns=prediction.batch_memory_ns,
            measured_memory_ns=self.total_ns,
            predicted_makespan_ns=prediction.makespan_ns,
            measured_makespan_ns=max(max(finishes), self.total_ns))


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
    # remainder replays as access_range(addr + done * stride, ...) with
    # the run's write bit, which is access-for-access identical to
    # finishing the loop.
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
                    _, addr, nbytes, stride, count, *write = entry
                    take = min(count - done, budget)
                    mem.access_range(addr + done * stride, nbytes,
                                     stride, take, *write)
                    budget -= take
                    done += take
                    if done == count:
                        entry_index += 1
                        done = 0
                else:
                    mem.access(*entry)
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


def measure_solo(session: Session, plan: QueryPlan,
                 hierarchy: MemoryHierarchy) -> MeasuredResult:
    """One plan's cold typed measurement over ``session``'s engine,
    simulated on ``hierarchy`` — the machine the batch runs on, which a
    served tenant's recalibrated profile only prices, never simulates.

    Runs against a *fresh* memory system swapped in for the duration
    (the engine's own clock and cache state stay untouched, exactly as
    trace recording + replay guarantee), with base columns restored so
    later runs observe the same base state."""
    db = session.db
    real = db.mem
    db.mem = MemorySystem(hierarchy)
    try:
        with db.restoring_columns(), \
                db.execution_scope(session.config.execution):
            return measure_plan(db, plan, session.model,
                                pipeline=session.config.pipeline,
                                cold=False,  # the swapped-in system
                                             # is already cold
                                signature=plan_signature(plan.root))
    finally:
        db.mem = real


def run_batch(hierarchy: MemoryHierarchy,
              members: Sequence[tuple[Session, QueryPlan, int]],
              quantum: int = DEFAULT_QUANTUM, replay=replay_interleaved
              ) -> tuple[BatchReplay, list[int], MeasuredResult | None]:
    """Execute and measure one batch of ``(session, plan, address
    offset)`` members on ``hierarchy``.

    A solo member runs through :func:`measure_solo`: the counters a
    single-trace replay would give (record → replay equals direct
    execution) *plus* per-operator attribution.  A co-run batch
    records each member's trace, shifted by its offset, and replays
    them through ``replay`` (the caller's :func:`replay_interleaved`
    binding).  Returns the :class:`BatchReplay`, each member's row
    count, and the solo member's measurement (``None`` for a co-run
    batch)."""
    if len(members) == 1:
        session, plan, _ = members[0]
        measured = measure_solo(session, plan, hierarchy)
        elapsed = measured.measured_ns
        solo = BatchReplay(total_ns=elapsed, memory_ns=(elapsed,),
                           finish_ns=(elapsed,), counters=measured.counters)
        return solo, [len(measured.column.values)], measured
    traces, rows = [], []
    for session, plan, offset in members:
        with session.db.execution_scope(session.config.execution):
            trace, nrows = record_trace(session.db, plan, offset)
        traces.append(trace)
        rows.append(nrows)
    return replay(hierarchy, traces, quantum=quantum), rows, None
