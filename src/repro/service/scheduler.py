"""Admission control: the one ⊙ batch-formation rule.

Batch formation turns an arrival-ordered queue of compiled
:class:`Task` objects into **batches**; batches execute one after
another, the members of a batch concurrently.  Three modes
(:data:`ADMISSION_MODES`) span the design space:

* ``"fifo-serial"`` — the baseline: one query per batch, no
  concurrency, no interference (and no CPU/memory overlap either);
* ``"max-parallel"`` — the opposite extreme: pack every batch to the
  concurrency cap in arrival order, blind to contention;
* ``"interference-aware"`` — greedy co-schedule selection under the ⊙
  model: grow each batch with the candidate that increases the
  predicted makespan least, and admit a candidate only while
  co-running is predicted no slower than queueing it behind the batch.

:func:`form_batch` is the rule, and both callers share it: the query
server's :class:`~repro.server.AdmissionController` (round-robin
tenant seeds over the queries arrived by the decision time), and the
what-if sweep's pricing (:func:`form_batches`: queue-head seeds over
the whole stream).  With one tenant and the whole stream arrived at
time zero the two seedings coincide, which is why a what-if spot check
served by the server measures the very batches the sweep priced.  They
share the step before it too: :func:`compile_task` turns a query into
the priced :class:`Task` the rule reads (the server's
:class:`~repro.server.ServerTask` extends it with what only the server
needs).

Batches, not a continuous stream, keep the simulated-time semantics
exact: within a batch the batch runner interleaves the members' access
traces on the shared hierarchy; across batches the machine is a simple
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..query.optimizer import plan_signature
from ..query.physical import QueryPlan
from ..session import Session
from .interference import CoRunPrediction, InterferenceModel
from .workload import WorkloadQuery

__all__ = ["ADMISSION_MODES", "Task", "compile_task", "Batch",
           "check_admission", "form_batch", "form_batches"]

#: Recognized batch-formation modes.
ADMISSION_MODES = ("interference-aware", "max-parallel", "fifo-serial")


def check_admission(mode: str, max_batch: int, slack: float,
                    lookahead: int) -> None:
    """Validate the batch-formation knobs every caller takes."""
    if mode not in ADMISSION_MODES:
        raise ValueError(f"unknown admission mode {mode!r} (the "
                         f"batch-formation policy must be one of "
                         f"{ADMISSION_MODES})")
    if max_batch < 1:
        raise ValueError("max_batch must be positive")
    if slack <= 0:
        raise ValueError("slack must be positive")
    if lookahead < 1:
        raise ValueError("lookahead must be positive")


@dataclass(frozen=True)
class Task:
    """One admitted, compiled query awaiting execution — what
    :func:`compile_task` makes of a :class:`WorkloadQuery`."""

    query: WorkloadQuery
    plan: QueryPlan
    #: Predicted standalone (cold, whole-cache) memory time.
    solo_memory_ns: float
    #: Calibrated pure-CPU time (Eq. 6.1).
    cpu_ns: float
    #: Whether compilation was served from the shared plan cache.
    cache_hit: bool
    #: The chosen physical plan's one-line signature.
    signature: str
    #: Fingerprint of the profile the plan was compiled (and priced)
    #: under — provenance across recalibrations.
    fingerprint: str

    @property
    def qid(self) -> int:
        return self.query.qid

    @property
    def solo_total_ns(self) -> float:
        """Standalone completion time (Eq. 6.1: memory + CPU)."""
        return self.solo_memory_ns + self.cpu_ns


def compile_task(session: Session, query: WorkloadQuery,
                 interference: InterferenceModel) -> Task:
    """Compile ``query`` through ``session`` (and its plan cache) and
    price its standalone run: the one step from query text to a priced
    :class:`Task` that the what-if sweep and the query server share."""
    plan = session.compile(query.text).plan
    memory, cpu = interference.standalone(plan)
    return Task(query=query, plan=plan, solo_memory_ns=memory, cpu_ns=cpu,
                cache_hit=session.last_compile_cached,
                signature=plan_signature(plan.root),
                fingerprint=session.fingerprint)


class Batch(list):
    """One formed co-run batch: its member tasks in admission order,
    carrying the ⊙ prediction of every prefix the rule priced.

    ``prefix(k)`` is the co-run prediction of the first ``k`` members
    and :attr:`prediction` the whole batch's.  Prefixes the rule did
    not price (the contention-blind modes price none) are computed on
    first read and kept, so no caller prices a batch twice.
    """

    def __init__(self, tasks: Sequence, interference: InterferenceModel,
                 priced: Sequence[CoRunPrediction] = ()) -> None:
        super().__init__(tasks)
        self.interference = interference
        self._priced = dict(enumerate(priced, start=1))

    def prefix(self, size: int) -> CoRunPrediction:
        prediction = self._priced.get(size)
        if prediction is None:
            prediction = self.interference.co_run(
                [t.plan for t in self[:size]])
            self._priced[size] = prediction
        return prediction

    @property
    def prediction(self) -> CoRunPrediction:
        return self.prefix(len(self))


def form_batch(tasks: Sequence, interference: InterferenceModel, *,
               mode: str, max_batch: int, slack: float, lookahead: int,
               seed: int = 0) -> Batch:
    """Form one batch from the arrival-ordered ``tasks`` (left
    unchanged), seeded with ``tasks[seed]``.

    In ``"interference-aware"`` mode the batch repeatedly takes the
    candidate whose admission yields the smallest predicted makespan,
    admitting a candidate ``c`` only if

        makespan(batch ∪ {c})  ≤  makespan(batch) + slack · solo(c)

    i.e. co-running ``c`` is predicted to cost no more than running it
    *after* the batch (``slack=1``), so a decision never makes the
    predicted schedule worse than FIFO-serial.  ``slack`` trades
    strictness for packing: below 1 it demands a predicted win from
    concurrency, above 1 it tolerates bounded interference in exchange
    for freeing later batches.  The candidate scan is bounded by
    ``lookahead`` queue positions, so forming a batch costs
    ``O(max_batch · lookahead)`` co-run predictions; unpicked
    candidates keep their arrival order.
    """
    first = tasks[seed]
    rest = [t for i, t in enumerate(tasks) if i != seed]
    if mode == "fifo-serial":
        return Batch([first], interference)
    if mode == "max-parallel":
        return Batch([first, *rest[:max_batch - 1]], interference)
    members = [first]
    priced = [interference.co_run([first.plan])]
    while len(members) < max_batch and rest:
        best_index = best = None
        plans = [t.plan for t in members]
        for i, candidate in enumerate(rest[:lookahead]):
            predicted = interference.co_run(plans + [candidate.plan])
            limit = (priced[-1].makespan_ns
                     + slack * candidate.solo_total_ns)
            if predicted.makespan_ns > limit:
                continue  # rejected: queueing it is cheaper
            if best is None or predicted.makespan_ns < best.makespan_ns:
                best_index, best = i, predicted
        if best is None:
            break
        members.append(rest.pop(best_index))
        priced.append(best)
    return Batch(members, interference, priced)


def form_batches(tasks: Sequence, interference: InterferenceModel, *,
                 mode: str, max_batch: int, slack: float,
                 lookahead: int) -> list[Batch]:
    """Partition the whole arrival-ordered stream into batches, each
    seeded with the longest-waiting task left — so no task starves."""
    queue = list(tasks)
    batches: list[Batch] = []
    while queue:
        batch = form_batch(queue, interference, mode=mode,
                           max_batch=max_batch, slack=slack,
                           lookahead=lookahead)
        batches.append(batch)
        taken = {id(t) for t in batch}
        queue = [t for t in queue if id(t) not in taken]
    return batches
