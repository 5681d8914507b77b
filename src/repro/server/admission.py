"""Admission control: bounded queueing, load shedding, ⊙-guided
batches.

The controller owns the server's run queue and answers two questions.

**May this query wait here?**  The queue is bounded (overload must
surface as explicit shedding, not unbounded simulated latency), and
per-tenant fairly: each tenant's occupancy is capped by its quota, and
when the queue is full a light tenant's arrival displaces the newest
queued query of the *heaviest* tenant instead of being shed — one
tenant flooding the server cannot starve the others out of the queue.

**What runs next?**  Batch formation is the service's one ⊙ admission
rule (:func:`~repro.service.form_batch`), driven by the
:class:`~repro.service.InterferenceModel`: grow the batch with the
candidate that increases the predicted makespan least, and admit a
candidate only while

    makespan(batch ∪ {c})  ≤  makespan(batch) + slack · solo(c)

i.e. co-running ``c`` is predicted to cost no more than queueing it
behind the batch.  Only queries that have *arrived* by the decision
time are candidates (open-loop semantics: the scheduler cannot see the
future), and batch seeds rotate round-robin over tenants so no tenant
waits forever behind a chattier one.  Two degenerate modes —
``"fifo-serial"`` (singletons) and ``"max-parallel"`` (pack to the cap
in arrival order, contention-blind) — are the baselines the serving
benchmark compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..service.interference import InterferenceModel
from ..service.scheduler import (
    ADMISSION_MODES,
    Batch,
    Task,
    check_admission,
    form_batch,
)
from .tenant import TenantQuota

__all__ = ["ServerTask", "AdmissionController", "ADMISSION_MODES"]


@dataclass(frozen=True)
class ServerTask(Task):
    """One compiled query waiting in the server's run queue: the
    service's priced :class:`~repro.service.Task` (made by
    :func:`~repro.service.compile_task`) plus what only the server
    adds."""

    #: The owning tenant's name.
    tenant: str
    #: Resolution slot (an asyncio future-like) the server resolves
    #: with the response; the controller never touches it.
    handle: object = field(default=None, repr=False, compare=False)
    #: Wall-clock (``perf_counter_ns``) stamps around the compile, set
    #: by the server's compile worker; the controller never reads them.
    compile_wall_start_ns: int = 0
    compile_wall_end_ns: int = 0

    @property
    def compile_wall_ns(self) -> int:
        """Wall-clock nanoseconds the compile took."""
        return self.compile_wall_end_ns - self.compile_wall_start_ns


class AdmissionController:
    """Bounded, tenant-fair run queue with ⊙-guided batch formation."""

    def __init__(self, interference: InterferenceModel,
                 mode: str = "interference-aware", max_queue: int = 64,
                 max_batch: int = 4, slack: float = 1.0,
                 lookahead: int = 8) -> None:
        check_admission(mode, max_batch, slack, lookahead)
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.interference = interference
        self.mode = mode
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.slack = slack
        self.lookahead = lookahead
        #: Arrival-ordered run queue.
        self.queue: list[ServerTask] = []
        #: Round-robin seed order over tenant names (least recently
        #: seeded first).
        self._rr: list[str] = []

    # -- queue side ----------------------------------------------------
    def occupancy(self, tenant: str) -> int:
        return sum(1 for t in self.queue if t.tenant == tenant)

    def offer(self, task: ServerTask, quota: TenantQuota
              ) -> list[ServerTask]:
        """Try to queue ``task``; returns the tasks shed by the
        attempt — ``[task]`` itself when it was refused, ``[victim]``
        when it displaced a heavier tenant's entry, ``[]`` when it
        simply fit."""
        if task.tenant not in self._rr:
            self._rr.append(task.tenant)
        if self.occupancy(task.tenant) >= quota.max_queued:
            return [task]  # over its own quota: shed, nobody displaced
        if len(self.queue) < self.max_queue:
            self.queue.append(task)
            return []
        # Queue full: a lighter tenant displaces the newest entry of
        # the heaviest one (never the other way round) — fairness means
        # overload is charged to whoever causes it.
        heaviest = max({t.tenant for t in self.queue},
                       key=self.occupancy)
        if (heaviest == task.tenant
                or self.occupancy(task.tenant) + 1
                >= self.occupancy(heaviest)):
            return [task]
        victim = next(t for t in reversed(self.queue)
                      if t.tenant == heaviest)
        self.queue.remove(victim)
        self.queue.append(task)
        return [victim]

    def earliest_arrival(self) -> float | None:
        """The earliest arrival time still queued (for idle-clock
        jumps), or ``None`` on an empty queue."""
        if not self.queue:
            return None
        return min(t.query.arrival_ns for t in self.queue)

    def __len__(self) -> int:
        return len(self.queue)

    # -- batch side ----------------------------------------------------
    def _seed(self, arrived: list[ServerTask]) -> int:
        """The next batch's seed (an index into ``arrived``): the
        longest-waiting query of the least recently seeded tenant that
        has anything waiting."""
        for name in self._rr:
            for i, task in enumerate(arrived):
                if task.tenant == name:
                    self._rr.remove(name)
                    self._rr.append(name)
                    return i
        return 0

    def next_batch(self, now_ns: float) -> Batch:
        """Form (and dequeue) the next co-run batch among the queries
        that have arrived by ``now_ns`` — empty when none have.  The
        batch carries the ⊙ predictions the rule priced."""
        arrived = [t for t in self.queue if t.query.arrival_ns <= now_ns]
        if not arrived:
            return Batch([], self.interference)
        seed = (self._seed(arrived) if self.mode == "interference-aware"
                else 0)
        batch = form_batch(arrived, self.interference, mode=self.mode,
                           max_batch=self.max_batch, slack=self.slack,
                           lookahead=self.lookahead, seed=seed)
        for task in batch:
            self.queue.remove(task)
        return batch

    def __repr__(self) -> str:
        return (f"AdmissionController(mode={self.mode!r}, "
                f"queued={len(self.queue)}/{self.max_queue}, "
                f"max_batch={self.max_batch}, slack={self.slack})")
