"""Concurrent workload service: interference-aware scheduling via ⊙.

The paper's concurrent-execution operator ``⊙`` (Section 5.2) models
access patterns competing for a cache, dividing its capacity
proportionally to the patterns' footprints.  PR 1 applied it *within*
one query (pipelined producer/consumer edges); this subsystem applies
it *between* queries: composing the whole-plan patterns of queries that
are to run concurrently under one ``⊙`` predicts the batch's contention
slowdown — and a scheduler that trusts the prediction can decide which
queries may share the machine.

* :mod:`repro.service.workload` — deterministic seeded multi-client
  query streams over a shared :class:`~repro.session.Session` catalog,
* :mod:`repro.service.interference` — the ⊙ co-run cost model
  (:class:`InterferenceModel`, :class:`CoRunPrediction`),
* :mod:`repro.service.scheduler` — the one compile step
  (:func:`compile_task`) and the one ⊙ admission rule
  (:func:`form_batch` over :data:`ADMISSION_MODES`) every batch
  former shares: the query server and the what-if sweep,
* :mod:`repro.service.executor` — the one batch runner
  (:func:`~repro.service.executor.run_batch`: a solo member measured
  directly, a co-run batch's recorded traces replayed interleaved
  through one shared memory system),
* :mod:`repro.service.metrics` — per-batch prediction-vs-measurement
  metrics (:class:`BatchMetrics`) and :func:`percentile`.

Serving a workload through these pieces — compile, admit, run batch
after batch on a simulated clock, report — is the
:class:`~repro.server.QueryServer`'s job; its
:class:`~repro.server.ServingReport` is the one result shape.
"""

from .executor import TraceRecorder, replay_interleaved
from .interference import CoRunPrediction, InterferenceModel
from .metrics import BatchMetrics, percentile
from .scheduler import (
    ADMISSION_MODES,
    Batch,
    Task,
    compile_task,
    form_batch,
    form_batches,
)
from .workload import (
    WorkloadGenerator,
    WorkloadQuery,
    poisson_gaps,
    stamp_arrivals,
)

__all__ = [
    "WorkloadGenerator",
    "WorkloadQuery",
    "poisson_gaps",
    "stamp_arrivals",
    "InterferenceModel",
    "CoRunPrediction",
    "ADMISSION_MODES",
    "Batch",
    "Task",
    "compile_task",
    "form_batch",
    "form_batches",
    "TraceRecorder",
    "replay_interleaved",
    "BatchMetrics",
    "percentile",
]
