"""Per-batch service metrics and the one exact percentile.

All times are simulated nanoseconds on the machine a batch ran on.  A
:class:`BatchMetrics` puts one batch's ⊙ prediction next to its
measurement; the query server's
:class:`~repro.server.ServingReport` collects them alongside its
per-query responses and reads its latency percentiles through
:func:`percentile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["percentile", "BatchMetrics"]


#: Sentinel distinguishing "no empty-sample default supplied" from an
#: explicit ``empty=None``.
_RAISE = object()


def percentile(values: Sequence[float], q: float, empty=_RAISE) -> float:
    """The ``q``-th percentile (0–100) with linear interpolation.

    Edge cases are explicit: an empty sample raises :class:`ValueError`
    unless ``empty`` supplies a return value for it (sliding SLO
    windows pass ``empty=None`` — a window with no completions has no
    percentile, which is not an error), and a single sample is its own
    ``q``-th percentile for every ``q`` including 0 and 100."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if not values:
        if empty is _RAISE:
            raise ValueError("percentile of an empty sequence")
        return empty
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass(frozen=True)
class BatchMetrics:
    """One co-run batch: the ⊙ prediction next to the simulator's
    measurement."""

    index: int
    size: int
    predicted_memory_ns: float
    measured_memory_ns: float
    predicted_makespan_ns: float
    measured_makespan_ns: float

    @property
    def contention_error(self) -> float:
        """Relative error of the ⊙-predicted batch memory time against
        the interleaved-replay measurement."""
        if self.measured_memory_ns <= 0:
            return 0.0
        return (abs(self.predicted_memory_ns - self.measured_memory_ns)
                / self.measured_memory_ns)

    def to_json(self) -> dict:
        return {
            "index": self.index, "size": self.size,
            "predicted_memory_ns": self.predicted_memory_ns,
            "measured_memory_ns": self.measured_memory_ns,
            "predicted_makespan_ns": self.predicted_makespan_ns,
            "measured_makespan_ns": self.measured_makespan_ns,
            "contention_error": self.contention_error,
        }
