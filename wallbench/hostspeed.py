"""How fast the host runs Python right now, from a fixed reference kernel.

The benchmark's host is shared: the same pure-Python loop runs up to
a third slower for minutes at a time when neighbours are busy, and a
run's wall-clock figures follow.  A run therefore times this kernel in
short samples between its rounds (and between what-if price calls),
and scales its wall-clock figures to the speed the kernel has on the
reference host.  The kernel uses no code of the repository, so a
change to the program cannot move it.
"""

from __future__ import annotations

import time

#: Kernel chunks per second on the reference host (2-vCPU Intel Xeon
#: VM, CPython 3, quiet).  Only ratios to it are reported, so any fixed
#: value works; this one keeps scaled figures near raw ones there.
REFERENCE_CHUNKS_PER_S = 3400.0
#: Reference-kernel time as a share of the measured time around it.
SHARE = 0.15
#: Shortest sample, in seconds.
MIN_SAMPLE_S = 0.02
_ACCESSES = 512
_LINES = 64


def chunk() -> int:
    """One chunk of the kernel: an LRU cache of ``_LINES`` lines fed
    by a linear congruential address stream, plus float arithmetic.
    Returns the miss count, which is the same on every call."""
    lines: dict[int, bool] = {}
    misses = 0
    address = 12345
    total = 0.0
    for _ in range(_ACCESSES):
        address = (address * 1103515245 + 12345) & 0x3FFF
        line = address >> 6
        if line in lines:
            del lines[line]
        else:
            misses += 1
            if len(lines) >= _LINES:
                del lines[next(iter(lines))]
        lines[line] = True
        total += line * 0.5
    if total <= 0:
        raise AssertionError("reference kernel produced no work")
    return misses


class HostSpeed:
    """Accumulates reference-kernel samples over a run."""

    def __init__(self) -> None:
        self.chunks = 0
        self.seconds = 0.0
        self.samples = 0
        self._misses = chunk()

    def sample(self, around_s: float) -> float:
        """Time the kernel for ``SHARE`` of ``around_s`` seconds (at
        least ``MIN_SAMPLE_S``); returns the seconds it took."""
        duration = max(MIN_SAMPLE_S, SHARE * around_s)
        count = 0
        start = time.perf_counter()
        while True:
            if chunk() != self._misses:
                raise AssertionError("reference kernel is not deterministic")
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed >= duration:
                break
        self.chunks += count
        self.seconds += elapsed
        self.samples += 1
        return elapsed

    def slowdown(self) -> float:
        """Reference speed ÷ measured speed: above 1 on a slow host.
        Multiply a measured time by its inverse to get the time on the
        reference host."""
        return REFERENCE_CHUNKS_PER_S / (self.chunks / self.seconds)
