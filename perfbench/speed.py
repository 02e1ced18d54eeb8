"""Machine-speed correction for timings taken on a shared host.

On a shared machine the same code runs up to 1.7 times slower while other
tenants load the core, and that load changes over seconds to minutes, so
raw wall times of one seed drift by 20-45 % between runs minutes apart.
The benchmark therefore interleaves a fixed reference computation (exact
rational arithmetic, independent of hypident) with its calls, at least
every ``PROBE_INTERVAL_S``, and scales each measured interval by
``REFERENCE_S`` over the mean reference time around it.  A scaled time
reads as the time the call would take on an unloaded core of the machine
``REFERENCE_S`` was taken on; a change to hypident moves the calls but not
the reference.  Raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# reference() on an unloaded core: x86-64 VM with 2 vCPUs, CPython 3.11
REFERENCE_S = 1.4e-3
PROBE_INTERVAL_S = 0.2
WINDOW_S = 1.0  # probes this close to an interval describe its machine speed


def reference() -> Fraction:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return total


class SpeedProbe:
    """Reference timings taken between calls, and the scaling they give."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        reference()
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def maybe_probe(self) -> None:
        """Probe unless the last probe is less than PROBE_INTERVAL_S old."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean reference time of the probes within
        WINDOW_S of [start, end], or of the nearest probe if none is."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = self.times[lo:hi]
        if not near:
            nearest = min(bisect.bisect_left(self.starts, start), len(self.times) - 1)
            near = [self.times[nearest]]
        return REFERENCE_S / statistics.fmean(near)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
