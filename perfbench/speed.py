"""Machine-speed gauge: a fixed reference loop timed every 20 ms.

Shared test machines change speed under the benchmark: on a shared
2-CPU VM a fixed Python loop alternates between a fast state and one
about 1.6x slower, for seconds to minutes at a time, as other tenants
come and go. Raw wall times of two runs minutes apart then differ by
20-40% with no change to the program. While a :class:`SpeedGauge`
runs, a timer signal interrupts the benchmark every 20 ms and times
one short reference loop; :meth:`SpeedGauge.adjust` scales a sample's
wall time by how long that loop took around the sample, relative to
:data:`REFERENCE_S`. A change to the program moves adjusted times like
raw ones; a change in machine speed moves the loop as well and cancels
out.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager

#: Seconds between reference-loop readings.
INTERVAL_S = 0.02
#: Readings within this many seconds of a sample also count for it.
WINDOW_S = 1.0
#: The reference loop's time on that 2-CPU VM when it runs uncontended.
#: Adjusted times are wall times at that speed.
REFERENCE_S = 25e-6


def _reference_loop() -> None:
    total = 0
    for i in range(400):
        total += i * i


class SpeedGauge:
    """Reference-loop readings over the life of a run."""

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")

    def _read(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_loop()
        end = time.perf_counter()
        self.at.append(start)
        self.took.append(end - start)

    @contextmanager
    def running(self):
        """Take readings until the block exits (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, start: float, end: float) -> float:
        """Median reading around ``[start, end]`` over :data:`REFERENCE_S`."""
        window = WINDOW_S
        while True:
            lo = bisect_left(self.at, start - window)
            hi = bisect_right(self.at, end + window)
            if hi - lo >= 5 or window > 60.0:
                break
            window *= 2.0
        readings = self.took[lo:hi]
        if not readings:
            return 1.0
        return statistics.median(readings) / REFERENCE_S

    def adjust(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]``, at reference speed."""
        return seconds / self.slowdown(start, end)
