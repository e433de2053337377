"""Host pace: how fast this machine runs Python code right now.

The host this benchmark was written on changes speed by up to half between
20-second windows (a neighbour on the same core, presumably): medians of
raw op times spread by 25-50% across seeds, which hides any change to
mdlgauge.  So a fixed pace loop is timed between ops and, from an interval
timer, every 0.2 s during them, and each raw time is scaled by NOMINAL_S
over the median pace measured during and around it.  The result is in
nominal seconds: seconds on a host that runs the pace loop in NOMINAL_S.

The loop does what mdlgauge's hot paths do, a list DP plus tuple and dict
allocation, so it slows down as they do.  It is the benchmark's own code,
so no change to mdlgauge can move it.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.001
INTERVAL_S = 0.2  # timer period for readings taken during an op
GAP_SAMPLES = 3  # loop runs per reading between ops; the median is kept
NEIGHBOURS = 2  # readings on each side of a timed span that also scale it


def pace_loop() -> None:
    a, b = "abcdefghij" * 4, "bcdefghijk" * 4
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    table = {}
    for k in range(300):
        table[(k, k % 7)] = (k, str(k))


def time_loop() -> float:
    start = perf_counter()
    pace_loop()
    return perf_counter() - start


class Pacer:
    """Pace readings, as (time taken, seconds for the loop), in time order."""

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []
        self.in_ops_s = 0.0  # time spent on readings taken during ops

    def gap(self) -> None:
        """A reading between ops."""
        taken = perf_counter()
        bisect.insort(self.readings, (taken, statistics.median(time_loop() for _ in range(GAP_SAMPLES))))

    def _tick(self, signum, frame) -> None:
        taken = perf_counter()
        bisect.insort(self.readings, (taken, time_loop()))
        self.in_ops_s += perf_counter() - taken

    @contextlib.contextmanager
    def during_ops(self):
        """Take a reading every INTERVAL_S until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def nominal(self, seconds: float, start: float, end: float) -> float:
        """``seconds``, measured between ``start`` and ``end``, in nominal
        seconds: scaled by the readings taken in that span and the
        NEIGHBOURS readings on either side of it."""
        times = [taken for taken, _ in self.readings]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        chosen = self.readings[max(0, lo - NEIGHBOURS) : hi + NEIGHBOURS]
        return seconds * NOMINAL_S / statistics.median(p for _, p in chosen)
