"""Host-speed calibration for the end-to-end times.

The benchmark's host may be shared: for seconds to minutes at a time it
can run the same Python code at half speed.  Wall times then differ more
between two sets of runs than any useful bound allows, whatever the run
length.  So while a time is measured, both in the measuring process and in
each set-up probe, an interval timer runs a fixed calibration chunk of
interpreter and numpy work every PERIOD_S seconds.  The host's speed at a
moment is REFERENCE_S over the chunk's time.  A measured interval is scaled
by the mean speed of the chunks that ran inside it or within WINDOW_S of
it, so the reported times are seconds on a host where the chunk takes
REFERENCE_S.  The chunks that ran inside an interval are not counted in it.

The chunk allocates no objects the garbage collector tracks, so it neither
triggers nor pays for the collections of the code it interrupts.  It is
long enough, about half a millisecond, that refilling the caches the
interrupted code evicted is a small part of it: shorter chunks tracked the
host's speed less closely.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

PERIOD_S = 0.025
WINDOW_S = 0.25
# Only a scale: any fixed value would do.  This is about the chunk's time on
# the 2-core x86-64 host, CPython 3.11, that the benchmark was written on, at
# that host's full speed.
REFERENCE_S = 4.8e-4


class _Slots:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a = self.b = 0

    def step(self, i):
        self.a = self.b + (i & 7)
        return self.a


_TABLE = dict.fromkeys(range(64), 0)
_OBJ = _Slots()
_BITS = np.arange(64).reshape(8, 8) % 3 == 0


def chunk() -> int:
    """Fixed work: integer arithmetic, dict stores, attribute access, calls
    and a few small numpy operations."""
    total = 0
    table, obj = _TABLE, _OBJ
    for i in range(1600):
        total += i * i
        table[i & 63] = total & 0xFFFF
        obj.b = obj.step(i)
    for _ in range(32):
        total += int((_BITS & _BITS.T).any(axis=0).sum())
    return total


class HostClock:
    """Samples the host's speed on SIGALRM while it is entered."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds inside chunks, to subtract from intervals

    def _tick(self, signum, frame):
        start = time.perf_counter()
        chunk()
        took = time.perf_counter() - start
        self.times.append(start)
        self.speeds.append(REFERENCE_S / took)
        self.spent += took

    def __enter__(self):
        self._tick(None, None)  # so that even a short interval has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean host speed over [start - WINDOW_S, end + WINDOW_S]."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        window = self.speeds[lo:hi]
        if not window:
            raise RuntimeError("no calibration sample near a measured interval")
        return statistics.fmean(window)
