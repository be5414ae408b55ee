"""Timing that corrects for the drifting speed of a shared machine.

On a shared host the speed of one CPU can swing by 2x within a second,
as neighbours come and go, and every part of negder slows with it.  While
a Sampler is active, a SIGALRM timer runs a fixed probe every INTERVAL_S
seconds in the main thread, between bytecodes of whatever is running.  A
timed call then reports its net seconds (wall time minus the probes that
ran inside it) and its reference seconds: net seconds times NOMINAL_S over
the mean probe time around the call.  Reference seconds are seconds on a
machine where one probe takes NOMINAL_S.

The probe is a few steps of dense Fraction elimination written here, not
negder's, so no change to negder changes it.
"""

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
NOMINAL_S = 0.001
# A call shorter than a few intervals is scaled by the probes nearest to it.
MIN_SAMPLES = 8

_RNG = random.Random(0)
_MATRIX = [[Fraction(_RNG.randint(-2, 2)) for _ in range(10)] for _ in range(10)]


def probe():
    m = [list(row) for row in _MATRIX]
    for r in range(3):
        pivot = next(i for i in range(r, len(m)) if m[i][r])
        m[r], m[pivot] = m[pivot], m[r]
        lead = m[r][r]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            f = m[i][r]
            if i != r and f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]


class Sampler:
    """Context manager that samples probe time while active.  Calls to
    reference() must come after the sampler has exited, so that probes
    taken after each call are available."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None
        self._busy = False

    def _sample(self, *_signal_args):
        if self._busy:  # a timer tick that lands inside a probe is dropped
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def net(self, start, end):
        """Wall seconds in [start, end] not spent in probes."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def reference(self, start, end):
        """Reference seconds of the call that ran in [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = min(len(self.starts), lo + MIN_SAMPLES)
        mean = statistics.fmean(self.durations[lo:hi])
        return self.net(start, end) * NOMINAL_S / mean
