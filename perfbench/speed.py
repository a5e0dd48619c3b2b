"""How fast the machine runs right now, from a fixed pure-Python workload.

The speed of the host this benchmark was tuned on (a 2-vCPU Xeon VM)
changes by up to ±40% from one second to the next and drifts over
minutes, the same for every process, so raw times from runs a few
minutes apart disagree by more than any bound a regression check could
use.  Times are therefore scaled by NOMINAL_SECONDS / (the reference time
measured around them): they read as seconds on this machine at its
nominal speed, and a change to hotab moves them as it moves raw times.
"""

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

NOMINAL_SECONDS = 0.005  # the reference on the host above, typical speed
# how often a measurement times the reference (seconds)
SAMPLE_EVERY = 0.1


def _work() -> int:
    # tuples, hashing and dict inserts: the operations hotab's terms and
    # branches are made of
    d = {}
    for i in range(10000):
        t = (i, i + 1, (i * 7) % 13)
        d[t] = hash(t) & 0xFF
    return sum(d.values())


def reference_seconds() -> float:
    """Fastest of three timings of the reference workload."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


def at_nominal_speed(seconds: float, reference: float) -> float:
    """seconds measured while the reference took `reference` seconds."""
    return seconds * NOMINAL_SECONDS / reference


class SpeedLog:
    """Timings of the reference taken during a measurement, for scaling
    its times.

    A run is scaled by the mean of the timings taken during it and up to
    `window` seconds before and after it.  Long in-process runs are also
    sampled in their middle, from a timer signal (`sampling`): on the host
    above, that cut the variation of repeated 0.7-s runs from 10% to 5%
    (coefficient of variation), where the timings just before and after
    each run left it at 10%.  `busy` is the time spent on timings, which a
    run's time leaves out.
    """

    def __init__(self, window: float):
        self.window = window
        self.times: list[float] = []  # perf_counter when each was taken
        self.refs: list[float] = []
        self.busy = 0.0
        self._sampling = False
        self.sample()

    def sample(self) -> None:
        if self._sampling:  # the timer fired during a timing
            return
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()  # no collection of the run's garbage falls in the timing
        t0 = time.perf_counter()
        try:
            ref = reference_seconds()
        finally:
            if collecting:
                gc.enable()
            self.busy += time.perf_counter() - t0
            self._sampling = False
        self.times.append(t0)
        self.refs.append(ref)

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.times[-1] >= SAMPLE_EVERY:
            self.sample()

    @contextmanager
    def sampling(self):
        """Sample every SAMPLE_EVERY seconds from a timer signal."""
        old = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def at_nominal_speed(self, start: float, seconds: float) -> float:
        """`seconds` of a run that began at `start`, scaled by the mean of
        the timings taken within the window around it (or the nearest)."""
        lo = bisect.bisect_left(self.times, start - self.window)
        hi = bisect.bisect_right(self.times, start + seconds + self.window)
        if lo == hi:
            lo, hi = max(lo - 1, 0), max(lo, 1)
        return at_nominal_speed(seconds, statistics.fmean(self.refs[lo:hi]))
