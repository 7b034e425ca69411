"""Elapsed time in reference seconds, corrected for the machine's speed.

The 2-CPU virtual machine the figures in README.md come from changes speed
by up to 1.6x every few seconds, whatever runs inside it: a fixed Fraction
loop takes 12 ms in one moment and 19 ms in the next, on either CPU.  A run
of a minute mixes both speeds in a proportion that differs from run to
run, so raw elapsed times spread by 20-30% between runs of the same code.

``SpeedProbe`` samples the speed while a workload runs.  A ``SIGALRM`` timer
interrupts the workload every ``PERIOD`` seconds, and the handler times a
short fixed loop of Fraction additions.  ``reference_seconds(a, b)`` then
sums each stretch of [a, b] weighted by ``REFERENCE / probe time`` around
it: the time the same work would have taken on a machine where the probe
loop takes ``REFERENCE`` seconds.  On the machine the figures in README.md
come from, ``REFERENCE`` is about the probe time in its fast state, so
reference seconds are close to elapsed seconds when nothing slows it.  The
correction is not exact: the workload and the probe do not slow by quite
the same factor, and a run that stays fast throughout reads up to 17% lower
than one that mixes both states.  The probe costs about 0.2% of the time it
measures.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.01
REFERENCE = 16e-6
_TERMS = tuple(Fraction(1, i) for i in range(1, 9))


def _probe() -> Fraction:
    s = Fraction(0)
    for t in _TERMS:
        s += t
    return s


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []
        self._smooth: list[float] | None = None
        self._saved = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.probes.append(t1 - t0)

    def start(self) -> None:
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved or signal.SIG_DFL)

    def _smoothed(self) -> list[float]:
        # a running median of five damps single probes slowed by a miss
        if self._smooth is None or len(self._smooth) != len(self.probes):
            p = self.probes
            self._smooth = [statistics.median(p[max(0, i - 2):i + 3])
                            for i in range(len(p))]
        return self._smooth

    def reference_seconds(self, a: float, b: float) -> float:
        """The stretch [a, b] of ``perf_counter`` time in reference seconds."""
        p = self._smoothed()
        if not p:
            return b - a
        i = bisect.bisect_left(self.times, a)
        total, prev = 0.0, a
        while i < len(self.times) and self.times[i] < b:
            total += (self.times[i] - prev) * REFERENCE / p[i]
            prev = self.times[i]
            i += 1
        return total + (b - prev) * REFERENCE / p[min(i, len(p) - 1)]
