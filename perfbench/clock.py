"""A clock that runs at the machine's nominal speed.

Wall time on a shared machine swings with what its neighbours run: the same
``cannon`` check reads anywhere from 1.0 s to 2.0 s within a minute, with CPU
time equal to wall time.  ``SpeedClock`` times a fixed reference computation
every ``INTERVAL`` seconds, from a timer signal, and advances at wall speed
multiplied by ``REF_NOMINAL_S`` over the median of the latest probes.  A span
read on it is the wall time the same work takes when the probe runs in
``REF_NOMINAL_S``: the program's own slowdowns count in full, while a slowdown
the probe shares is divided out.  The probes' own time is left out.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL = 0.05  # seconds between probes
WINDOW = 5  # the rate follows the median of this many latest probes
REF_NOMINAL_S = 0.0005  # the probe time at which the clock keeps wall time


def probe() -> None:
    """The reference computation: dictionary and tuple work like the program's."""
    d: dict = {}
    for i in range(2000):
        k = (i % 31, i % 7)
        d[k] = d.get(k, 0) + 1


class SpeedClock:
    """Nominal-speed time, sampled from a SIGALRM handler while started."""

    def __init__(self) -> None:
        self._base = 0.0  # nominal seconds up to the last probe
        self._last = 0.0  # wall time at the end of the last probe
        self._rate = 1.0  # nominal seconds per wall second since then
        self._ticks = 0  # lets a reader notice a probe that ran mid-read
        self._busy = False
        self.probes: list[float] = []

    def _tick(self, signum=None, frame=None, probes: int = 1) -> None:
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        t0 = perf_counter()
        self._base += (t0 - self._last) * self._rate
        for _ in range(probes):
            t = perf_counter()
            probe()
            self.probes.append(perf_counter() - t)
        self._rate = REF_NOMINAL_S / statistics.median(self.probes[-WINDOW:])
        self._last = perf_counter()
        self._ticks += 1
        self._busy = False

    def resync(self) -> None:
        """Measure the speed afresh, before a span too short to hold a probe."""
        self._tick(probes=WINDOW)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._last = perf_counter()
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """The machine's median speed over the probes, as a share of nominal."""
        return REF_NOMINAL_S / statistics.median(self.probes)

    def __call__(self) -> float:
        while True:
            ticks = self._ticks
            now = self._base + (perf_counter() - self._last) * self._rate
            if ticks == self._ticks:
                return now
