"""Host speed, sampled while timed work runs, so that its time can be normalized.

The benchmark runs on a VM that shares its cores with other tenants.  There a
pure-Python loop runs at one of two speeds about 1.5x apart, switching every
few seconds, and the share of time spent at the slow speed drifts over
minutes: the same pass took 2.8 s in one quarter of an hour and 5.0 s in the
next.  Wall times alone therefore measure the host more than the program.

``HostSpeed`` samples a small fixed probe, a pure-Python loop that is no part
of the program, every ``period`` seconds of wall time while the timed work
runs, from a SIGALRM handler in the work's own thread (so on the work's own
CPU).  The probe runs twice per sample and only the second, warm run is
timed, so the program's cache footprint changes it little.  A wall time
multiplied by ``factor()`` = ``REFERENCE_S`` / (mean probe time while it
ran) is the time on a host where the probe takes ``REFERENCE_S``: a
"normalized second".  The probe never changes with the program, so a program
that gets x% faster gets x% faster in normalized seconds too.

The module imports nothing outside the standard library, so a fresh
interpreter can start sampling before it imports numpy.
"""

from __future__ import annotations

import signal
import statistics
import time

# probe time that defines a normalized second: about the warm probe time on
# the 2-core Intel Xeon VM the bounds were set on, at its faster speed
REFERENCE_S = 35e-6


def _kernel() -> float:
    s = 0.0
    for i in range(600):
        s += (i % 7) * 0.5
    return s


def probe() -> float:
    """Time of one warm probe run, in seconds."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager sampling the probe every `period` seconds while its body runs."""

    def __init__(self, period: float = 0.02):
        self.period = period
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a body shorter than one period
            self.samples.append(probe())
        return False

    def factor(self) -> float:
        """Multiply a wall time by this to get normalized seconds.

        Samples are capped at twice their median first.  The two host speeds
        are within 1.6x of each other, so the cap keeps both; what it cuts is
        a probe during which the process was descheduled, which costs the
        timed work a few hundred microseconds but would move the mean of the
        probe times by as much as a change of host speed.
        """
        cap = 2 * statistics.median(self.samples)
        return REFERENCE_S / statistics.fmean(min(s, cap) for s in self.samples)
