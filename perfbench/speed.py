"""Wall time corrected for the speed of a shared machine.

On a host whose CPUs are shared with other tenants, the same call can take
up to twice as long from one millisecond to the next, and a whole minute
can run 1.5x slower than the one before (perfbench/NOTES.md, "Why
speed-corrected times").  A `SpeedClock` samples the machine's speed while
it times: every INTERVAL_S a SIGALRM handler times `probe`, a fixed snippet
of pure-Python exact arithmetic that shares no code with lietrace.  A timed
call's corrected time is its own wall time, less the probes that ran inside
it, times the mean of REF_PROBE_S / probe over those probes.  That is the
time the call would have taken at the speed where one probe takes
REF_PROBE_S.  A call too short to contain a probe takes the speed of the
last probe before it.

The benchmark process and the CLI processes it starts are kept on one CPU
(`pin_to_one_cpu`), so that the probes measure the CPU that runs the
process being timed.
"""

from __future__ import annotations

import os
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.002
# about the probe's time with the machine quiet, on the 2-core VM this was
# written on; it sets the scale of every corrected time
REF_PROBE_S = 40e-6


def probe():
    s = Fraction(0)
    for i in range(1, 12):
        s += Fraction(1, i)
    return s


def pin_to_one_cpu():
    """Restrict this process, and the processes it starts, to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedClock:
    """Use as a context manager; `mark()` then `since(mark)` times a call."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.probes = []          # seconds of each probe, in order
        self._previous = None

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        probe()
        self.probes.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.probes), time.perf_counter()

    def since(self, mark):
        """Corrected seconds since `mark`.  A probe that lands between the
        two reads below is off by its own ~40 us; that is left as noise."""
        count, start = mark
        elapsed = time.perf_counter() - start
        inside = self.probes[count:]
        speeds = inside or self.probes[count - 1:count]
        scale = sum(REF_PROBE_S / p for p in speeds) / len(speeds)
        return (elapsed - sum(inside)) * scale


class WallClock:
    """Plain wall time, with SpeedClock's interface."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def mark(self):
        return time.perf_counter()

    def since(self, mark):
        return time.perf_counter() - mark
