"""Host-speed sampling for timings taken on a shared machine.

On a shared host, pure-Python code can run up to about 2.5 times as slowly for
seconds or minutes at a time, whatever the code does.  ``HostSampler`` times
a fixed stdlib-only ``Fraction`` loop every ``INTERVAL_S`` of wall time (from
a ``SIGALRM`` handler, so no thread is started) while a pass runs.  The
loop's time over ``REF_NS``, its time on an unloaded host, is the host's
slowdown at that moment.  A timing divided by the slowdown seen while it was
taken changes with the code and much less with the host; the raw timings and
the slowdowns are reported next to it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

__all__ = ["INTERVAL_S", "REF_NS", "probe_loop", "HostSampler"]

INTERVAL_S = 0.1
# The host's speed changes over seconds, so samples this close to a span
# tell its speed during the span.
PAD_S = 0.5
# probe_loop time in the fastest runs seen on a 2-vCPU Intel Xeon VM at
# 2.0 GHz (Python 3.11, fractions backend), so that adjusted timings read as
# seconds on that machine when nothing else loads its host.
REF_NS = 460_000


def probe_loop():
    """A fixed amount of exact rational elimination, independent of qhc."""
    for off in range(3):
        m = [[Fraction((7 * i + 3 * j + off) % 23 + 1, (i + 2 * j + off) % 19 + 2)
              for j in range(5)] for i in range(5)]
        for k in range(5):
            for i in range(k + 1, 5):
                f = m[i][k] / m[k][k]
                for j in range(k + 1, 5):
                    m[i][j] = m[i][j] - f * m[k][j]
    return m


class HostSampler:
    """Context manager timing ``probe_loop`` every ``INTERVAL_S`` seconds."""

    def __init__(self):
        self.at = []        # start of each probe, ns
        self.took = []      # wall time of each probe, ns
        self.took_cpu = []  # process CPU time of each probe, ns
        self._old = None

    def _sample(self, signum, frame):
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        probe_loop()
        self.at.append(t0)
        self.took.append(time.perf_counter_ns() - t0)
        self.took_cpu.append(time.process_time_ns() - c0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _inside(self, series, start, end):
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_left(self.at, end)
        return sum(series[lo:hi])

    def _slowdown(self, series, start, end):
        # Samples up to PAD_S outside the span count too, so that a span too
        # short to hold a sample takes those just before and after it.
        pad = int(PAD_S * 1e9)
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        near = series[lo:hi] or series
        return statistics.fmean(near) / REF_NS if near else 1.0

    def slowdown(self):
        """Mean probe wall time over ``REF_NS``; 1.0 without samples."""
        return statistics.fmean(self.took) / REF_NS if self.took else 1.0

    def adjust(self, start, end):
        """Wall seconds of [start, end) without probing, over the wall slowdown near it."""
        return ((end - start - self._inside(self.took, start, end)) / 1e9
                / self._slowdown(self.took, start, end))

    def adjust_cpu(self, start, end, cpu_ns):
        """CPU seconds spent in [start, end) without probing, over the CPU slowdown near it.

        Process CPU time leaves out stretches in which the host did not run
        the process at all; the probe's CPU time leaves them out too, so
        this stays steady when the host's load comes in such stretches.
        """
        return ((cpu_ns - self._inside(self.took_cpu, start, end)) / 1e9
                / self._slowdown(self.took_cpu, start, end))
