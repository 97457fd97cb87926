"""A fixed pure-Python reference loop, sampled while the commands run.

On the shared 2-vCPU VM this benchmark was built on, the same code runs up
to 1.9x slower for minutes at a time, as other tenants load the host; in
such stretches the median wall times of ten 30-second runs spread by up to
0.3 of their median, with the program unchanged.  A sequence's wall time
divided by the median time of this loop, sampled during that sequence,
cancels most of that drift: over 28 consecutive
``verify-algebra --n 3 --k 2`` commands the coefficient of variation was
0.115 for the wall time and 0.051 for the ratio.

A wall-clock timer interrupts the commands every ``PERIOD`` seconds and
runs the loop once (about 1.5 ms, the collector paused) in the signal
handler.  The loop is integer arithmetic only and uses nothing of qzm, so a
change to qzm moves the ratio only through qzm's own time.  The handler's
time is summed in ``busy`` so that callers can take it out of the
command times.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

PERIOD = 0.1
LOOP = 20000


def _loop():
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


class Sampler:
    """Times the reference loop on a timer and checks every result."""

    def __init__(self):
        self.expected = _loop()
        self.samples = []
        self.wrong = 0
        self.busy = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t1 = perf_counter()
            value = _loop()
            self.samples.append(perf_counter() - t1)
        finally:
            if enabled:
                gc.enable()
        self.wrong += value != self.expected
        self.busy += perf_counter() - t0

    def start(self):
        """Take one sample now, then one every ``PERIOD`` seconds."""
        self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
