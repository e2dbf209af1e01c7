"""Host-speed scaling of measured times.

The benchmark runs on a shared host whose speed drifts by up to 1.5x,
in phases from under a second to tens of minutes, and every kind of
Python code slows down with it.  ``Clock`` times a block of code and
samples the host's speed while the block runs: it times a fixed
pure-Python kernel on entry, on exit, and every ``INTERVAL_S`` of wall
time in between (from a SIGALRM handler, in the same thread).  The
block's time, without the handler's, is then scaled by ``REF_S`` over
the kernel's mean time, which gives the seconds the block would take at
the host speed at which the kernel takes ``REF_S``.

The kernel uses no ``multilin`` code, so no change to the library moves
it: a change moves the scaled time as it would move the wall time on a
host of steady speed.
"""

from __future__ import annotations

import signal
import statistics
import time

# One kernel run: its time, rounded, at a middling speed of the reference
# machine (2-vCPU x86_64 VM, CPython 3.11.7), where it ranged 0.10-0.17 ms.
KERNEL_N = 500
REF_S = 1.4e-4
# A sample every 10 ms costs about 1% of the block's time.
INTERVAL_S = 0.01


def kernel(n=KERNEL_N):
    """A fixed mix of the interpreter work multilin does: small-int
    modular arithmetic, list and dict lookups, tuple building."""
    table = list(range(97))
    inv = {i: (i * 7) % 97 for i in range(97)}
    s = 0
    for i in range(n):
        a = table[i % 97]
        b = inv[(a + s) % 97]
        s = (s + a * b) % 97
        row = (a, b, s)
        s ^= len(row)
    return s


class Clock:
    """Context manager.  After the block: ``elapsed`` is its wall time
    without the sampling handler's, ``scale`` is REF_S over the mean
    kernel time, and ``scaled`` is their product."""

    def __init__(self):
        self.samples = []
        self.elapsed = self.scale = self.scaled = None
        self._spent = 0.0
        self._done = False

    def _sample(self):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame):
        if self._done:  # fired between the end of the block and disarming
            return
        t0 = time.perf_counter()
        self._sample()
        self._spent += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self._done = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        self.elapsed = end - self._start - self._spent
        self.scale = REF_S / statistics.fmean(self.samples)
        self.scaled = self.elapsed * self.scale
        return False
