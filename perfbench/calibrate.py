"""Drift-corrected timing.

The machines this benchmark runs on are shared.  Two things move a
wall-clock figure there that have nothing to do with the code: the VM
loses its CPU for milliseconds at a time (steal), and while it has the CPU
its speed changes by up to about 1.5x for seconds at a time.

Every section is therefore timed with the thread's CPU clock, which stops
while the thread is not running, and the CPU clock is then corrected for
speed.  While a run measures, a SIGPROF timer runs a small fixed kernel
every ``PERIOD_S`` seconds of CPU time.  The kernel mixes interpreter work with small numpy
table lookups, as the library's hot paths do, and it is frozen here, so no
change to the library can move it.  Each kernel time is first replaced by
the median of its ``2 * SMOOTH + 1`` neighbours, which drops samples hit by
an interrupt but keeps changes of speed that last a few hundred
milliseconds.  Every timed section is then scaled by
``REF_KERNEL_S / (mean smoothed kernel time near that section)``: a figure
in "reference seconds" is what the section would have taken on a machine
where the kernel takes ``REF_KERNEL_S``.  The time the handler spends is
kept off the clock that sections are timed with.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# One reference second is a second on a machine where ``kernel`` takes
# this long: about its time on a 2-core Xeon VM in its fast state.
REF_KERNEL_S = 3.0e-4
PERIOD_S = 0.02
# Kernel samples this far either side of a section count towards its speed.
WINDOW_S = 0.25
SMOOTH = 5
# A section with fewer samples in its window borrows the nearest ones.
MIN_SAMPLES = 8

_TABLE = (np.arange(49 * 49, dtype=np.int64) % 49).astype(np.uint16).reshape(49, 49)
_INDEX = np.arange(64, dtype=np.int64) % 49


def kernel() -> int:
    acc = 0
    for i in range(40):
        row = _TABLE[_INDEX, (_INDEX + i) % 49]
        acc += int(row[i])
        acc += sum(j for j in range(20) if j & 1)
    return acc


class Calibrator:
    """Samples the kernel and converts CPU seconds to reference seconds.

    ``now()`` is the clock every timed section must use: the thread's CPU
    time minus the time spent sampling.
    """

    def __init__(self):
        self._at: list[float] = []
        self._took: list[float] = []
        self._spent = 0.0
        self._sampling = False
        self._arrays = None

    def now(self) -> float:
        return time.thread_time() - self._spent

    def sample(self) -> None:
        t0 = time.thread_time()
        kernel()
        t1 = time.thread_time()
        self._at.append(t0 - self._spent)
        self._took.append(t1 - t0)
        self._spent += time.thread_time() - t0
        self._arrays = None

    def _on_alarm(self, signum, frame) -> None:
        if self._sampling:
            self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_alarm)
        self._sampling = True
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self._sampling = False
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def samples(self) -> int:
        return len(self._took)

    def mean_kernel_s(self) -> float:
        return float(np.mean(self._took))

    def factor(self, start, end) -> np.ndarray:
        """REF_KERNEL_S / mean smoothed kernel time around each [start, end] section."""
        if self._arrays is None:
            at = np.asarray(self._at)
            order = np.argsort(at, kind="stable")
            took = np.pad(np.asarray(self._took)[order], SMOOTH, mode="edge")
            took = np.median(sliding_window_view(took, 2 * SMOOTH + 1), axis=1)
            self._arrays = (at[order], np.concatenate([[0.0], np.cumsum(took)]))
        at, csum = self._arrays
        n = at.size
        if n == 0:
            raise RuntimeError("no calibration samples were taken")
        lo = np.searchsorted(at, np.asarray(start, dtype=float) - WINDOW_S, "left")
        hi = np.searchsorted(at, np.asarray(end, dtype=float) + WINDOW_S, "right")
        need = min(MIN_SAMPLES, n)
        short = (hi - lo) < need
        if np.any(short):
            mid = (lo + hi) // 2
            lo = np.where(short, np.clip(mid - need // 2, 0, n - need), lo)
            hi = np.where(short, lo + need, hi)
        mean = (csum[hi] - csum[lo]) / (hi - lo)
        return REF_KERNEL_S / mean

    def corrected(self, start, end) -> np.ndarray:
        """Reference seconds of the sections [start, end] (``now()`` clock)."""
        start = np.asarray(start, dtype=float)
        end = np.asarray(end, dtype=float)
        return (end - start) * self.factor(start, end)
