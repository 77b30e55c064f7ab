"""Machine-speed calibration for the end-to-end timings.

On a shared host the speed of a core drifts by up to 2x over seconds to
minutes as other tenants load it; no statistic taken inside one run removes
a drift that lasts the whole run.  Every timed operation is therefore
paired with a fixed calibration kernel timed right next to it, and the
timing is reported at the reference speed:

    reported = measured * REFERENCE_NS / kernel time

The kernel does the kind of work bispinor does (interpreter-bound calls on
tiny complex numpy arrays) and runs no bispinor code, so no change to the
program can move it.  The raw timings are printed beside the calibrated
ones.

Operations in child processes are calibrated at their boundaries
(``speed``, between consecutive operations).  In-process operations are
sampled while they run (``Sampler``): a timer signal runs the kernel every
``SAMPLE_INTERVAL_S`` in the benchmark's thread; the time spent in the
kernel is taken out of an operation's wall time (and out of a short call's
latency when a sample lands inside it), and many short calls are each
calibrated by the samples taken just before and after them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median kernel time on an idle 2-core x86_64 host (Python 3.11, numpy 2.4);
# it only sets the scale on which calibrated timings are reported.
REFERENCE_NS = 400_000
BOUNDARY_REPEATS = 5
SAMPLE_INTERVAL_S = 0.05

clock = time.perf_counter_ns
_M = np.eye(4, dtype=complex)


def kernel() -> float:
    acc = 0.0
    for i in range(40):
        v = np.array([1.0, 2.0, 3.0, float(i)], dtype=complex)
        acc += float(np.abs(_M @ np.outer(v, v.conj())).max())
        acc += sum(j * j for j in range(20))
    return acc


def kernel_ns() -> int:
    t0 = clock()
    kernel()
    return clock() - t0


def speed() -> float:
    """Median kernel time in ns over a few back-to-back runs."""
    return statistics.median(kernel_ns() for _ in range(BOUNDARY_REPEATS))


def between(times, speeds) -> list:
    """Calibrate ``times[i]`` by the mean of ``speeds[i]`` and ``speeds[i + 1]``,
    the kernel times measured just before and just after it."""
    return [t * REFERENCE_NS / ((a + b) / 2) for t, a, b in zip(times, speeds, speeds[1:])]


class Sampler:
    """Kernel samples taken on a timer while an operation runs."""

    def __init__(self):
        self.samples: list = []
        self.spent_ns = 0  # total time spent in the timer's kernel runs

    def _tick(self, signum, frame):
        t0 = clock()
        self.samples.append(kernel_ns())
        self.spent_ns += clock() - t0

    def __enter__(self):
        self.samples.append(speed())  # so that a short operation has one too
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def factor(self) -> float:
        """Multiplier taking a time measured meanwhile to the reference speed."""
        return REFERENCE_NS / statistics.median(self.samples)

    def around(self, times, marks) -> np.ndarray:
        """Calibrate each of many short ``times`` by the two samples around it.

        ``marks[i]`` is ``len(self.samples)`` right after ``times[i]`` was
        taken.
        """
        k = np.array([*self.samples, self.samples[-1]], dtype=float)
        m = np.asarray(marks)
        return np.asarray(times) * (2 * REFERENCE_NS) / (k[m - 1] + k[m])

    def calibrated(self, wall_ns: int) -> float:
        """``wall_ns`` without the kernel's own time, at the reference speed."""
        return (wall_ns - self.spent_ns) * self.factor
