"""Machine-speed probe that the benchmark's timings are normalized by.

On a machine whose cores are shared with other tenants, the speed of one
core drifts by tens of percent within seconds, so raw wall times of the
same work differ from run to run far more than any change worth detecting.
A probe thread, pinned with the jobs to one CPU, times a small fixed kernel
every ``EVERY_S`` while the jobs run.  The kernel is independent of the
package and resembles what a workload's critical path runs, interpreter-bound
or array-bound; a kernel that resembles it less tracks its speed less well.
A job's speed factor is the kernel's reference time over the kernel's mean
time during the job, so time x speed is what the job would take at reference
speed.  The kernels hold the interpreter lock, so they never overlap a job's
Python code; they take about 2 % of the CPU.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

EVERY_S = 0.025


def interpreter_kernel() -> float:
    """Bytecode-bound work: formatting, splitting and parsing short strings."""
    t0 = time.thread_time()
    acc = 0
    for i in range(300):
        a, b, c = f"{i} {i % 3} {i * 7 % 5}".split()
        acc += int(a) + int(b) * int(c)
    return time.thread_time() - t0


_VALUES = np.random.default_rng(0).random(12_000)
_EDGES = np.linspace(0.1, 1.0, 9)


def array_kernel() -> float:
    """Array-bound work: masks, a sorted lookup and counts over 12k values."""
    t0 = time.thread_time()
    mask = (_VALUES > 0.1) & (_VALUES < 0.9)
    np.bincount(np.searchsorted(_EDGES, _VALUES[mask]), minlength=10)
    np.cumsum(_VALUES)
    return time.thread_time() - t0


# name -> (kernel, its typical time on the 2-core Xeon the benchmark was
# defined on, which sets the scale of normalized times)
KERNELS = {"interpreter": (interpreter_kernel, 4e-4), "array": (array_kernel, 6e-4)}


class SpeedProbe:
    """Context manager: pins the process to one CPU and samples a kernel."""

    def __init__(self, kernel: str):
        self._kernel, self._reference = KERNELS[kernel]
        self._taken: list[float] = []      # when each sample ended
        self._seconds: list[float] = []    # the kernel's time in that sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(EVERY_S):
            dt = self._kernel()
            self._seconds.append(dt)
            self._taken.append(time.perf_counter())

    def __enter__(self) -> "SpeedProbe":
        # The thread, and any child process, inherits the calling thread's CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def speed(self, t0: float, t1: float) -> float:
        """Reference time over the mean kernel time in [t0, t1], the interval
        widened until it holds at least three samples."""
        pad = 0.0
        while True:
            lo = bisect.bisect_left(self._taken, t0 - pad)
            hi = bisect.bisect_right(self._taken, t1 + pad)
            if hi - lo >= 3 or pad > 5.0:
                break
            pad += EVERY_S
        if hi == lo:
            raise RuntimeError("the speed probe took no samples")
        return self._reference / statistics.fmean(self._seconds[lo:hi])
