"""Core-speed probe: converts measured seconds into reference seconds.

The benchmark's hosts are shared virtual machines with two kinds of
noise, each far larger than any bound the benchmark sets:

* the vCPU is not scheduled at all for a while (steal). Wall time grows
  and thread CPU time does not, so the simulation workloads time their
  ops in CPU seconds of the thread doing the work;
* while it runs, the core runs slower (a busy sibling hyperthread or
  shared cache), by about 1.5x for seconds at a time. CPU time grows too.
  A probe thread pinned to the benchmark's core runs a fixed pure-Python
  kernel every ``PERIOD`` seconds and records its thread CPU time, and a
  measured interval converts to reference seconds by the mean of
  ``REF_KERNEL_S / kernel time`` over the probe samples around it.

The kernel mixes integer arithmetic with scattered list reads, because
that mix slows down under contention as much as the simulator does (a
pure arithmetic loop slows down less, pure memory reads much more). It
uses nothing from the program, so a faster program reads faster.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import Tuple

#: The kernel's CPU time on an uncontended core of the machine the
#: committed results were recorded on (a 2-vCPU Intel Xeon VM). Changing
#: it or the kernel rescales every reference time.
REF_KERNEL_S = 2.0e-3

#: Seconds between probe samples (the kernel costs about 2.5% of a core).
PERIOD = 0.1

#: Probe samples within this many seconds of an interval count for it.
WINDOW = 0.5

_DATA = [float(i) for i in range(200_000)]
_READS = [(i * 7919) % len(_DATA) for i in range(2_500)]

#: ``(time.monotonic(), time.thread_time())`` taken by one thread.
Mark = Tuple[float, float]


def kernel() -> float:
    """The fixed probe workload."""
    acc = 0
    for i in range(15_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    data = _DATA
    total = 0.0
    for i in _READS:
        total += data[i]
    return acc + total


def mark() -> Mark:
    """Wall and calling-thread CPU clocks, for :meth:`SpeedProbe.ref`."""
    return time.monotonic(), time.thread_time()


class SpeedProbe:
    """Pins the process to one core and samples that core's speed."""

    def __init__(self):
        # Threads inherit the affinity of the thread that creates them,
        # so every later thread shares the probe's core.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._factors = []
        self._times = []
        self._sample()          # so factor() always has a sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe",
                                        daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        start = time.thread_time()
        kernel()
        # Factor first: a reader slicing by len(_times) then never
        # indexes past the end of _factors.
        self._factors.append(REF_KERNEL_S / (time.thread_time() - start))
        self._times.append(time.monotonic())

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            self._sample()

    def close(self) -> None:
        """Stop sampling and wait for the probe thread to end."""
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Mean reference-to-host speed ratio over the wall interval."""
        times = self._times
        lo = bisect.bisect_left(times, start - WINDOW)
        hi = bisect.bisect_right(times, end + WINDOW)
        if lo == hi:            # no sample that close: take the nearest
            lo, hi = max(0, lo - 1), max(0, lo - 1) + 1
        window = self._factors[lo:hi]
        return sum(window) / len(window)

    def ref(self, start: Mark, end: Mark) -> float:
        """Reference CPU seconds one thread spent between two marks."""
        return (end[1] - start[1]) * self.factor(start[0], end[0])

    def ref_wall(self, start: float, end: float) -> float:
        """Reference seconds of a ``time.monotonic`` interval, for what
        has to be timed in real time (requests, spans across threads)."""
        return (end - start) * self.factor(start, end)
