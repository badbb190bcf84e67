"""Host pace: how fast the benchmark's CPU runs while a step is timed.

On the virtual machines this benchmark runs on, each virtual CPU changes
speed by up to 1.75x for seconds to minutes at a time, which swamps the
program's own run-to-run variation. So the process is pinned to one CPU,
and a background thread on that CPU runs a fixed pure-Python kernel every
PERIOD seconds and records the CPU time it took.
A step's paced time is its wall time, less the probes that ran inside it,
scaled by REF_KERNEL_S / (mean kernel time around the step): the time the
step would take at a fixed reference pace. The kernel's CPU time, unlike
its wall time, is not inflated when the scheduler shares the CPU between
the probe and a step that has released the GIL.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD = 0.2
MARGIN = 0.5  # probes this close to an interval count towards its pace, so even a
              # sub-second set-up is paced by several probes
REF_KERNEL_S = 0.0035  # the kernel's CPU time on an idle 2-vCPU Intel Xeon VM


def _kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 311] = counts.get(i % 311, 0) + i


class HostPace:
    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.samples: list[tuple[float, float, float]] = []  # (wall start, wall end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe, name="host-pace", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _probe(self):
        while not self._stop.wait(PERIOD):
            w0, c0 = time.perf_counter(), time.thread_time()
            _kernel()
            self.samples.append((w0, time.perf_counter(), time.thread_time() - c0))

    def paced(self, t0: float, t1: float) -> float:
        """Paced seconds for the wall interval [t0, t1]; call after t1 + MARGIN
        so that the probes after the interval have been taken."""
        around = [c for s, e, c in self.samples if t0 - MARGIN <= e and s <= t1 + MARGIN]
        probes = sum(e - s for s, e, _ in self.samples if t0 <= s and e <= t1)
        return (t1 - t0 - probes) * REF_KERNEL_S / statistics.mean(around)
