"""Host-speed normalization of measured times.

A core of a small shared virtual machine does not run at one speed: on
the 2-vCPU Xeon box the benchmark was calibrated on, each vCPU flips
for seconds at a time between a fast state and one about 40% slower,
independently of the other, and CPU time slows with it.  Over a run of
a few tens of seconds that alone moved raw medians by 20-35% from run to
run.  So while the program runs, a probe thread in its process times a
short reference kernel every :data:`PROBE_INTERVAL_S` in thread CPU time
(which excludes waiting for the interpreter lock or for the core), and
every measured time is scaled to a reference host on which the kernel
takes exactly :data:`REFERENCE_SECONDS`.  The kernel unpickles a list of
small dicts: allocation-heavy Python, which slows in the slow state as
much as the program's own code does (a pure arithmetic loop slows less).

    normalized = measured * REFERENCE_SECONDS / probe

where ``probe`` is the mean of the readings taken from
:data:`SMOOTH_S` before the measured interval to as long after it (the
states last seconds; one reading alone is noisy).  The raw times are kept
in every run file.
"""

from __future__ import annotations

import bisect
import gc
import pickle
import threading
import time
from typing import List, Sequence, Tuple

_BLOB = pickle.dumps([{"a": i, "b": float(i), "c": str(i), "d": (i, i + 1)}
                      for i in range(800)])
#: CPU time of the kernel on the reference host, by definition (about
#: what it takes on a quiet core of the reference box).
REFERENCE_SECONDS = 3e-4
#: Time between readings of the probe thread (about 0.5% of one core).
PROBE_INTERVAL_S = 0.2
#: Readings this close to a measured interval count towards its factor.
SMOOTH_S = 0.5


def probe(repeats: int = 3) -> float:
    """The kernel's CPU time on this thread's core (best of *repeats*)."""
    best = float("inf")
    gc.disable()    # a collection would time the heap, not the core
    try:
        for _ in range(repeats):
            start = time.thread_time()
            pickle.loads(_BLOB)
            best = min(best, time.thread_time() - start)
    finally:
        gc.enable()
    return best


class SpeedLog:
    """Timestamped probe readings and the factor they give an interval."""

    def __init__(self, samples: Sequence[Tuple[float, float]] = ()):
        self.times: List[float] = [t for t, _ in samples]
        self.readings: List[float] = [r for _, r in samples]

    def record(self) -> None:
        reading = probe()
        self.times.append(time.perf_counter())
        self.readings.append(reading)

    def samples(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.readings))

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_SECONDS / probe`` for the interval ``[start, end]``."""
        if not self.times:
            return 1.0
        first = bisect.bisect_left(self.times, start - SMOOTH_S)
        last = bisect.bisect_right(self.times, end + SMOOTH_S)
        if first == last:       # no reading nearby: take the nearest ones
            first, last = max(first - 1, 0), min(last + 1, len(self.times))
        readings = self.readings[first:last]
        return REFERENCE_SECONDS * len(readings) / sum(readings)


class SpeedSampler:
    """Record a reading on a background thread every probe interval.

    The readings are the thread's own CPU time, so they show the core's
    speed, not how busy the other threads keep the interpreter lock.
    """

    def __init__(self, log: SpeedLog):
        self.log = log
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perf-speed")

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.log.record()

    @property
    def ident(self):
        return self._thread.ident

    def __enter__(self) -> "SpeedSampler":
        self.log.record()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.log.record()
