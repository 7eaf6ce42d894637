"""Per-layer attribution for the traced run: spans, a stack sampler, shares.

Three pieces, all driven from the benchmark's side of the program:

* :class:`SpanBuffer` keeps the ``repro.obs`` span records the program
  already emits in memory until the run ends; :func:`span_self_times`
  turns them into per-name self time (duration minus the part of it
  that child spans cover).
* :class:`StackSampler` wakes every millisecond, reads every selected
  thread's stack with ``sys._current_frames`` and attributes the sample
  to the innermost frame inside ``src/repro/<layer>/`` (:func:`layer_of`).
* :func:`attribute` spreads the time between consecutive samples over
  the sampled layers, clipped to the windows being measured, so the
  layer times add up to the measured wall time by construction.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The repository's layers, named after the packages under ``src/repro``.
#: Frames in top-level modules (``session.py``, ``verify.py``, ...) or
#: unlisted packages count as ``repro``; samples with no repro frame on
#: the stack count as ``other``; threads blocked waiting count as ``idle``.
LAYERS = ("kernels", "vmpi", "core", "sched", "costmodel", "plan", "serve",
          "analysis", "utils", "engine", "obs")
BUCKETS = (*LAYERS, "repro", "other", "idle")

#: ``(function, file)`` of innermost frames that mean "this thread waits":
#: the event loop in ``select``, a pool worker on its empty queue, a lock
#: or condition wait.
IDLE_FRAMES = frozenset({
    ("select", "selectors.py"),
    ("_worker", "thread.py"),
    ("wait", "threading.py"),
    ("_wait_for_tstate_lock", "threading.py"),
    ("get", "queue.py"),
})


class SpanBuffer:
    """A ``repro.obs.Observer`` sink that keeps span records in memory."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.records: List[dict] = []

    def on_span(self, record: dict) -> None:
        with self._lock:
            self.records.append(record)

    def clear(self) -> None:
        with self._lock:
            self.records.clear()

    def snapshot(self) -> List[dict]:
        with self._lock:
            return list(self.records)


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_self_times(records: Sequence[dict]) -> Dict[str, Tuple[float, int]]:
    """``{name: (self_seconds, count)}`` over span records.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it, so children running concurrently on other
    threads are not subtracted twice.
    """
    children: Dict[int, List[dict]] = defaultdict(list)
    for record in records:
        if record["parent_id"] is not None:
            children[record["parent_id"]].append(record)
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for record in records:
        start, end = record["start"], record["end"]
        covered = covered_length(
            (max(c["start"], start), min(c["end"], end))
            for c in children.get(record["span_id"], ()))
        agg = out[record["name"]]
        agg[0] += max(end - start - covered, 0.0)
        agg[1] += 1
    return {name: (agg[0], int(agg[1])) for name, agg in out.items()}


def root_of(records: Sequence[dict]) -> Dict[int, dict]:
    """Map every span id to the record of its root span."""
    by_id = {r["span_id"]: r for r in records}
    roots: Dict[int, dict] = {}
    for record in records:
        node = record
        while node["parent_id"] in by_id:
            node = by_id[node["parent_id"]]
        roots[record["span_id"]] = node
    return roots


def repro_dir() -> str:
    """The directory of the imported ``repro`` package."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def layer_of(frame, root: str) -> str:
    """The layer of the innermost frame whose file lies under *root*."""
    prefix = root + os.sep
    while frame is not None:
        path = frame.f_code.co_filename
        if path.startswith(prefix):
            head = path[len(prefix):].split(os.sep, 1)
            return head[0] if len(head) == 2 and head[0] in LAYERS else "repro"
        frame = frame.f_back
    return "other"


def is_idle(frame) -> bool:
    """Whether a thread's innermost frame is one of :data:`IDLE_FRAMES`."""
    code = frame.f_code
    return (code.co_name, os.path.basename(code.co_filename)) in IDLE_FRAMES


class StackSampler:
    """Sample selected threads' stacks on a fixed interval.

    Each sample is ``(time, layers)`` where ``layers`` names the layer of
    every selected thread that was not idle.  *select* picks threads by
    ident; the sampler's own thread is never sampled.
    """

    def __init__(self, select: Callable[[int], bool], root: str,
                 interval: float = 0.001):
        self.select = select
        self.root = root
        self.interval = interval
        self.samples: List[Tuple[float, Tuple[str, ...]]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self, own: Optional[int]) -> None:
        now = time.perf_counter()
        layers = tuple(layer_of(frame, self.root)
                       for ident, frame in sys._current_frames().items()
                       if ident != own and self.select(ident)
                       and not is_idle(frame))
        self.samples.append((now, layers))

    def _loop(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._sample(own)

    def start(self) -> None:
        self._sample(None)
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perf-sampler")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._sample(None)


def attribute(samples: Sequence[Tuple[float, Tuple[str, ...]]],
              windows: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Seconds per bucket: each inter-sample gap, clipped to *windows*.

    The gap before a sample is charged to the layers that sample saw,
    split evenly between busy threads (the interpreter lock runs one at
    a time), or to ``idle`` when none was busy.  Sorted, disjoint
    *windows* make the buckets sum to the windows' total length inside
    the sampled span.
    """
    out: Dict[str, float] = defaultdict(float)
    windows = sorted(windows)
    w = 0
    for (t0, _), (t1, layers) in zip(samples, samples[1:]):
        while w < len(windows) and windows[w][1] <= t0:
            w += 1
        overlap = 0.0
        k = w
        while k < len(windows) and windows[k][0] < t1:
            overlap += min(t1, windows[k][1]) - max(t0, windows[k][0])
            k += 1
        if overlap <= 0.0:
            continue
        if layers:
            for layer in layers:
                out[layer] += overlap / len(layers)
        else:
            out["idle"] += overlap
    return dict(out)
