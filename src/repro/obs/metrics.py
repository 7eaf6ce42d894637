"""Metrics registries: named counters, gauges, histograms.

Every layer that counts something registers it under one dotted name
(``cache.plan.hits``, ``lattice.screen_reuse``).  The process-wide
registry (:func:`get_registry`) holds what the process does as a whole:
the two :class:`~repro.utils.diskcache.AtomicDiskCache` subclasses'
(``ResultCache``, ``PlanCache``) hit/miss/store tallies and the lattice
planner's reuse factors.  Each :class:`~repro.serve.PlanServer` owns a
registry of its own for its request counters, latencies and LRU
transitions, so two servers in one process never mix numbers.  One
Prometheus exposition (:func:`repro.obs.export.prometheus_exposition`)
serves any set of registries to scrapers.

Three instrument kinds, all thread-safe:

* :class:`Counter` -- monotonically increasing integer (``inc``).
* :class:`Gauge` -- a floating point level that is *set*, not summed
  (occupancy, reuse factors).
* :class:`Histogram` -- a log-bucketed latency histogram with
  cumulative-bucket quantiles.

Instruments are created on first use (``registry.counter(name)``) and a
name is pinned to its kind -- asking for ``gauge("x")`` after
``counter("x")`` is a programming error and raises.  Recording is
deliberately cheap (one small lock per instrument); **observation must
never perturb the observed** -- nothing in this module touches plans,
clocks, or ledgers.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Histogram range: 10 us .. 1000 s, 10 buckets per decade.  Below/above
#: clamp into the first/last bucket.
_LO_EXP = -5.0
_HI_EXP = 3.0
_BUCKETS_PER_DECADE = 10
_NUM_BUCKETS = int((_HI_EXP - _LO_EXP) * _BUCKETS_PER_DECADE)


class Counter:
    """A named, monotonically increasing, thread-safe integer."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A named, thread-safe level: set to the latest observation."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A named, thread-safe, fixed log-bucketed latency histogram.

    Constant memory under unbounded traffic; p50/p99 read directly off
    the cumulative bucket counts (quantiles are upper-bounded by their
    bucket edge, conservative by construction).
    """

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.counts: List[int] = [0] * _NUM_BUCKETS
        self.total = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    @staticmethod
    def _bucket(seconds: float) -> int:
        if seconds <= 0:
            return 0
        position = (math.log10(seconds) - _LO_EXP) * _BUCKETS_PER_DECADE
        return min(max(int(position), 0), _NUM_BUCKETS - 1)

    @staticmethod
    def _upper_bound(bucket: int) -> float:
        return 10.0 ** (_LO_EXP + (bucket + 1) / _BUCKETS_PER_DECADE)

    def record(self, seconds: float) -> None:
        bucket = self._bucket(seconds)
        with self._lock:
            self.counts[bucket] += 1
            self.total += 1
            self.sum_seconds += seconds
            if seconds > self.max_seconds:
                self.max_seconds = seconds

    def _quantile(self, q: float) -> Optional[float]:
        """Upper bound of the bucket holding the *q*-quantile (None if
        empty).  Caller holds the lock."""
        if self.total == 0:
            return None
        rank = math.ceil(q * self.total)
        seen = 0
        for bucket, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self._upper_bound(bucket)
        return self._upper_bound(_NUM_BUCKETS - 1)  # pragma: no cover

    def buckets(self) -> List[Tuple[float, int]]:
        """Non-empty ``(upper_bound_seconds, cumulative_count)`` pairs.

        The Prometheus ``_bucket`` series, sparse: empty buckets carry no
        information (cumulative counts are reconstructible) and 80 zero
        lines per histogram would drown the exposition.
        """
        out = []
        seen = 0
        with self._lock:
            for bucket, count in enumerate(self.counts):
                if count:
                    seen += count
                    out.append((self._upper_bound(bucket), seen))
        return out

    def to_dict(self) -> dict:
        with self._lock:
            total = self.total
            return {
                "count": total,
                "mean_seconds": self.sum_seconds / total if total else None,
                "max_seconds": self.max_seconds if total else None,
                "p50_seconds": self._quantile(0.50),
                "p99_seconds": self._quantile(0.99),
            }


class MetricsRegistry:
    """Get-or-create registry of named instruments with one snapshot view.

    One process-wide instance (:func:`get_registry`) backs the caches and
    the planner; each serving endpoint owns one for its own requests.  A
    name is pinned to the kind that first claimed it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind: type):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = kind(name)
            elif type(instrument) is not kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{type(instrument).__name__}, not a {kind.__name__}")
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def _by_kind(self, kind: type) -> list:
        with self._lock:
            return [i for i in self._instruments.values()
                    if type(i) is kind]

    def counters(self, prefix: str = "") -> Dict[str, int]:
        """``{name: value}`` of every counter whose name starts with *prefix*."""
        return {c.name: c.value for c in self._by_kind(Counter)
                if c.name.startswith(prefix)}

    def gauges(self, prefix: str = "") -> Dict[str, float]:
        return {g.name: g.value for g in self._by_kind(Gauge)
                if g.name.startswith(prefix)}

    def histograms(self, prefix: str = "") -> Sequence[Histogram]:
        return [h for h in self._by_kind(Histogram)
                if h.name.startswith(prefix)]

    def snapshot(self) -> dict:
        """Everything at once: counters, gauges, histogram summaries."""
        return {
            "counters": dict(sorted(self.counters().items())),
            "gauges": dict(sorted(self.gauges().items())),
            "histograms": {h.name: h.to_dict()
                           for h in sorted(self.histograms(),
                                           key=lambda h: h.name)},
        }

    def reset(self) -> None:
        """Drop every instrument (test isolation; not for production paths)."""
        with self._lock:
            self._instruments.clear()


#: The process-wide registry every layer records into by default.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY
