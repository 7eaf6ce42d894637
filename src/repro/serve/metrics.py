"""Serve-side observability: request counters + latency histograms.

The serving layer answers the same planning question millions of times;
what operators need to see is *aggregate* behavior -- how many requests,
how many were answered without touching the planner (coalesced or
cached), and the latency distribution's tail.  Everything here is
in-process and lock-protected (the server handles requests on an asyncio
loop but runs planner calls on worker threads), with a single
:meth:`ServeMetrics.to_dict` snapshot backing the ``/metrics`` endpoint.

Latencies are recorded in a fixed logarithmic histogram
(:class:`~repro.obs.metrics.LatencyHistogram`): constant memory under
unbounded traffic, and p50/p99 read directly off the cumulative bucket
counts.

Each :class:`ServeMetrics` keeps private per-server state -- the
authoritative source for its own ``/metrics`` JSON snapshot, so two
servers in one process never mix numbers -- and *additionally* writes
through to the process-wide :class:`~repro.obs.MetricsRegistry` under
``serve.<counter>`` / ``serve.latency.<endpoint>`` names, which is what
``GET /metrics?format=prometheus`` and ``repro cache info --json``
read.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

from repro.obs.metrics import LatencyHistogram, get_registry

__all__ = ["ServeMetrics"]


class ServeMetrics:
    """Thread-safe counters + per-endpoint latency histograms.

    Counter names are free-form (``requests_total``, ``plan_lru_hits``,
    ...); histograms are keyed by endpoint.  One instance per server,
    snapshot by ``/metrics``; every record is mirrored into the
    process-wide registry (monotonic adds only, so multiple servers
    aggregate rather than clobber).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._latency: Dict[str, LatencyHistogram] = {}
        self._registry = get_registry()

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount
        self._registry.counter(f"serve.{name}").inc(amount)

    def count(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def observe(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            hist = self._latency.get(endpoint)
            if hist is None:
                hist = self._latency[endpoint] = LatencyHistogram()
            hist.record(seconds)
        self._registry.histogram(f"serve.latency.{endpoint}").record(seconds)

    @staticmethod
    def _rate(numerator: int, denominator: int) -> Optional[float]:
        return numerator / denominator if denominator else None

    def to_dict(self, extra: Sequence[Tuple[str, dict]] = ()) -> dict:
        """The ``/metrics`` JSON snapshot.

        ``extra`` lets the server append component sections (cache
        stats, coalescer stats) atomically with the counter snapshot.
        """
        with self._lock:
            counters = dict(self._counters)
            latency = {name: hist.to_dict()
                       for name, hist in self._latency.items()}
        coalesced = counters.get("plan_coalesced", 0)
        plans = counters.get("plan_requests", 0)
        batch_items = counters.get("plan_batch_items", 0)
        snapshot = {
            "counters": counters,
            "latency": latency,
            "coalesce_rate": self._rate(coalesced, plans),
            "plan_batch_mean_size": self._rate(
                batch_items, counters.get("plan_batch_requests", 0)),
            "plan_batch_dedup_rate": self._rate(
                counters.get("plan_batch_deduped", 0), batch_items),
        }
        snapshot.update(extra)
        return snapshot
