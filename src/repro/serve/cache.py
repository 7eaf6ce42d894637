"""The serving layer's bounded in-memory LRU over the on-disk plan cache.

The on-disk :class:`~repro.plan.cache.PlanCache` makes repeated planning
questions cost one disk read *per process, forever*; a serving endpoint
under heavy traffic wants the hot set answered from memory and a bounded
footprint no matter how many distinct questions arrive.
:class:`LRUPlanCache` layers both:

* **memory first** -- an :class:`~collections.OrderedDict` LRU of at most
  ``capacity`` entries; a hit moves the entry to the MRU end.
* **disk second** -- a miss consults the shared on-disk cache (populated
  by any worker sharing the directory, atomic + torn-read-safe via
  :class:`~repro.utils.diskcache.AtomicDiskCache`); a disk hit is
  promoted into memory.
* **write-through** -- a computed result is stored to both layers, so a
  restarted (or sibling) worker starts warm.

Memory holds answers, not results: each entry is an
:class:`EncodedResult`, the JSON fragments of the ``/plan`` answer
encoded once when the entry enters memory (on :meth:`LRUPlanCache.put`
of a computed result and on promotion of a disk hit).  Serving a hit is
a byte join.  The disk layer keeps storing
:class:`~repro.plan.planner.PlanResult` pickles.

Beside the answers sits a request alias table (at most ``capacity``
fixed-size entries, LRU): the digest of each ``/plan`` body answered,
mapped to its fingerprint and ``limit`` (:meth:`LRUPlanCache.alias`).

Every layer transition is counted once, as a ``cache.serve_lru.hits`` /
``disk_hits`` / ``misses`` / ``evictions`` counter in the registry the
cache is given (the server's), which both ``/metrics`` formats read.
All operations are lock-protected: the server's planner calls run on
worker threads.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.plan.cache import PlanCache
from repro.utils.validation import require


class EncodedResult:
    """One plan result as the JSON fragments of its ``/plan`` answer.

    :meth:`ranked` is byte-identical to ``json.dumps`` of ``{"fingerprint":
    key, "served": served, "total_plans": N, "result": d}``, where ``d`` is
    ``result.to_dict()`` with its plans cut to *limit*: ``json.dumps``
    writes a container as its members' encodings joined by ``", "``, so
    the answer is the fragments encoded here, joined.  No ``to_dict`` or
    ``json.dumps`` runs after construction.
    """

    __slots__ = ("head", "middle", "plans", "tail")

    def __init__(self, key: str, result) -> None:
        payload = result.to_dict()
        plans = payload.pop("plans")
        problem = payload.pop("problem")
        # head + served + middle: *served* is an identifier, so it needs
        # no escaping between the quotes the fragments carry.
        self.head = f'{{"fingerprint": {json.dumps(key)}, "served": "'.encode()
        self.middle = (f'", "total_plans": {len(plans)}, "result": '
                       f'{{"problem": {json.dumps(problem)}, "plans": ['
                       ).encode()
        self.plans = tuple(json.dumps(plan).encode() for plan in plans)
        # The trailer fields after "plans", then the answer's closing brace.
        self.tail = f"], {json.dumps(payload)[1:]}}}".encode()

    def ranked(self, served: str, limit: Optional[int] = None) -> bytes:
        """The answer's JSON bytes, carrying the top *limit* plans."""
        return b"".join((self.head, served.encode(), self.middle,
                         b", ".join(self.plans[:limit]), self.tail))


class LRUPlanCache:
    """Bounded in-memory LRU layered over an optional on-disk plan cache.

    Its ``cache.serve_lru.*`` counters live in *metrics* (a registry of
    its own if none is given).
    """

    def __init__(self, capacity: int = 128,
                 disk: Optional[PlanCache] = None,
                 metrics: Optional[MetricsRegistry] = None):
        require(capacity > 0, f"LRU capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.disk = disk
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, EncodedResult]" = OrderedDict()
        self._aliases: "OrderedDict[bytes, Tuple[str, Optional[int]]]" = OrderedDict()

    def _count(self, event: str) -> None:
        self.metrics.counter(f"cache.serve_lru.{event}").inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[EncodedResult]:
        """The cached answer or ``None``; promotes hits to most-recent."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
        if hit is not None:
            self._count("hits")
            return hit
        # Disk I/O outside the lock: a slow read must not serialize the
        # in-memory hot path of other worker threads.
        value = self.disk.load(key) if self.disk is not None else None
        entry = EncodedResult(key, value) if value is not None else None
        if entry is not None:
            with self._lock:
                self._insert(key, entry)
        self._count("disk_hits" if entry is not None else "misses")
        return entry

    def put(self, key: str, result) -> EncodedResult:
        """Encode *result* into memory (evicting LRU), write it through to
        disk, and return the encoded answer."""
        entry = EncodedResult(key, result)
        with self._lock:
            self._insert(key, entry)
        if self.disk is not None:
            self.disk.store(key, result)
        return entry

    def alias(self, digest: bytes) -> Optional[Tuple[str, Optional[int]]]:
        """The ``(fingerprint, limit)`` a request body with *digest* was
        answered for, or ``None``; promotes hits to most-recent."""
        with self._lock:
            known = self._aliases.get(digest)
            if known is not None:
                self._aliases.move_to_end(digest)
            return known

    def remember(self, digest: bytes, key: str,
                 limit: Optional[int]) -> None:
        """Record that the body with *digest* asks for *key* under
        *limit* (evicting the least recently used alias)."""
        with self._lock:
            self._aliases[digest] = (key, limit)
            self._aliases.move_to_end(digest)
            if len(self._aliases) > self.capacity:
                self._aliases.popitem(last=False)

    def _insert(self, key: str, entry: EncodedResult) -> None:
        # Caller holds the lock.
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._count("evictions")

    def to_dict(self) -> dict:
        """Stats for ``/metrics``."""
        counts = self.metrics.counters("cache.serve_lru.")
        return {"capacity": self.capacity, "entries": len(self),
                **{event: counts.get(f"cache.serve_lru.{event}", 0)
                   for event in ("hits", "disk_hits", "misses", "evictions")},
                "disk_path": self.disk.cache_dir if self.disk else None}
