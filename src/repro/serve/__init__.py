"""repro.serve -- planning-as-a-service.

A stdlib-only asyncio HTTP/JSON endpoint that answers planning and
cost-only factorization questions from one long-lived
:class:`~repro.session.Session`:

* :class:`PlanServer` -- the server (``repro serve`` CLI, or embed via
  :meth:`~repro.serve.server.PlanServer.start_background`).
* :class:`Coalescer` -- identical in-flight questions share one planner
  call.
* :class:`LRUPlanCache` -- bounded in-memory LRU write-through-layered
  over the shared on-disk :class:`~repro.plan.cache.PlanCache`.

Each server counts its requests, latencies and LRU transitions once, in
its own :class:`~repro.obs.MetricsRegistry` (``PlanServer.metrics``),
which both ``/metrics`` formats read.
"""

from repro.serve.cache import LRUPlanCache
from repro.serve.coalesce import Coalescer
from repro.serve.server import MAX_BODY_BYTES, PlanServer

__all__ = [
    "Coalescer",
    "LRUPlanCache",
    "MAX_BODY_BYTES",
    "PlanServer",
]
