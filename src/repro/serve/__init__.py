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
* :class:`ServeMetrics` -- counters, coalesce/cache rates, and p50/p99
  latency for ``/metrics``.
"""

from repro.serve.cache import LRUPlanCache
from repro.serve.coalesce import Coalescer
from repro.serve.metrics import ServeMetrics
from repro.serve.server import MAX_BODY_BYTES, PlanServer

__all__ = [
    "Coalescer",
    "LRUPlanCache",
    "MAX_BODY_BYTES",
    "PlanServer",
    "ServeMetrics",
]
