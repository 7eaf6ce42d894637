"""repro.obs — unified observability: spans, metrics, exporters.

One layer through which the whole stack reports what it is doing:

* **Spans** (:func:`span`, :class:`Observer`) — hierarchical, timed,
  attributed regions (``plan_many.screen``, ``serve.request``) with
  ``contextvars`` parenting across async/thread boundaries and a
  zero-cost disabled path.
* **Metrics** (:func:`get_registry`, :class:`MetricsRegistry`) —
  named counters/gauges/histograms: a process-wide registry fed by both
  disk caches and the lattice planner, and one per serving endpoint for
  its requests.
* **Exporters** (:class:`JsonlSink`, :class:`ChromeTraceSink`,
  :func:`prometheus_exposition`) — JSONL event logs, Perfetto-loadable
  Chrome traces carrying both span trees and VM timelines, and
  Prometheus text exposition.

Everything here is stdlib-only and imports nothing from the rest of
``repro`` (the cache/serve/plan layers import *us*), keeping the
dependency graph acyclic.  The invariant the whole package is built
around: **observation never perturbs the observed** — attaching any
sink changes no plan, clock, or ledger bit.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .spans import (
    NULL_SPAN,
    Observer,
    current_observer,
    event,
    span,
    use_observer,
)
from .export import (
    ChromeTraceSink,
    JsonlSink,
    prometheus_exposition,
    vm_trace_events,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "NULL_SPAN",
    "Observer",
    "current_observer",
    "event",
    "span",
    "use_observer",
    "ChromeTraceSink",
    "JsonlSink",
    "prometheus_exposition",
    "vm_trace_events",
]
