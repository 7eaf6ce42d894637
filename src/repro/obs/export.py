"""Exporters: JSONL span log, Chrome trace events, Prometheus text.

Three ways out of the process, all stdlib-only:

* :class:`JsonlSink` — one JSON object per span/event line, append-only;
  the machine-readable twin of a debug log.
* :class:`ChromeTraceSink` — Chrome trace-event JSON (the
  ``{"traceEvents": [...]}`` wrapper) loadable in Perfetto or
  ``chrome://tracing``.  Span trees become complete (``"ph": "X"``)
  events; :meth:`ChromeTraceSink.add_vm_events` folds a virtual
  machine's :class:`~repro.vmpi.machine.TraceEvent` timeline into the
  same file (rank → track, phase → name, kind → category) so wall-clock
  spans and simulated-time timelines ship together.
* :func:`prometheus_exposition` — text exposition (version 0.0.4) of
  one or more :class:`~repro.obs.metrics.MetricsRegistry` instances for
  ``GET /metrics?format=prometheus``.

Sinks implement ``on_span(record)`` / ``on_event(record)`` / ``close()``
against the dict records built by :class:`~repro.obs.spans.Observer`.
"""

from __future__ import annotations

import json
import math
import threading
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple, Union

from .metrics import MetricsRegistry

_US = 1e6  # chrome trace timestamps are microseconds


class JsonlSink:
    """Append each span/event as one JSON line to a path or open file."""

    def __init__(self, target: Union[str, IO[str]]):
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "a", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self._lock = threading.Lock()

    def _write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self._fh.write(line + "\n")

    def on_span(self, record: Dict[str, Any]) -> None:
        self._write(record)

    def on_event(self, record: Dict[str, Any]) -> None:
        self._write(record)

    def close(self) -> None:
        with self._lock:
            self._fh.flush()
            if self._owns:
                self._fh.close()


class ChromeTraceSink:
    """Collect spans (and optionally VM timelines) as Chrome trace events.

    Spans map to complete events on the thread that closed them; VM
    :class:`~repro.vmpi.machine.TraceEvent` timelines map rank → ``tid``
    (track), phase → ``name``, kind → ``cat``.  Call :meth:`write` (or
    ``close()`` after construction with a path) to emit the JSON file.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []

    def on_span(self, record: Dict[str, Any]) -> None:
        event = {
            "ph": "X",
            "name": record["name"],
            "cat": "span",
            "ts": record["start"] * _US,
            "dur": max(record["end"] - record["start"], 0.0) * _US,
            "pid": 0,
            "tid": 0,
            "args": dict(record["attrs"],
                         span_id=record["span_id"],
                         parent_id=record["parent_id"]),
        }
        with self._lock:
            self._events.append(event)

    def on_event(self, record: Dict[str, Any]) -> None:
        event = {
            "ph": "i",
            "name": record["name"],
            "cat": "event",
            "ts": record["time"] * _US,
            "pid": 0,
            "tid": 0,
            "s": "t",
            "args": dict(record["attrs"]),
        }
        with self._lock:
            self._events.append(event)

    def add_vm_events(self, events: Iterable[Any], pid: int = 1,
                      time_scale: float = 1.0) -> int:
        """Fold a VM trace (``TraceEvent``-shaped objects) into the file.

        VM time is simulated seconds, unrelated to the span wall clock,
        so the timeline lands under its own ``pid`` (default 1) rather
        than pretending the clocks agree.  Returns the number of events
        added.
        """
        chrome = vm_trace_events(events, pid=pid, time_scale=time_scale)
        with self._lock:
            self._events.extend(chrome)
        return len(chrome)

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def to_dict(self) -> Dict[str, Any]:
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}

    def write(self, path: Optional[str] = None) -> None:
        target = path or self.path
        if target is None:
            raise ValueError("ChromeTraceSink has no output path")
        payload = self.to_dict()
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, default=str)

    def close(self) -> None:
        if self.path is not None:
            self.write()


def vm_trace_events(events: Iterable[Any], pid: int = 1,
                    time_scale: float = 1.0) -> List[Dict[str, Any]]:
    """Chrome trace events for a VM timeline: rank → track, phase → name,
    kind → category.  *time_scale* rescales simulated seconds (the VM
    clock) before the microsecond conversion."""
    out = []
    for e in events:
        start = e.start * time_scale
        end = e.end * time_scale
        out.append({
            "ph": "X",
            "name": e.phase,
            "cat": e.kind,
            "ts": start * _US,
            "dur": max(end - start, 0.0) * _US,
            "pid": pid,
            "tid": e.rank,
            "args": {"rank": e.rank, "kind": e.kind},
        })
    return out


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus metric name."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return "repro_" + safe


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _merged(groups: Iterable[Iterable[Tuple[str, Any]]]) -> List[Tuple[str, Any]]:
    """The ``(name, item)`` pairs of every group, sorted by name; a name
    in two groups is a programming error and raises."""
    merged: Dict[str, Any] = {}
    for group in groups:
        for name, item in group:
            if name in merged:
                raise ValueError(f"metric {name!r} is in two registries")
            merged[name] = item
    return sorted(merged.items())


def prometheus_exposition(*registries: MetricsRegistry) -> str:
    """Text exposition (format 0.0.4) of every instrument in *registries*.

    Counters export as ``<name>_total``, gauges as ``<name>``,
    histograms as the standard ``_bucket{le=...}`` / ``_sum`` /
    ``_count`` triplet in seconds.  The registries are exposed as one:
    output is sorted by name, so the exposition is deterministic --
    golden-file testable.
    """
    lines: List[str] = []
    for name, value in _merged(r.counters().items() for r in registries):
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in _merged(r.gauges().items() for r in registries):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, hist in _merged(((h.name, h) for h in r.histograms())
                              for r in registries):
        prom = _prom_name(name) + "_seconds"
        lines.append(f"# TYPE {prom} histogram")
        for upper, cumulative in hist.buckets():
            lines.append(f'{prom}_bucket{{le="{upper:.6g}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {hist.total}')
        lines.append(f"{prom}_sum {_prom_value(hist.sum_seconds)}")
        lines.append(f"{prom}_count {hist.total}")
    return "\n".join(lines) + "\n"
