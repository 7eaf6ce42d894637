"""Hierarchical spans with ``contextvars`` propagation.

A span is a named, timed region of work with attributes::

    with obs.span("plan_many.refine", mode="symbolic") as sp:
        survivors = refine(...)
        sp.set(survivors=len(survivors))

Spans nest: the span open in the current :mod:`contextvars` context when
a child starts becomes its parent, so a request span opened on serve's
asyncio loop parents the planner spans running on thread-pool workers —
provided the hop copies the context (``contextvars.copy_context()``;
``loop.run_in_executor`` does *not* do this by itself, see
``repro.serve.server.PlanServer.run_blocking``).

Zero-cost when disabled — the same idiom as the VM's ``TraceSink``:
:func:`span` with no observer attached returns a shared no-op
:data:`NULL_SPAN` whose ``__enter__``/``__exit__``/``set`` do nothing,
so instrumented code pays one ``is None`` check and an allocation-free
``with``.  **Observation never perturbs the observed**: spans read
``time.perf_counter`` for themselves but never touch the VM clock,
ledgers, or plan content.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import time
from typing import Any, Dict, Iterator, List, Optional

_SPAN_IDS = itertools.count(1)

#: The innermost open span in this context (parent for new spans).
_CURRENT_SPAN: "contextvars.ContextVar[Optional[_Span]]" = \
    contextvars.ContextVar("repro_obs_current_span", default=None)

#: The ambient observer :func:`span` records into when ``obs`` is not
#: passed explicitly (set by :func:`use_observer` / the serve layer).
_CURRENT_OBSERVER: "contextvars.ContextVar[Optional[Observer]]" = \
    contextvars.ContextVar("repro_obs_current_observer", default=None)


class _NullSpan:
    """The shared do-nothing span returned when no observer is attached."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: Any) -> None:
        return None


#: Singleton no-op span: the entire cost of disabled instrumentation.
NULL_SPAN = _NullSpan()


class _Span:
    """One live span.  Created by :meth:`Observer.span`; use as a context
    manager.  Emitted to the observer's sinks at ``__exit__``."""

    __slots__ = ("observer", "name", "attrs", "span_id", "parent_id",
                 "start", "end", "_token")

    def __init__(self, observer: "Observer", name: str,
                 attrs: Dict[str, Any]):
        self.observer = observer
        self.name = name
        self.attrs = attrs
        self.span_id = next(_SPAN_IDS)
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.end = 0.0
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "_Span":
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            self.parent_id = parent.span_id
        self._token = _CURRENT_SPAN.set(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", getattr(exc_type, "__name__",
                                                   str(exc_type)))
        if self._token is not None:
            # A ValueError means the span was closed from a different
            # context than it was opened in (e.g. a span held across a
            # generator's yields, with the generator finalized
            # elsewhere).  The span record is still correct; only the
            # context restore is moot.
            with contextlib.suppress(ValueError):
                _CURRENT_SPAN.reset(self._token)
            self._token = None
        self.observer._emit_span(self)

    def set(self, **attrs: Any) -> "_Span":
        """Attach/overwrite attributes (e.g. counts known only at the end)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """Emit an instantaneous event parented to this span."""
        self.observer._emit_event(name, self.span_id, attrs)


class Observer:
    """Routes spans and events to attached sinks on one shared clock.

    The clock is ``time.perf_counter`` anchored to an epoch captured at
    construction, so span timestamps and VM trace events exported through
    the same observer land on a common timeline in the Chrome trace.

    A sink is any object with ``on_span(dict)``; ``on_event(dict)`` and
    ``close()`` are optional.  With no sinks, :meth:`span` returns
    :data:`NULL_SPAN` and recording costs one attribute check.
    """

    def __init__(self, *sinks: Any):
        self.sinks: List[Any] = [s for s in sinks if s is not None]
        self.epoch = time.perf_counter()

    def span(self, name: str, **attrs: Any):
        if not self.sinks:
            return NULL_SPAN
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        if not self.sinks:
            return
        parent = _CURRENT_SPAN.get()
        self._emit_event(name, parent.span_id if parent else None, attrs)

    def _emit_span(self, sp: _Span) -> None:
        record = {
            "type": "span",
            "name": sp.name,
            "span_id": sp.span_id,
            "parent_id": sp.parent_id,
            "start": sp.start - self.epoch,
            "end": sp.end - self.epoch,
            "duration": sp.end - sp.start,
            "attrs": sp.attrs,
        }
        for sink in self.sinks:
            sink.on_span(record)

    def _emit_event(self, name: str, parent_id: Optional[int],
                    attrs: Dict[str, Any]) -> None:
        record = {
            "type": "event",
            "name": name,
            "parent_id": parent_id,
            "time": time.perf_counter() - self.epoch,
            "attrs": attrs,
        }
        for sink in self.sinks:
            on_event = getattr(sink, "on_event", None)
            if on_event is not None:
                on_event(record)

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


def current_observer() -> Optional[Observer]:
    """The ambient observer for this context, if any."""
    return _CURRENT_OBSERVER.get()


@contextlib.contextmanager
def use_observer(obs: Optional[Observer]) -> Iterator[Optional[Observer]]:
    """Make *obs* the ambient observer within the ``with`` block."""
    token = _CURRENT_OBSERVER.set(obs)
    try:
        yield obs
    finally:
        _CURRENT_OBSERVER.reset(token)


def span(name: str, obs: Optional[Observer] = None, **attrs: Any):
    """Open a span on *obs*, the ambient observer, or nothing.

    The one-line instrumentation entry point: pass an explicit observer
    (a layer that was handed one), or rely on the ambient contextvar, or
    — the common disabled case — get :data:`NULL_SPAN` back for the cost
    of two ``None`` checks.
    """
    if obs is None:
        obs = _CURRENT_OBSERVER.get()
        if obs is None:
            return NULL_SPAN
    return obs.span(name, **attrs)


def event(name: str, obs: Optional[Observer] = None, **attrs: Any) -> None:
    """Emit an instantaneous event (no-op when no observer is attached)."""
    if obs is None:
        obs = _CURRENT_OBSERVER.get()
        if obs is None:
            return
    obs.event(name, **attrs)
