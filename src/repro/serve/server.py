"""`PlanServer`: the asyncio HTTP/JSON planning endpoint.

One long-lived :class:`~repro.session.Session` behind a stdlib-only
HTTP/1.1 server (asyncio streams -- no new runtime dependency): the
event loop owns connection handling and the in-memory caches, while
planner searches and symbolic runs (CPU-bound, seconds-long cold) run
on a bounded thread pool so the loop keeps accepting and -- crucially --
keeps *coalescing*: identical questions that arrive while one is being
computed join the in-flight computation instead of starting their own
(:mod:`repro.serve.coalesce`).

Layering per ``/plan`` request::

    request alias (body digest)  ->  LRU (memory, encoded answers)
        ->  PlanCache (disk, shared, atomic)  ->  Coalescer  ->  Planner

A body already answered skips JSON decoding, validation and
fingerprinting: its digest names its LRU entry.  The LRU holds each
answer as JSON fragments encoded once
(:class:`~repro.serve.cache.EncodedResult`), so a warm ``/plan`` or
``/plan_batch`` response is a byte join written as is.

The server exposes ``POST /plan``, ``POST /plan_batch`` (a whole
campaign through one batched lattice search), ``POST /factor``,
``GET /metrics``, and ``GET /healthz`` (request shapes in
:mod:`repro.serve.handlers`),
keeps connections alive for pipelined clients, and answers malformed
requests with field-labelled 400s instead of dying.

Each server counts once, in its own
:class:`~repro.obs.MetricsRegistry` (:attr:`PlanServer.metrics`): the
``serve.<counter>`` request counters, the ``serve.latency.<endpoint>``
histograms and the LRU's ``cache.serve_lru.*`` transitions.  The
``/metrics`` JSON is a view of that registry; its Prometheus form adds
the process-wide registry (disk caches, lattice planner).

Embedding (tests, benchmarks) and the ``repro serve`` CLI subcommand use
:meth:`PlanServer.start_background` / :meth:`PlanServer.stop`.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import json
import sys
import threading
import time
import urllib.parse
import uuid
from typing import Dict, Optional, Set, Tuple

from repro.obs import MetricsRegistry, Observer, span, use_observer
from repro.plan.cache import PlanCache
from repro.serve.cache import LRUPlanCache
from repro.serve.coalesce import Coalescer
from repro.serve.handlers import (
    JSON_TYPE,
    Body,
    handle_factor,
    handle_healthz,
    handle_metrics,
    handle_plan,
    handle_plan_batch,
)
from repro.session import Session
from repro.utils.validation import ValidationError, require

#: Largest accepted request body; planning questions are tiny.
MAX_BODY_BYTES = 1 << 20

_ROUTES = {
    ("POST", "/plan"): ("plan", handle_plan),
    ("POST", "/plan_batch"): ("plan_batch", handle_plan_batch),
    ("POST", "/factor"): ("factor", handle_factor),
    ("GET", "/metrics"): ("metrics", handle_metrics),
    ("GET", "/healthz"): ("healthz", handle_healthz),
}

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error"}


class PlanServer:
    """Planning-as-a-service over one long-lived session.

    Parameters
    ----------
    session:
        The ambient context every request is answered under; defaults
        to a fresh environment-configured :class:`~repro.session.Session`.
        Its ``plan_cache`` is the shared on-disk plan layer under the LRU
        (``None``: memory only), and its ``machine`` answers requests
        that do not name one (``None`` keeps the per-request default,
        ``"stampede2"``).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`port` after starting).  A port outside ``0..65535``
        raises :class:`~repro.utils.validation.ValidationError` (field
        ``port``).
    workers:
        Thread-pool width for planner work.  Each cold plan holds
        one thread for its full search; warm and coalesced requests
        never touch the pool.
    lru_capacity:
        Bound on the in-memory plan LRU (entries, not bytes).
    refine:
        Planner audit mode for cold requests (``"symbolic"`` attaches an
        exact symbolic run to the top plans, ``None`` screen-only); the
        ranking is the same either way.
    obs:
        An :class:`~repro.obs.Observer` for per-request span trees: each
        request gets a ``serve.request`` root span (keyed by the
        generated id returned in the ``X-Repro-Request-Id`` header)
        parenting the planner/sched spans of the work it triggers --
        across the thread-pool boundary, because :meth:`run_blocking`
        copies the request's contextvars onto the worker.  It is a
        parameter, not the caller's ambient observer, because the server
        loop runs on its own thread.  ``None`` (default): spans cost
        nothing.  Observation never changes a response bit.
    slow_request_seconds:
        Log any request slower than this many seconds to stderr (with
        its request id); ``None`` (default) disables the log.
    """

    def __init__(self, session: Optional[Session] = None, *,
                 host: str = "127.0.0.1", port: int = 0, workers: int = 4,
                 lru_capacity: int = 128,
                 refine: Optional[str] = "symbolic",
                 obs: Optional[Observer] = None,
                 slow_request_seconds: Optional[float] = None):
        require(workers > 0, f"workers must be positive, got {workers}")
        if not 0 <= port <= 65535:
            raise ValidationError(f"must be in 0..65535, got {port}",
                                  field="port")
        require(slow_request_seconds is None or slow_request_seconds > 0,
                f"slow_request_seconds must be positive, got "
                f"{slow_request_seconds}")
        self.session = session if session is not None else Session()
        self.host = host
        self.port = port
        self.workers = workers
        self.obs = obs
        self.slow_request_seconds = slow_request_seconds
        #: This server's counters and latencies (``serve.*``) and its
        #: LRU's transitions (``cache.serve_lru.*``), each recorded once.
        self.metrics = MetricsRegistry()
        plan_cache = self.session.plan_cache
        disk = PlanCache(plan_cache) if plan_cache else None
        self.plan_cache = LRUPlanCache(lru_capacity, disk=disk,
                                       metrics=self.metrics)
        self.coalescer = Coalescer()
        # One planner for the server's lifetime.  Its refinement runs in
        # the worker thread that asked: concurrency comes from serving
        # many requests, not from a process pool inside each one.
        self.planner = self.session.planner(refine=refine)
        self.planner.cache = None       # the LRU owns the disk layer
        self._pool = None               # created on start
        self._connections: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # -- blocking-work bridge -----------------------------------------------------

    async def run_blocking(self, fn, *args):
        """Run CPU-bound work on the worker pool; await its result.

        The caller's contextvars are copied onto the worker thread --
        ``run_in_executor`` does not do this by itself -- so the
        request's span and ambient observer parent the planner spans the
        work emits.
        """
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        return await loop.run_in_executor(
            self._pool, lambda: ctx.run(fn, *args))

    def factor_symbolic(self, spec):
        """Resolve (auto specs via the session planner) and run one spec."""
        resolved = self.session.resolve(spec)
        return self.session.run(resolved), resolved

    # -- request plumbing ---------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to this server's ``serve.<name>`` counter."""
        self.metrics.counter(f"serve.{name}").inc(amount)

    def _with_session_machine(self, body: dict) -> dict:
        """A copy of request object *body*, naming the session's machine
        unless it names one (``/plan_batch`` fills each item, not the
        batch)."""
        body = dict(body)
        if self.session.machine is not None:
            body.setdefault("machine", self.session.machine)
        return body

    async def _dispatch(self, method: str, path: str, body_bytes: bytes,
                        params: Optional[Dict[str, str]] = None,
                        request_id: Optional[str] = None
                        ) -> Tuple[int, object]:
        route = _ROUTES.get((method, path))
        if route is None:
            if any(p == path for _, p in _ROUTES):
                return 405, {"error": {"field": None,
                                       "message": f"method {method} not "
                                                  f"allowed for {path}"}}
            return 404, {"error": {"field": None,
                                   "message": f"no such endpoint: {path}"}}
        endpoint, handler = route
        self.count("requests")
        self.count(f"{endpoint}_requests")
        status = 500
        start = time.perf_counter()
        try:
            # POST handlers decode their own body (a repeated /plan body
            # is answered from its bytes); GET handlers receive the
            # parsed query string.
            body = body_bytes if method == "POST" else params
            if self.obs is not None:
                with use_observer(self.obs), \
                        span("serve.request", request_id=request_id,
                             endpoint=endpoint, method=method,
                             path=path) as sp:
                    status, payload = await handler(self, body)
                    sp.set(status=status)
            else:
                status, payload = await handler(self, body)
        except ValidationError as exc:
            status, payload = 400, {"error": exc.to_dict()}
        except ValueError as exc:
            # Engine/planner infeasibility (EngineError subclasses
            # ValueError): the question was well-formed but unanswerable
            # -- still the client's problem, still a clean JSON body.
            status, payload = 400, {"error": {"field": None,
                                              "message": str(exc)}}
        except Exception as exc:        # noqa: BLE001 - the server must survive
            status, payload = 500, {"error": {"field": None,
                                              "message": f"{type(exc).__name__}: {exc}"}}
        finally:
            elapsed = time.perf_counter() - start
            self.metrics.histogram(f"serve.latency.{endpoint}").record(elapsed)
            if (self.slow_request_seconds is not None
                    and elapsed >= self.slow_request_seconds):
                self.count("slow_requests")
                print(f"[repro.serve] slow request "
                      f"{request_id or '-'} {method} {path} "
                      f"{elapsed:.3f}s status={status}",
                      file=sys.stderr, flush=True)
        if status != 200:
            self.count(f"errors_{status}")
        return status, payload

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        # A plain callback, not a coroutine: asyncio then attaches no done
        # callback of its own to the connection task, which would log a
        # task that stop() cancelled as an error.  _shutdown cancels and
        # awaits the task instead.
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    await self._respond(writer, 400,
                                        {"error": {"field": None,
                                                   "message": "malformed "
                                                              "request line"}},
                                        close=True)
                    break
                method, target, version = parts
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                declared = headers.get("content-length") or "0"
                if not (declared.isascii() and declared.isdigit()):
                    message = (f"Content-Length header must be a "
                               f"non-negative integer, got {declared!r}")
                    await self._respond(writer, 400, {"error": {
                        "field": None, "message": message}}, close=True)
                    break
                length = int(declared)
                if length > MAX_BODY_BYTES:
                    await self._respond(writer, 413,
                                        {"error": {"field": None,
                                                   "message": "request body "
                                                              "too large"}},
                                        close=True)
                    break
                body_bytes = await reader.readexactly(length) if length else b""
                close = (headers.get("connection", "").lower() == "close"
                         or version.upper() == "HTTP/1.0")
                path, _, query = target.partition("?")
                params = (dict(urllib.parse.parse_qsl(query)) if query
                          else None)
                request_id = uuid.uuid4().hex[:16]
                status, payload = await self._dispatch(method.upper(), path,
                                                       body_bytes,
                                                       params=params,
                                                       request_id=request_id)
                await self._respond(writer, status, payload, close=close,
                                    headers={"X-Repro-Request-Id":
                                             request_id})
                if close:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            # Teardown is best-effort; the peer may already be gone.
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload, *, close: bool,
                       headers: Optional[Dict[str, str]] = None) -> None:
        # A Body (pre-encoded JSON or text) goes out as is; any other
        # payload is a JSON-able object.
        if isinstance(payload, Body):
            body, content_type = payload.data, payload.content_type
        else:
            body, content_type = json.dumps(payload).encode("utf-8"), JSON_TYPE
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in (headers or {}).items())
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra}"
                f"Connection: {'close' if close else 'keep-alive'}\r\n"
                f"\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- lifecycle ----------------------------------------------------------------

    async def _start(self) -> None:
        import concurrent.futures

        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        self._server = await asyncio.start_server(
            self._accept, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            # Every other task on this private loop is a connection
            # handler or a computation one started.  Cancelled handlers
            # close their writers, so idle keep-alive clients neither
            # outlive the loop as pending tasks nor hold wait_closed.
            tasks = asyncio.all_tasks() - {asyncio.current_task()}
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start_background(self) -> str:
        """Start on a daemon thread; return the bound address.

        The embedding path for tests and the load benchmark: the caller's
        thread stays free to fire requests at :attr:`address`.
        """
        require(self._thread is None, "server already started")
        started = threading.Event()
        failure = []

        def runner():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self._start())
            except Exception as exc:    # noqa: BLE001 - surfaced to caller
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self._shutdown())
                loop.close()

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        started.wait()
        if failure:
            self._thread = None
            raise failure[0]
        return self.address

    def stop(self) -> None:
        """Stop a background server: close its open connections, then
        join its worker pool and loop thread."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._loop = None
        self._thread = None
