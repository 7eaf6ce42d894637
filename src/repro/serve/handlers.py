"""Request handlers: JSON bodies in, status + JSON bodies out.

Each handler is transport-agnostic -- it receives the parsed request
body and the owning :class:`~repro.serve.server.PlanServer` and returns
``(status, payload)`` -- so the HTTP framing in ``server.py`` stays a
thin shell and tests can drive handlers directly.  A payload is one of
three body kinds: a :class:`Body` of pre-encoded JSON (the plan
endpoints, joined from the LRU's encoded answers), a :class:`Body` of
text (the Prometheus exposition), or a JSON-able object the server
encodes.

Request shapes (all POST bodies are JSON objects):

``POST /plan``
    :func:`repro.plan.problem.problem_from_dict` fields (``m``, ``n``,
    ``procs``, optional ``machine`` preset-name-or-object, ``objective``
    string-or-object with budgets, ``algorithms``, ``mode``, ``top_k``,
    ...) plus an optional ``limit`` bounding how many ranked plans the
    response carries (ranking always covers the full candidate space).

``POST /factor``
    A cost query about one *concrete* configuration: ``m``, ``n``,
    ``algorithm`` (default ``"auto"``), grid fields (``procs`` / ``c`` /
    ``d`` / ``pr`` / ``pc`` / ``block_size``), ``machine``, and ``mode``
    -- ``"symbolic"`` (default) executes the real distributed schedule
    shape-only and reports the exact simulated critical path;
    ``"modeled"`` answers from the batched analytic screen.  Numeric
    execution stays out of scope: the serving layer answers cost/config
    questions, it does not move matrices over HTTP.

``POST /plan_batch``
    A whole planning campaign in one request: ``{"problems": [<plan
    bodies>...], "limit": k}``.  Items are fingerprint-deduplicated,
    probed against the LRU in bulk, and every remaining distinct
    question is answered by **one** batched lattice search
    (:meth:`repro.plan.Planner.plan_many`) -- with one coalescer entry
    per constituent fingerprint, so concurrent ``/plan`` requests join
    the in-flight batch and vice versa.  Malformed items fail the whole
    request with a ``problems[i]``-labelled 400; a structurally
    *infeasible* item (planner ``ValueError``) comes back as a per-item
    ``error`` entry without poisoning its neighbors.

Validation failures surface as 400s with a field-labelled JSON error
body (:class:`~repro.utils.validation.ValidationError`); engine-level
infeasibility (a ``ValueError`` from the planner or a solver) is also
the client's fault and maps to 400; anything else is a 500.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
from typing import Dict, List, Tuple

from repro.plan.problem import (
    machine_from_json,
    objective_from_json,
    problem_from_dict,
)
from repro.utils.validation import ValidationError

#: Factor-request fields (everything else is rejected loudly).
_FACTOR_JSON_FIELDS = ("algorithm", "m", "n", "procs", "c", "d", "pr", "pc",
                       "block_size", "machine", "mode", "objective")
_FACTOR_MODES = ("symbolic", "modeled")

#: Content types of the pre-encoded body kinds.
JSON_TYPE = "application/json"
PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclasses.dataclass(frozen=True)
class Body:
    """A response body already encoded: sent as is, under *content_type*."""

    data: bytes
    content_type: str = JSON_TYPE


async def handle_plan(server, body: dict) -> Tuple[int, Body]:
    """Answer one planning question through cache -> coalescer -> planner."""
    if not isinstance(body, dict):
        raise ValidationError("request body must be a JSON object")
    body = server._with_session_machine(body)
    limit = body.pop("limit", None)
    if limit is not None and (isinstance(limit, bool)
                              or not isinstance(limit, int) or limit < 1):
        raise ValidationError("limit must be a positive integer",
                              field="limit")
    problem = problem_from_dict(body)
    key = server.planner.fingerprint(problem)

    entry = server.plan_cache.get(key)
    if entry is not None:
        served = "cache"
    else:
        computed_here = False

        async def compute():
            nonlocal computed_here
            computed_here = True
            computed = await server.run_blocking(server.planner.plan, problem)
            return server.plan_cache.put(key, computed)

        entry = await server.coalescer.get(key, compute)
        served = "computed" if computed_here else "coalesced"
        if served == "coalesced":
            server.metrics.incr("plan_coalesced")
    server.metrics.incr(f"plan_served_{served}")
    return 200, Body(entry.ranked(served, limit))


async def handle_plan_batch(server, body: dict) -> Tuple[int, Body]:
    """Answer a campaign: bulk LRU probe + one shared lattice search."""
    if not isinstance(body, dict):
        raise ValidationError("request body must be a JSON object")
    body = dict(body)
    limit = body.pop("limit", None)
    if limit is not None and (isinstance(limit, bool)
                              or not isinstance(limit, int) or limit < 1):
        raise ValidationError("limit must be a positive integer",
                              field="limit")
    items = body.pop("problems", None)
    if body:
        raise ValidationError(
            f"unknown request field(s) {sorted(body)}; expected "
            '"problems" and optional "limit"')
    if not isinstance(items, list) or not items:
        raise ValidationError('"problems" must be a non-empty JSON array',
                              field="problems")

    problems, keys = [], []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValidationError("each problem must be a JSON object",
                                  field=f"problems[{i}]")
        try:
            problem = problem_from_dict(server._with_session_machine(item))
        except ValidationError as exc:
            label = f"problems[{i}]" + (f".{exc.field}" if exc.field else "")
            raise ValidationError(ValueError.__str__(exc),
                                  field=label) from None
        problems.append(problem)
        keys.append(server.planner.fingerprint(problem))

    server.metrics.incr("plan_batch_items", len(problems))
    distinct: Dict[str, object] = {}
    for key, problem in zip(keys, problems):
        distinct.setdefault(key, problem)
    server.metrics.incr("plan_batch_deduped", len(problems) - len(distinct))

    outcomes: Dict[str, Tuple[str, object]] = {}
    missing: List[str] = []
    for key in distinct:
        cached = server.plan_cache.get(key)
        if cached is not None:
            outcomes[key] = ("cache", cached)
        else:
            missing.append(key)

    if missing:
        index = {key: i for i, key in enumerate(missing)}
        batch: Dict[str, asyncio.Task] = {}

        def batch_task() -> asyncio.Task:
            # One lattice search covers every fingerprint this request
            # must compute; created lazily so a batch fully served by
            # in-flight /plan computations never starts a search.
            if "task" not in batch:
                batch["task"] = asyncio.ensure_future(server.run_blocking(
                    functools.partial(server.planner.plan_many,
                                      [distinct[k] for k in missing],
                                      errors="return")))
            return batch["task"]

        async def compute_one(key: str):
            result = (await batch_task())[index[key]]
            if isinstance(result, Exception):
                raise result
            return server.plan_cache.put(key, result)

        async def serve_one(key: str) -> Tuple[str, Tuple[str, object]]:
            state: Dict[str, bool] = {}

            async def compute():
                state["leader"] = True
                return await compute_one(key)

            try:
                result = await server.coalescer.get(key, compute)
            except ValueError as exc:
                # Per-item infeasibility: report it on this item only.
                return key, ("error", exc)
            if "leader" not in state:
                server.metrics.incr("plan_coalesced")
                return key, ("coalesced", result)
            return key, ("computed", result)

        outcomes.update(await asyncio.gather(*(serve_one(k)
                                               for k in missing)))

    results = []
    for key in keys:
        served, value = outcomes[key]
        if served == "error":
            results.append(json.dumps(
                {"fingerprint": key,
                 "error": {"type": type(value).__name__,
                           "message": str(value)}}).encode())
        else:
            results.append(value.ranked(served, limit))
    return 200, Body(b'{"count": %d, "distinct": %d, "results": [%b]}'
                     % (len(keys), len(distinct), b", ".join(results)))


async def handle_factor(server, body: dict) -> Tuple[int, dict]:
    """Answer one concrete-configuration cost question."""
    if not isinstance(body, dict):
        raise ValidationError("request body must be a JSON object")
    body = server._with_session_machine(body)
    unknown = sorted(set(body) - set(_FACTOR_JSON_FIELDS))
    if unknown:
        raise ValidationError(
            f"unknown request field(s) {unknown}; known fields: "
            f"{sorted(_FACTOR_JSON_FIELDS)}")
    mode = body.get("mode", "symbolic")
    if mode not in _FACTOR_MODES:
        raise ValidationError(
            f"mode must be one of {_FACTOR_MODES}, got {mode!r} (numeric "
            f"execution is not served over HTTP)", field="mode")
    missing = sorted(k for k in ("m", "n") if body.get(k) is None)
    if missing:
        raise ValidationError(f"missing required field(s) {missing}",
                              field=missing[0])
    for name in ("m", "n", "procs", "c", "d", "pr", "pc", "block_size"):
        value = body.get(name)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, int)):
            raise ValidationError(
                f"must be an integer, got {type(value).__name__}", field=name)
    algorithm = body.get("algorithm", "auto")
    if not isinstance(algorithm, str):
        raise ValidationError(
            f"must be an algorithm name, got {type(algorithm).__name__}",
            field="algorithm")
    machine = machine_from_json(body.get("machine", "stampede2"))
    if mode == "modeled":
        return await _factor_modeled(server, body, algorithm, machine)
    return await _factor_symbolic(server, body, algorithm, machine)


async def _factor_symbolic(server, body, algorithm, machine) -> Tuple[int, dict]:
    """Exact shape-only execution of the requested configuration."""
    from repro.engine.spec import MatrixSpec, RunSpec

    from repro.utils.validation import validated

    spec = validated("problem", RunSpec, algorithm=algorithm,
                     matrix=MatrixSpec(body["m"], body["n"]),
                     procs=body.get("procs"), c=body.get("c"),
                     d=body.get("d"), pr=body.get("pr"), pc=body.get("pc"),
                     block_size=body.get("block_size"), machine=machine,
                     mode="symbolic")
    run, resolved = await server.run_blocking(server.factor_symbolic, spec)
    report = run.report
    return 200, {
        "mode": "symbolic",
        "algorithm": resolved.algorithm,
        "grid": str(run.grid),
        "num_ranks": report.num_ranks,
        "seconds": report.critical_path_time,
        "max_messages": report.max_cost.messages,
        "max_words": report.max_cost.words,
        "max_flops": report.max_cost.flops,
    }


async def _factor_modeled(server, body, algorithm, machine) -> Tuple[int, dict]:
    """Batched-analytic answer: the best screened plan of one algorithm."""
    from repro.plan import Planner, ProblemSpec
    from repro.utils.validation import validated

    if body.get("procs") is None:
        raise ValidationError(
            'modeled factor requests need "procs" (the screen searches '
            "grids within the processor budget)", field="procs")
    fields = dict(m=body["m"], n=body["n"], procs=body["procs"],
                  machine=machine)
    if algorithm != "auto":
        fields["algorithms"] = (algorithm,)
    if body.get("block_size") is not None:
        fields["block_sizes"] = (body["block_size"],)
    if body.get("objective") is not None:
        fields["objective"] = objective_from_json(body["objective"])
    problem = validated("problem", ProblemSpec, **fields)
    planner = Planner(refine=None)
    result = await server.run_blocking(planner.plan, problem)
    best = result.best()
    return 200, {
        "mode": "modeled",
        "algorithm": best.algorithm,
        "config": best.config,
        "seconds": best.seconds,
        "max_messages": best.messages,
        "max_words": best.words,
        "max_flops": best.flops,
        "memory_words": best.memory_words,
        "num_candidates": result.num_candidates,
    }


async def handle_metrics(server, params=None) -> Tuple[int, object]:
    """The ``/metrics`` snapshot: counters, latency, coalescer, caches.

    ``GET /metrics`` answers the per-server JSON snapshot;
    ``GET /metrics?format=prometheus`` answers the process-wide registry
    as Prometheus text exposition (scraper surface).
    """
    fmt = (params or {}).get("format", "json")
    if fmt == "prometheus":
        from repro.obs import get_registry, prometheus_exposition

        return 200, Body(prometheus_exposition(get_registry()).encode(),
                         PROMETHEUS_TYPE)
    if fmt != "json":
        raise ValidationError(
            f"unknown metrics format {fmt!r}; expected 'json' or "
            f"'prometheus'", field="format")
    return 200, server.metrics.to_dict(extra=(
        ("coalescer", server.coalescer.to_dict()),
        ("plan_cache", server.plan_cache.to_dict()),
    ))


async def handle_healthz(server, _body=None) -> Tuple[int, dict]:
    """Liveness: the loop is serving and the planner context is wired."""
    return 200, {"status": "ok", "requests": server.metrics.count("requests")}
