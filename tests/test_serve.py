"""repro.serve: coalescing, LRU layering, metrics, and the HTTP endpoint."""

import asyncio
import dataclasses
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.costmodel.params import STAMPEDE2
from repro.obs import MetricsRegistry, Observer, get_registry
from repro.plan import Planner, problem_from_dict
from repro.plan.cache import PlanCache
from repro.plan.planner import Plan, PlanResult
from repro.plan.problem import ProblemSpec
from repro.serve import (
    MAX_BODY_BYTES,
    Coalescer,
    LRUPlanCache,
    PlanServer,
    handlers,
)
from repro.serve.cache import EncodedResult
from repro.session import Session

BODY = {"m": 2048, "n": 32, "procs": 8}


# -- component layer ----------------------------------------------------------------


class TestCoalescer:
    def _gather(self, coro):
        return asyncio.new_event_loop().run_until_complete(coro)

    def test_k_concurrent_one_compute(self):
        coalescer = Coalescer()
        calls = []

        async def compute():
            calls.append(1)
            await asyncio.sleep(0.02)
            return "answer"

        async def drive():
            return await asyncio.gather(
                *(coalescer.get("key", compute) for _ in range(8)))

        results = self._gather(drive())
        assert results == ["answer"] * 8
        assert len(calls) == 1
        assert coalescer.started == 1 and coalescer.coalesced == 7
        assert len(coalescer) == 0
        assert coalescer.to_dict()["coalesce_rate"] == pytest.approx(7 / 8)

    def test_distinct_keys_compute_separately(self):
        coalescer = Coalescer()
        calls = []

        async def make(key):
            async def compute():
                calls.append(key)
                return key
            return await coalescer.get(key, compute)

        async def drive():
            return await asyncio.gather(make("a"), make("b"))

        assert self._gather(drive()) == ["a", "b"]
        assert sorted(calls) == ["a", "b"]
        assert coalescer.coalesced == 0

    def test_failure_releases_key(self):
        coalescer = Coalescer()

        async def boom():
            raise RuntimeError("planner died")

        async def ok():
            return "recovered"

        async def drive():
            with pytest.raises(RuntimeError):
                await coalescer.get("key", boom)
            # The key is released: the next request retries fresh.
            return await coalescer.get("key", ok)

        assert self._gather(drive()) == "recovered"
        assert coalescer.started == 2


def _empty_result(m: int = 4096) -> PlanResult:
    # Disk loads route through the plan-cache verifier, so cached values
    # must be structurally valid PlanResults.
    return PlanResult(problem=ProblemSpec(m=m, n=64, procs=16), plans=[],
                      num_candidates=0)


class TestLRUPlanCache:
    def test_eviction_and_counters(self):
        lru = LRUPlanCache(capacity=2)
        a = lru.put("a", _empty_result(4096))
        lru.put("b", _empty_result(8192))
        assert isinstance(a, EncodedResult)
        assert lru.get("a") is a          # promotes a over b
        c = lru.put("c", _empty_result(16384))     # evicts b (LRU)
        assert lru.get("b") is None
        assert lru.get("a") is a and lru.get("c") is c
        stats = lru.to_dict()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        assert stats["hits"] == 3 and stats["misses"] == 1

    def test_disk_layer_promote_and_write_through(self, tmp_path):
        entry = _empty_result()
        disk = PlanCache(str(tmp_path))
        warm = LRUPlanCache(capacity=4, disk=disk)
        answer = warm.put("k", entry).ranked("cache")
        assert disk.load("k") == entry    # the disk keeps the PlanResult
        # A fresh process (new LRU, same directory) starts warm from disk.
        cold = LRUPlanCache(capacity=4, disk=PlanCache(str(tmp_path)))
        promoted = cold.get("k")
        assert promoted.ranked("cache") == answer
        assert cold.to_dict()["disk_hits"] == 1
        # ... and the promotion makes the second read a memory hit.
        assert cold.get("k") is promoted
        assert cold.to_dict()["hits"] == 1

    def test_counts_once_into_the_given_registry(self):
        registry = MetricsRegistry()
        lru = LRUPlanCache(capacity=1, metrics=registry)
        lru.put("a", _empty_result(4096))
        lru.put("b", _empty_result(8192))              # evicts a
        assert lru.get("b") is not None and lru.get("a") is None
        assert registry.counters() == {"cache.serve_lru.evictions": 1,
                                       "cache.serve_lru.hits": 1,
                                       "cache.serve_lru.misses": 1}
        assert get_registry().counters("cache.serve_lru.") == {}

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUPlanCache(capacity=0)


class TestRankedPayload:
    """Encoded answers are byte-identical to serializing the whole result."""

    @pytest.fixture(scope="class")
    def result(self):
        return Planner(refine=None, cache_dir=None).plan(problem_from_dict(BODY))

    @staticmethod
    def serialize_then_slice(key, served, result, limit):
        payload = result.to_dict()
        total_plans = len(payload["plans"])
        if limit is not None:
            payload["plans"] = payload["plans"][:limit]
        return {"fingerprint": key, "served": served,
                "total_plans": total_plans, "result": payload}

    @staticmethod
    def limits(result):
        return (None, 1, 3, len(result.plans), len(result.plans) + 5)

    @pytest.mark.parametrize("served", ["cache", "computed", "coalesced"])
    def test_bytes_identical_to_serializing_everything(self, result, served):
        assert len(result.plans) > 3
        encoded = EncodedResult("k", result)
        for limit in self.limits(result):
            sent = encoded.ranked(served, limit)
            assert sent == json.dumps(self.serialize_then_slice(
                "k", served, result, limit)).encode()
            assert json.loads(sent)["total_plans"] == len(result.plans)

    @pytest.mark.parametrize("from_cache", [False, True])
    def test_disk_promoted_entry_serves_result_as_stored(
            self, result, tmp_path, from_cache):
        stored = dataclasses.replace(result, from_cache=from_cache)
        PlanCache(str(tmp_path)).store("k", stored)
        promoted = LRUPlanCache(disk=PlanCache(str(tmp_path))).get("k")
        for limit in self.limits(result):
            sent = promoted.ranked("cache", limit)
            assert sent == json.dumps(self.serialize_then_slice(
                "k", "cache", stored, limit)).encode()
            assert json.loads(sent)["result"]["from_cache"] is from_cache

    @pytest.mark.parametrize("path, body", [
        ("/plan", dict(BODY, limit=2)),
        ("/plan_batch", {"problems": [BODY, BODY], "limit": 1}),
    ])
    def test_warm_hit_runs_no_serializer(self, path, body, monkeypatch):
        server = PlanServer(Session(plan_cache=None, result_cache=None),
                            refine=None)
        problem = problem_from_dict(BODY)
        server.plan_cache.put(server.planner.fingerprint(problem),
                              server.planner.plan(problem))
        raw = json.dumps(body).encode()
        calls = []
        for owner, name in ((Plan, "to_dict"), (PlanResult, "to_dict"),
                            (json, "dumps")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        writer = _BufferWriter()

        async def request():
            status, payload = await server._dispatch("POST", path, raw)
            await server._respond(writer, status, payload, close=False)
            return status

        assert asyncio.run(request()) == 200
        assert calls == []
        head, _, sent = bytes(writer.data).partition(b"\r\n\r\n")
        answer = json.loads(sent)
        answer = answer["results"][0] if "results" in answer else answer
        assert answer["served"] == "cache"
        assert len(answer["result"]["plans"]) == body["limit"]
        assert b"Content-Length: %d\r\n" % len(sent) in head

    @pytest.mark.parametrize("limit", [None, 1, 3, 1000])
    def test_batch_body_identical_with_infeasible_item(self, server, limit):
        infeasible = {"m": 7, "n": 3, "procs": 4}
        body = {"problems": [BODY, infeasible, BODY]}
        if limit is not None:
            body["limit"] = limit
        status, _, sent = _post_raw(server.address, "/plan_batch", body)
        assert status == 200
        planner = server.planner
        key = planner.fingerprint(problem_from_dict(BODY))
        bad_key = planner.fingerprint(problem_from_dict(infeasible))
        [error] = planner.plan_many([problem_from_dict(infeasible)],
                                    errors="return")
        item = self.serialize_then_slice(key, "computed",
                                         server.plan_cache.disk.load(key),
                                         limit)
        assert sent == json.dumps({
            "count": 3, "distinct": 2,
            "results": [item,
                        {"fingerprint": bad_key,
                         "error": {"type": type(error).__name__,
                                   "message": str(error)}},
                        item]}).encode()


class TestRequestAlias:
    """A repeated ``/plan`` body is answered from its bytes."""

    @staticmethod
    def ask(server, raw):
        return asyncio.run(server._dispatch("POST", "/plan", raw))

    @staticmethod
    def local_server(lru_capacity=8, plan_cache=None):
        return PlanServer(Session(plan_cache=plan_cache, result_cache=None),
                          refine=None, lru_capacity=lru_capacity)

    def test_repeat_runs_no_decode_validation_or_fingerprint(
            self, monkeypatch):
        server = self.local_server()
        raw = json.dumps(dict(BODY, limit=2)).encode()
        status, first = self.ask(server, raw)
        assert status == 200
        calls = []
        for owner, name in ((json, "loads"), (handlers, "problem_from_dict"),
                            (Planner, "fingerprint")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        status, again = self.ask(server, raw)
        assert status == 200 and calls == []
        assert again.data == first.data.replace(b'"computed"', b'"cache"', 1)
        snapshot = handlers.metrics_snapshot(server)
        counters = snapshot["counters"]
        assert counters["requests"] == counters["plan_requests"] == 2
        assert counters["plan_served_cache"] == 1
        assert snapshot["latency"]["plan"]["count"] == 2

    @pytest.mark.parametrize("limit", [None, 1, 3])
    def test_spellings_share_one_entry_and_one_body(self, limit):
        server = self.local_server()
        problem = problem_from_dict(BODY)
        server.plan_cache.put(server.planner.fingerprint(problem),
                              server.planner.plan(problem))
        body = dict(BODY) if limit is None else dict(BODY, limit=limit)
        spellings = [json.dumps(body).encode(),
                     json.dumps(dict(reversed(list(body.items())))).encode(),
                     json.dumps(body, indent=4).encode() + b"\n"]
        status, first = self.ask(server, spellings[0])      # decoded
        assert status == 200
        for raw in spellings + spellings:
            assert self.ask(server, raw) == (200, first)
        assert json.loads(first.data)["served"] == "cache"
        assert len(server.plan_cache) == 1
        assert len(server.plan_cache._aliases) == len(spellings)

    def test_alias_table_is_bounded_by_the_lru_capacity(self):
        server = self.local_server(lru_capacity=4)
        raw = json.dumps(BODY).encode()
        for i in range(server.plan_cache.capacity + 5):
            assert self.ask(server, b" " * i + raw)[0] == 200
        assert len(server.plan_cache._aliases) == server.plan_cache.capacity
        assert len(server.plan_cache) == 1

    @pytest.mark.parametrize("disk, served", [(True, "cache"),
                                              (False, "computed")])
    def test_evicted_entry_falls_back(self, tmp_path, disk, served):
        server = self.local_server(
            lru_capacity=1,
            plan_cache=str(tmp_path / "plans") if disk else None)
        first, other = (json.dumps(dict(BODY, m=m)).encode()
                        for m in (2048, 4096))
        for raw in (first, other, first):       # `other` evicts `first`
            status, answer = self.ask(server, raw)
            assert status == 200
        assert json.loads(answer.data)["served"] == served
        stats = server.plan_cache.to_dict()
        assert stats["evictions"] == 2
        # The alias's miss is the request's only LRU probe.
        assert stats["misses"] == (2 if disk else 3)

    @pytest.mark.parametrize("raw", [
        b"{not json", json.dumps(dict(BODY, m=-5)).encode(),
        json.dumps({"m": 7, "n": 3, "procs": 4}).encode(),     # infeasible
    ])
    def test_failed_body_is_never_aliased(self, raw):
        server = self.local_server()
        answers = [self.ask(server, raw) for _ in range(3)]
        assert answers[0][0] == 400 and answers == answers[:1] * 3
        assert len(server.plan_cache._aliases) == 0

    def test_alias_hit_opens_one_request_span(self):
        sink = _ListSink()
        server = PlanServer(Session(plan_cache=None, result_cache=None),
                            refine=None, obs=Observer(sink))
        raw = json.dumps(BODY).encode()
        self.ask(server, raw)
        before = len(sink.spans)
        assert self.ask(server, raw)[0] == 200
        [root] = sink.spans[before:]
        assert root["name"] == "serve.request"
        assert root["attrs"]["status"] == 200


class _BufferWriter:
    """The part of ``asyncio.StreamWriter`` that ``_respond`` uses."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data):
        self.data += data

    async def drain(self):
        pass


# -- HTTP endpoint ------------------------------------------------------------------


def _post(address, path, body):
    req = urllib.request.Request(
        address + path, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post_raw(address, path, body):
    """POST returning (status, headers, raw bytes)."""
    req = urllib.request.Request(
        address + path, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _get(address, path):
    try:
        with urllib.request.urlopen(address + path, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture()
def server(tmp_path):
    srv = PlanServer(
        Session(plan_cache=str(tmp_path / "plans"), result_cache=None),
        workers=2, lru_capacity=8)
    srv.start_background()
    yield srv
    srv.stop()


class TestServerEndpoint:
    def test_healthz(self, server):
        status, payload = _get(server.address, "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_plan_matches_in_process_planner(self, server):
        status, payload = _post(server.address, "/plan", BODY)
        assert status == 200
        assert payload["served"] == "computed"

        local = Planner(refine="symbolic", cache_dir=None).plan(
            problem_from_dict(BODY))
        # Bit-identical ranking: every plan dict round-trips JSON exactly.
        assert (json.dumps(payload["result"]["plans"], sort_keys=True)
                == json.dumps(json.loads(json.dumps(
                    [p.to_dict() for p in local.plans])), sort_keys=True))
        assert payload["result"]["num_candidates"] == local.num_candidates

    def test_repeat_served_from_cache(self, server):
        _post(server.address, "/plan", BODY)
        status, payload = _post(server.address, "/plan", BODY)
        assert status == 200 and payload["served"] == "cache"
        _, metrics = _get(server.address, "/metrics")
        assert metrics["counters"]["plan_served_cache"] == 1
        assert metrics["plan_cache"]["hits"] == 1

    def test_limit_truncates_response_not_ranking(self, server):
        status, payload = _post(server.address, "/plan",
                                dict(BODY, limit=2))
        assert status == 200
        assert len(payload["result"]["plans"]) == 2
        assert payload["total_plans"] > 2

    def test_validation_errors_are_400_with_field(self, server):
        status, payload = _post(server.address, "/plan", dict(BODY, m=-5))
        assert status == 400
        assert "positive" in payload["error"]["message"]

        status, payload = _post(server.address, "/plan",
                                dict(BODY, bogus=1))
        assert status == 400 and "bogus" in payload["error"]["message"]

        status, payload = _post(server.address, "/plan",
                                dict(BODY, machine={"nope": 1}))
        assert status == 400 and payload["error"]["field"] == "machine"

        status, payload = _post(server.address, "/factor",
                                {"m": 64, "n": 8, "mode": "numeric"})
        assert status == 400 and payload["error"]["field"] == "mode"

    @pytest.mark.parametrize("field, value, label", [
        ("objective", "time=1,memory=1e400", "objective"),
        ("objective", {"weights": {"time": float("inf")}}, "objective"),
        ("objective", {"budgets": [{"metric": "memory", "limit": 1e400}]},
         "objective.budgets"),
        ("machine", dict(STAMPEDE2.to_dict(), alpha=float("inf")), "machine"),
    ])
    def test_non_finite_inputs_are_400(self, server, field, value, label):
        # Accepted, they came back as a 200 whose body carried a bare
        # `Infinity` token -- not JSON.
        body = dict(BODY, **{field: value})
        status, payload = _post(server.address, "/plan", body)
        assert status == 400 and payload["error"]["field"] == label
        assert "finite" in payload["error"]["message"]
        status, payload = _post(server.address, "/plan_batch",
                                {"problems": [BODY, body]})
        assert status == 400
        assert payload["error"]["field"].startswith("problems[1]")
        assert "finite" in payload["error"]["message"]

    @pytest.mark.parametrize("machine", [
        dict(STAMPEDE2.to_dict(), peak_flops_per_node=True),
        dict(STAMPEDE2.to_dict(), name=5),
        dict(STAMPEDE2.to_dict(), peak_flops_per_node=1e-300)],
        ids=["bool-rate", "int-name", "overflowing-rate"])
    def test_bad_machine_is_400_with_field(self, server, machine):
        # Each was answered 200: the first two echoed `true` / `5` back,
        # the third carried `Infinity` tokens (not JSON).
        status, payload = _post(server.address, "/plan",
                                dict(BODY, machine=machine))
        assert status == 400 and payload["error"]["field"] == "machine"

    def test_out_of_range_size_is_400_with_field(self, server):
        # Past int64 the screen's lanes overflowed into a 500.
        status, payload = _post(server.address, "/plan",
                                dict(BODY, m=10**23))
        assert status == 400 and payload["error"]["field"] == "m"

    def test_huge_procs_is_400_fast(self, server):
        # The grid search looped c up to sqrt(P): the request never ended.
        start = time.perf_counter()
        status, payload = _post(server.address, "/plan",
                                dict(BODY, m=4096, n=8, procs=2 ** 63 - 1))
        assert time.perf_counter() - start < 1.0
        assert status == 400 and "no feasible" in payload["error"]["message"]

    def test_out_of_range_batch_item_is_400_with_field(self, server):
        status, payload = _post(server.address, "/plan_batch",
                                {"problems": [dict(BODY, m=10**23), BODY]})
        assert status == 400
        assert payload["error"]["field"] == "problems[0].m"

    @pytest.mark.parametrize("method, path, body, content_type", [
        ("POST", "/plan", BODY, "application/json"),
        ("POST", "/plan_batch", {"problems": [BODY]}, "application/json"),
        ("GET", "/metrics", None, "application/json"),
        ("GET", "/metrics?format=prometheus", None,
         "text/plain; version=0.0.4; charset=utf-8"),
    ])
    def test_content_type_and_length(self, server, method, path, body,
                                     content_type):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        try:
            conn.request(method, path, body=None if body is None
                         else json.dumps(body).encode())
            response = conn.getresponse()
            sent = response.read()
        finally:
            conn.close()
        assert response.status == 200
        assert response.getheader("Content-Type") == content_type
        assert int(response.getheader("Content-Length")) == len(sent) > 0
        if content_type == "application/json":
            json.loads(sent)

    def test_malformed_json_is_400(self, server):
        req = urllib.request.Request(
            server.address + "/plan", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=60)
        assert err.value.code == 400
        assert "JSON" in json.loads(err.value.read())["error"]["message"]

    @pytest.mark.parametrize("declared, status, text", [
        ("abc", 400, "Content-Length"),
        ("-5", 400, "Content-Length"),
        (str(MAX_BODY_BYTES + 1), 413, "too large"),
    ])
    def test_bad_content_length(self, server, declared, status, text):
        # A malformed length was answered 413 "request body too large".
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=60) as sock:
            sock.sendall(b"POST /plan HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: %s\r\n\r\n" % declared.encode())
            received = b""
            while chunk := sock.recv(65536):    # the server closes
                received += chunk
        head, _, sent = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert b"Connection: close" in head
        assert text in json.loads(sent)["error"]["message"]

    @pytest.mark.parametrize("request_bytes, status, text", [
        # Longer than the stream's 64 KiB line limit: readline raised
        # ValueError, the handler died and the client got no response.
        (b"POST /plan HTTP/1.1\r\nHost: x\r\nX-Long: " + b"a" * 70000
         + b"\r\nContent-Length: 2\r\n\r\n{}", 431, "header"),
        (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\nHost: x\r\n\r\n",
         414, "request line"),
        # A chunked body was read as empty (400), and its chunks as a
        # second request (another 400).
        (b"POST /plan HTTP/1.1\r\nHost: x\r\n"
         b"Transfer-Encoding: chunked\r\n\r\n"
         + b"%x\r\n%s\r\n0\r\n\r\n" % (len(json.dumps(BODY)),
                                        json.dumps(BODY).encode()),
         501, "Transfer-Encoding"),
    ], ids=["long-header", "long-request-line", "chunked"])
    def test_unreadable_request_gets_one_error_and_a_close(
            self, server, caplog, request_bytes, status, text):
        import gc
        import logging

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=60) as sock:
                sock.sendall(request_bytes)
                received = b""
                while chunk := sock.recv(65536):    # the server closes
                    received += chunk
            server.stop()
            gc.collect()
        assert received.count(b"HTTP/1.1 ") == 1
        head, _, sent = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert b"Connection: close" in head
        assert text in json.loads(sent)["error"]["message"]
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio" and r.levelno >= logging.ERROR] == []

    def test_unknown_path_and_method(self, server):
        assert _get(server.address, "/nope")[0] == 404
        assert _get(server.address, "/plan")[0] == 405

    def test_factor_symbolic_matches_session(self, server):
        body = {"m": 1024, "n": 32, "procs": 8, "algorithm": "ca_cqr2"}
        status, payload = _post(server.address, "/factor", body)
        assert status == 200 and payload["mode"] == "symbolic"
        from repro.engine import MatrixSpec, RunSpec

        run = server.session.run(RunSpec(
            algorithm="ca_cqr2", matrix=MatrixSpec(1024, 32), procs=8,
            machine="stampede2", mode="symbolic"))
        assert payload["seconds"] == run.report.critical_path_time
        assert payload["num_ranks"] == run.report.num_ranks

    def test_factor_too_large_to_allocate_is_400_with_field(self, server):
        # A 2**33-rank machine died allocating 64 GiB of clocks: HTTP 500.
        body = {"algorithm": "cqr2_1d", "m": 2 ** 36, "n": 8,
                "procs": 2 ** 33}
        status, payload = _post(server.address, "/factor", body)
        assert status == 400 and payload["error"]["field"] == "procs"
        assert "rank limit" in payload["error"]["message"]

    def test_factor_modeled(self, server):
        status, payload = _post(server.address, "/factor",
                                {"m": 1024, "n": 32, "procs": 8,
                                 "mode": "modeled"})
        assert status == 200 and payload["mode"] == "modeled"
        assert payload["seconds"] > 0 and payload["num_candidates"] > 0

    def test_metrics_latency_histograms(self, server):
        _post(server.address, "/plan", BODY)
        _, metrics = _get(server.address, "/metrics")
        plan_latency = metrics["latency"]["plan"]
        assert plan_latency["count"] == 1
        assert plan_latency["p99_seconds"] >= plan_latency["p50_seconds"]


class _CountingPlanner:
    """Wraps the real planner; counts plan() calls and slows them down."""

    def __init__(self, inner, delay):
        self.inner = inner
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def fingerprint(self, problem):
        return self.inner.fingerprint(problem)

    def plan(self, problem):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay)
        return self.inner.plan(problem)


def _prometheus_samples(text: str, prefix: str) -> dict:
    """``{sample: value}`` of the counter and histogram ``_count`` samples
    of an exposition whose names start with *prefix*."""
    out = {}
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if name.startswith(prefix) and name.endswith(("_total", "_count")):
            out[name] = float(value)
    return out


class TestPerServerMetrics:
    """Each server counts only its own requests, in both formats."""

    def test_two_servers_keep_their_own_counters(self, tmp_path):
        servers = [PlanServer(Session(plan_cache=str(tmp_path / name),
                                      result_cache=None),
                              workers=1, lru_capacity=4)
                   for name in ("a", "b")]
        try:
            for srv, requests in zip(servers, (3, 2)):
                srv.start_background()
                for _ in range(requests):
                    assert _get(srv.address, "/healthz")[0] == 200
            counts = [_get(srv.address, "/metrics")[1]["counters"]
                      for srv in servers]
            texts = [_get_raw(srv.address, "/metrics?format=prometheus")[2]
                     .decode() for srv in servers]
        finally:
            for srv in servers:
                srv.stop()
        assert [c["healthz_requests"] for c in counts] == [3, 2]
        assert [c["metrics_requests"] for c in counts] == [1, 1]
        assert [c["requests"] for c in counts] == [4, 3]
        # The Prometheus request counts itself before it renders.
        assert [_prometheus_samples(text, "repro_serve_") for text in texts] \
            == [{"repro_serve_requests_total": requests + 2,
                 "repro_serve_healthz_requests_total": requests,
                 "repro_serve_metrics_requests_total": 2,
                 "repro_serve_latency_healthz_seconds_count": requests,
                 "repro_serve_latency_metrics_seconds_count": 1}
                for requests in (3, 2)]
        assert get_registry().counters("serve.") == {}


#: The pinned ``/metrics`` script: K identical cold /plans coalesce.
SCRIPT_K = 4
SCRIPT_FRESH = {"m": 4096, "n": 32, "procs": 16}
SCRIPT_BATCHED = {"m": 8192, "n": 32, "procs": 8}
SCRIPT_INFEASIBLE = {"m": 7, "n": 3, "procs": 4}


def _run_script(server):
    """Send the pinned request sequence to a started *server*; return the
    ``/metrics`` JSON and then the Prometheus text it answers."""
    address = server.address
    assert _post(address, "/plan", BODY)[1]["served"] == "computed"
    assert _post(address, "/plan", BODY)[1]["served"] == "cache"   # alias

    inner = server.planner
    server.planner = _CountingPlanner(inner, delay=1.0)
    barrier = threading.Barrier(SCRIPT_K)
    served = []

    def fire():
        barrier.wait()
        served.append(_post(address, "/plan", SCRIPT_FRESH)[1]["served"])

    threads = [threading.Thread(target=fire) for _ in range(SCRIPT_K)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server.planner = inner
    assert sorted(served) == ["coalesced"] * (SCRIPT_K - 1) + ["computed"]

    status, batch = _post(address, "/plan_batch", {"problems": [
        SCRIPT_BATCHED, SCRIPT_BATCHED, SCRIPT_INFEASIBLE]})
    assert status == 200 and batch["distinct"] == 2
    assert "error" in batch["results"][2]
    # BODY left memory when the batch's answer entered it (capacity 2);
    # a new spelling of it is promoted from disk.
    respelled = {"procs": 8, "n": 32, "m": 2048}
    assert _post(address, "/plan", respelled)[1]["served"] == "cache"
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        conn.request("POST", "/plan", body=b"{not json")
        assert conn.getresponse().status == 400
    finally:
        conn.close()
    status, _ = _post(address, "/factor", {"m": 4096, "n": 64, "procs": 16,
                                           "mode": "modeled"})
    assert status == 200
    assert _get(address, "/healthz")[0] == 200
    _, snapshot = _get(address, "/metrics")
    _, _, prometheus = _get_raw(address, "/metrics?format=prometheus")
    return snapshot, prometheus.decode()


@pytest.fixture()
def scripted(tmp_path):
    """A fresh server after the pinned script: (server, JSON, Prometheus)."""
    srv = PlanServer(
        Session(plan_cache=str(tmp_path / "plans"), result_cache=None),
        workers=2, lru_capacity=2, refine=None)
    srv.start_background()
    try:
        snapshot, prometheus = _run_script(srv)
    finally:
        srv.stop()
    return srv, snapshot, prometheus


class TestMetricsSnapshot:
    """``/metrics`` of one server after a scripted request sequence."""

    def test_json_snapshot(self, scripted):
        srv, snapshot, _ = scripted
        k = SCRIPT_K
        assert snapshot["counters"] == {
            "requests": k + 8, "plan_requests": k + 4,
            "plan_served_computed": 2, "plan_served_cache": 2,
            "plan_coalesced": k - 1, "plan_served_coalesced": k - 1,
            "plan_batch_requests": 1, "plan_batch_items": 3,
            "plan_batch_deduped": 1, "errors_400": 1,
            "factor_requests": 1, "healthz_requests": 1,
            "metrics_requests": 1,
        }
        # The /metrics request records its latency after it answers.
        assert {name: hist["count"]
                for name, hist in snapshot["latency"].items()} == {
            "plan": k + 4, "plan_batch": 1, "factor": 1, "healthz": 1}
        for hist in snapshot["latency"].values():
            assert hist["p99_seconds"] >= hist["p50_seconds"] > 0
        assert snapshot["coalesce_rate"] == (k - 1) / (k + 4)
        assert snapshot["plan_batch_mean_size"] == 3.0
        assert snapshot["plan_batch_dedup_rate"] == 1 / 3
        assert snapshot["coalescer"] == {
            "started": 4, "coalesced": k - 1, "inflight": 0,
            "coalesce_rate": (k - 1) / (k + 3)}
        assert snapshot["plan_cache"] == {
            "capacity": 2, "entries": 2, "hits": 1, "disk_hits": 1,
            "misses": k + 3, "evictions": 2,
            "disk_path": srv.plan_cache.disk.cache_dir}
        assert list(snapshot) == [
            "counters", "latency", "coalesce_rate", "plan_batch_mean_size",
            "plan_batch_dedup_rate", "coalescer", "plan_cache"]

    def test_prometheus_samples_equal_the_json(self, scripted):
        _, snapshot, prometheus = scripted
        served = _prometheus_samples(prometheus, "repro_serve_")
        counters = {name: served[f"repro_serve_{name}_total"]
                    for name in snapshot["counters"]}
        # The Prometheus request counts itself before it renders.
        expected = dict(snapshot["counters"])
        expected["requests"] += 1
        expected["metrics_requests"] += 1
        assert counters == expected
        for name, hist in snapshot["latency"].items():
            count = served[f"repro_serve_latency_{name}_seconds_count"]
            assert count == hist["count"]
        lru = _prometheus_samples(prometheus, "repro_cache_serve_lru_")
        assert lru == {f"repro_cache_serve_lru_{event}_total":
                       snapshot["plan_cache"][event]
                       for event in ("hits", "disk_hits", "misses",
                                     "evictions")}


class TestCoalescingOverHTTP:
    def test_k_identical_inflight_one_planner_call(self, server):
        server.planner = _CountingPlanner(server.planner, delay=1.0)
        k = 6
        barrier = threading.Barrier(k)
        results = [None] * k

        def fire(i):
            barrier.wait()
            results[i] = _post(server.address, "/plan", BODY)

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # Exactly one planner invocation served all K requests ...
        assert server.planner.calls == 1
        statuses = [status for status, _ in results]
        assert statuses == [200] * k
        # ... with K identical responses.
        bodies = {json.dumps(payload["result"], sort_keys=True)
                  for _, payload in results}
        assert len(bodies) == 1
        served = sorted(payload["served"] for _, payload in results)
        assert served.count("computed") == 1
        assert served.count("coalesced") == k - 1
        _, metrics = _get(server.address, "/metrics")
        assert metrics["counters"]["plan_served_computed"] == 1
        assert metrics["counters"]["plan_coalesced"] == k - 1
        assert metrics["coalesce_rate"] > 0
        assert metrics["coalescer"]["started"] == 1


class TestServerLifecycle:
    def test_stop_with_a_keep_alive_client_leaves_nothing_behind(
            self, tmp_path, caplog):
        import gc
        import logging

        before = set(threading.enumerate())
        srv = PlanServer(Session(plan_cache=str(tmp_path / "plans"),
                                 result_cache=None),
                         workers=2, lru_capacity=8, refine=None)
        srv.start_background()
        conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=60)
        try:
            conn.request("POST", "/plan", body=json.dumps(BODY).encode())
            response = conn.getresponse()
            response.read()
            assert response.getheader("Connection") == "keep-alive"
            # The client stays connected while the server stops.
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                started = time.perf_counter()
                srv.stop()
                elapsed = time.perf_counter() - started
                gc.collect()
        finally:
            conn.close()
        assert response.status == 200
        assert elapsed < 1.0
        assert [t.name for t in threading.enumerate()
                if t not in before and t.name.startswith("repro-serve")] == []
        assert [r.getMessage() for r in caplog.records
                if "Task was destroyed" in r.getMessage()] == []

    def test_stop_after_a_client_closes_logs_no_asyncio_error(
            self, caplog):
        # stop() cancelled the handler inside writer.wait_closed(); the
        # cancelled task made the stream callback log a CancelledError.
        import logging

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            for _ in range(5):
                srv = PlanServer(Session(plan_cache=None, result_cache=None),
                                 workers=1, refine=None)
                srv.start_background()
                conn = http.client.HTTPConnection("127.0.0.1", srv.port,
                                                  timeout=60)
                conn.request("GET", "/healthz")
                assert conn.getresponse().read()
                conn.close()
                srv.stop()
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio" and r.levelno >= logging.ERROR] == []


# -- the session's machine is the default -------------------------------------------


class TestSessionMachineDefault:
    """A request that names no machine is answered for the session's."""

    @pytest.fixture()
    def blue_server(self):
        srv = PlanServer(Session(machine="blue-waters", plan_cache=None,
                                 result_cache=None),
                         workers=2, lru_capacity=8, refine=None)
        srv.start_background()
        yield srv
        srv.stop()

    @staticmethod
    def machine_of(result):
        return result["problem"]["machine"]["name"]

    def test_plan_and_every_batch_item(self, blue_server):
        named = dict(BODY, machine="stampede2")
        status, payload = _post(blue_server.address, "/plan", BODY)
        assert status == 200
        assert self.machine_of(payload["result"]) == "blue-waters"
        status, payload = _post(blue_server.address, "/plan", named)
        assert status == 200
        assert self.machine_of(payload["result"]) == "stampede2"
        status, payload = _post(blue_server.address, "/plan_batch", {
            "problems": [BODY, dict(BODY, procs=16), named]})
        assert status == 200
        assert [self.machine_of(item["result"])
                for item in payload["results"]] == [
            "blue-waters", "blue-waters", "stampede2"]

    def test_factor(self, blue_server):
        from repro.engine import MatrixSpec, RunSpec

        body = {"m": 1024, "n": 32, "procs": 8, "algorithm": "ca_cqr2"}
        seconds = {
            machine: blue_server.session.run(RunSpec(
                algorithm="ca_cqr2", matrix=MatrixSpec(1024, 32), procs=8,
                machine=machine, mode="symbolic")).report.critical_path_time
            for machine in ("blue-waters", "stampede2")}
        assert seconds["blue-waters"] != seconds["stampede2"]
        status, payload = _post(blue_server.address, "/factor", body)
        assert status == 200
        assert payload["seconds"] == seconds["blue-waters"]
        status, payload = _post(blue_server.address, "/factor",
                                dict(body, machine="stampede2"))
        assert status == 200
        assert payload["seconds"] == seconds["stampede2"]


# -- batched campaigns --------------------------------------------------------------


BATCH = {"problems": [
    {"m": 2048, "n": 32, "procs": 8},
    {"m": 2048, "n": 32, "procs": 8},               # in-batch duplicate
    {"m": 2048, "n": 32, "procs": 16},
    {"m": 4096, "n": 32, "procs": 8, "machine": "blue-waters"},
]}


class TestPlanBatchEndpoint:
    def test_batch_matches_single_plan_responses(self, server):
        status, payload = _post(server.address, "/plan_batch", BATCH)
        assert status == 200
        assert payload["count"] == 4 and payload["distinct"] == 3
        for item, problem in zip(payload["results"], BATCH["problems"]):
            single_status, single = _post(server.address, "/plan", problem)
            assert single_status == 200
            assert item["fingerprint"] == single["fingerprint"]
            assert single["served"] == "cache"      # batch wrote through
            assert (json.dumps(item["result"], sort_keys=True)
                    == json.dumps(single["result"], sort_keys=True))
        # Duplicate fingerprints share one computed result.
        assert (payload["results"][0]["result"]
                == payload["results"][1]["result"])

    def test_repeat_batch_served_from_lru(self, server):
        _post(server.address, "/plan_batch", BATCH)
        status, payload = _post(server.address, "/plan_batch", BATCH)
        assert status == 200
        assert all(item["served"] == "cache" for item in payload["results"])

    def test_limit_truncates_each_item(self, server):
        status, payload = _post(server.address, "/plan_batch",
                                dict(BATCH, limit=1))
        assert status == 200
        for item in payload["results"]:
            assert len(item["result"]["plans"]) == 1
            assert item["total_plans"] > 1

    def test_malformed_item_is_a_labelled_400(self, server):
        status, payload = _post(server.address, "/plan_batch",
                                {"problems": [BODY, {"m": 2048, "n": 32,
                                                     "procs": 8, "bogus": 1}]})
        assert status == 400
        assert payload["error"]["field"].startswith("problems[1]")

        status, payload = _post(server.address, "/plan_batch",
                                {"problems": []})
        assert status == 400 and payload["error"]["field"] == "problems"

        status, payload = _post(server.address, "/plan_batch",
                                {"problems": [BODY], "unknown": 1})
        assert status == 400 and "unknown" in payload["error"]["message"]

    def test_infeasible_item_does_not_poison_neighbors(self, server):
        status, payload = _post(server.address, "/plan_batch", {
            "problems": [BODY, {"m": 7, "n": 3, "procs": 4}]})
        assert status == 200
        good, bad = payload["results"]
        assert good["served"] == "computed" and "result" in good
        assert "error" in bad and "no feasible" in bad["error"]["message"]

    def test_metrics_report_batch_size_and_dedup(self, server):
        _post(server.address, "/plan_batch", BATCH)
        _, metrics = _get(server.address, "/metrics")
        counters = metrics["counters"]
        assert counters["plan_batch_requests"] == 1
        assert counters["plan_batch_items"] == 4
        assert counters["plan_batch_deduped"] == 1
        assert metrics["plan_batch_mean_size"] == 4.0
        assert metrics["plan_batch_dedup_rate"] == 0.25

    def test_batch_coalesces_with_inflight_single_plans(self, server):
        server.planner = _CountingPlanner(server.planner, delay=1.0)
        results = {}
        barrier = threading.Barrier(2)

        def fire_single():
            barrier.wait()
            results["single"] = _post(server.address, "/plan", BODY)

        def fire_batch():
            barrier.wait()
            time.sleep(0.3)     # join the in-flight single computation
            results["batch"] = _post(server.address, "/plan_batch",
                                     {"problems": [BODY]})

        threads = [threading.Thread(target=fire_single),
                   threading.Thread(target=fire_batch)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        status, single = results["single"]
        assert status == 200 and single["served"] == "computed"
        status, batch = results["batch"]
        assert status == 200
        [item] = batch["results"]
        assert item["served"] == "coalesced"
        assert (json.dumps(item["result"], sort_keys=True)
                == json.dumps(single["result"], sort_keys=True))
        # One planner invocation total: the batch joined the single's
        # in-flight computation instead of starting its own search.
        assert server.planner.calls == 1


# -- observability (repro.obs) ------------------------------------------------------


class _ListSink:
    def __init__(self):
        self.spans = []

    def on_span(self, record):
        self.spans.append(record)


def _get_raw(address, path):
    """GET returning (status, headers, raw bytes) -- for non-JSON bodies."""
    with urllib.request.urlopen(address + path, timeout=60) as resp:
        return resp.status, dict(resp.headers), resp.read()


class TestServeObservability:
    def test_request_id_header_and_span_tree_across_pool(self, tmp_path):
        sink = _ListSink()
        srv = PlanServer(
            Session(plan_cache=str(tmp_path / "plans"), result_cache=None),
            workers=2, lru_capacity=8, obs=Observer(sink))
        srv.start_background()
        try:
            req = urllib.request.Request(
                srv.address + "/plan", data=json.dumps(BODY).encode("utf-8"),
                headers={"Content-Type": "application/json"}, method="POST")
            with urllib.request.urlopen(req, timeout=60) as resp:
                assert resp.status == 200
                request_id = resp.headers["X-Repro-Request-Id"]
                json.loads(resp.read())
        finally:
            srv.stop()
        assert request_id
        by_name = {}
        for record in sink.spans:
            by_name.setdefault(record["name"], []).append(record)
        [root] = by_name["serve.request"]
        # The span tree is keyed by the id the client got back.
        assert root["attrs"]["request_id"] == request_id
        assert root["attrs"]["status"] == 200
        assert root["attrs"]["endpoint"] == "plan"
        # The plan span ran on a pool worker yet parents under the
        # request span opened on the asyncio loop (copied contextvars).
        [plan] = by_name["plan"]
        assert plan["parent_id"] == root["span_id"]
        children = {r["name"] for r in sink.spans
                    if r["parent_id"] == plan["span_id"]}
        assert {"plan_many.cache", "plan_many.screen",
                "plan_many.refine"} <= children

    def test_prometheus_exposition_endpoint(self, server):
        _post(server.address, "/plan", BODY)
        status, headers, body = _get_raw(server.address,
                                         "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith(
            "text/plain; version=0.0.4")
        text = body.decode("utf-8")
        assert "repro_serve_plan_requests_total" in text
        assert "repro_serve_latency_plan_seconds_count" in text
        for line in text.strip().split("\n"):
            assert line.startswith("# TYPE repro_") or line.startswith("repro_")

    def test_metrics_unknown_format_rejected(self, server):
        status, payload = _get(server.address, "/metrics?format=xml")
        assert status == 400
        assert payload["error"]["field"] == "format"

    def test_metrics_json_snapshot_unchanged_by_query(self, server):
        _, plain = _get(server.address, "/metrics")
        _, explicit = _get(server.address, "/metrics?format=json")
        assert sorted(plain) == sorted(explicit)

    def test_responses_and_quantiles_identical_with_and_without_obs(self):
        """Observation never perturbs: /plan payloads and /metrics latency
        quantiles are bit-identical whether or not an observer records."""
        def serve_once(obs):
            srv = PlanServer(
                Session(plan_cache=None, result_cache=None),
                workers=2, lru_capacity=8, obs=obs)
            srv.start_background()
            try:
                status, payload = _post(srv.address, "/plan", BODY)
                assert status == 200
                # Identical injected latencies: the histogram pipeline
                # must summarize them identically on both servers (the
                # organic request latencies differ by wall clock).
                for v in (0.001, 0.002, 0.004, 0.1):
                    srv.metrics.histogram("serve.latency.synthetic").record(v)
                _, metrics = _get(srv.address, "/metrics")
            finally:
                srv.stop()
            return payload, metrics

        bare_payload, bare_metrics = serve_once(None)
        obs_payload, obs_metrics = serve_once(Observer(_ListSink()))
        assert (json.dumps(bare_payload["result"]["plans"], sort_keys=True)
                == json.dumps(obs_payload["result"]["plans"],
                              sort_keys=True))
        assert (bare_payload["result"]["num_candidates"]
                == obs_payload["result"]["num_candidates"])
        assert (json.dumps(bare_metrics["latency"]["synthetic"],
                           sort_keys=True)
                == json.dumps(obs_metrics["latency"]["synthetic"],
                              sort_keys=True))
        assert (bare_metrics["counters"]["plan_requests"]
                == obs_metrics["counters"]["plan_requests"])

    def test_slow_request_log(self, tmp_path, capsys):
        srv = PlanServer(
            Session(plan_cache=str(tmp_path / "plans"), result_cache=None),
            workers=2, lru_capacity=8, slow_request_seconds=1e-9)
        srv.start_background()
        try:
            status, _ = _post(srv.address, "/plan", BODY)
            assert status == 200
        finally:
            srv.stop()
        assert srv.metrics.counter("serve.slow_requests").value >= 1
        err = capsys.readouterr().err
        assert "[repro.serve] slow request" in err
        assert "POST /plan" in err
