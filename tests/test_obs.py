"""repro.obs: hierarchical spans, the metrics registry, and exporters.

The invariant under test throughout: observation never perturbs the
observed -- identical plans with and without sinks attached, and a
zero-cost NULL_SPAN path when nothing is listening.
"""

import contextvars
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import (
    NULL_SPAN,
    ChromeTraceSink,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    Observer,
    current_observer,
    prometheus_exposition,
    span,
    use_observer,
    vm_trace_events,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "metrics.prom")


class _ListSink:
    """Collects span/event records in memory for assertions."""

    def __init__(self):
        self.spans = []
        self.events = []
        self.closed = False

    def on_span(self, record):
        self.spans.append(record)

    def on_event(self, record):
        self.events.append(record)

    def close(self):
        self.closed = True


# -- metrics registry ---------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot_consistency(self):
        reg = MetricsRegistry()
        reg.counter("cache.plan.hits").inc()
        reg.counter("cache.plan.hits").inc(4)
        reg.gauge("lattice.screen_reuse").set(3.5)
        for v in (0.001, 0.002, 0.1):
            reg.histogram("serve.latency.plan").record(v)

        snap = reg.snapshot()
        assert snap["counters"] == {"cache.plan.hits": 5}
        assert snap["gauges"] == {"lattice.screen_reuse": 3.5}
        hist = snap["histograms"]["serve.latency.plan"]
        assert hist["count"] == 3
        assert hist["max_seconds"] == 0.1
        assert abs(hist["mean_seconds"] - (0.103 / 3)) < 1e-12
        # Quantiles are bucket upper bounds: conservative, never below
        # the sample they cover.
        assert hist["p50_seconds"] >= 0.002
        assert hist["p99_seconds"] >= 0.1

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x")

    def test_prefix_filtering(self):
        reg = MetricsRegistry()
        reg.counter("cache.plan.hits").inc()
        reg.counter("cache.sched.hits").inc(2)
        reg.counter("serve.requests").inc(7)
        assert reg.counters("cache.") == {"cache.plan.hits": 1,
                                          "cache.sched.hits": 2}
        assert reg.counters() == {"cache.plan.hits": 1,
                                  "cache.sched.hits": 2,
                                  "serve.requests": 7}

    def test_thread_hammer(self):
        """Concurrent get-or-create + record from many threads loses nothing."""
        reg = MetricsRegistry()
        threads, per_thread = 8, 2000
        barrier = threading.Barrier(threads)

        def hammer(seed):
            barrier.wait()
            for i in range(per_thread):
                reg.counter("hammer.total").inc()
                reg.counter(f"hammer.lane.{(seed + i) % 4}").inc()
                reg.gauge("hammer.level").set(i)
                reg.histogram("hammer.latency").record(0.001 * (1 + i % 5))

        pool = [threading.Thread(target=hammer, args=(t,))
                for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        assert reg.counter("hammer.total").value == threads * per_thread
        lanes = reg.counters("hammer.lane.")
        assert sum(lanes.values()) == threads * per_thread
        hist = reg.histogram("hammer.latency")
        assert hist.total == threads * per_thread
        assert sum(hist.counts) == hist.total

    def test_reset_drops_instruments(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.counters() == {}
        assert reg.counter("a").value == 0


class TestHistogram:
    def test_quantiles_bound_samples(self):
        hist = Histogram("h")
        for ms in (1, 1, 1, 1, 1, 1, 1, 1, 1, 500):
            hist.record(ms / 1000.0)
        summary = hist.to_dict()
        assert summary["count"] == 10
        # p50 bounds the 1ms mass; p99 lands in the 500ms tail bucket.
        assert 0.001 <= summary["p50_seconds"] < 0.002
        assert summary["p99_seconds"] >= 0.5
        assert summary["p99_seconds"] <= hist._upper_bound(hist._bucket(0.5))

    def test_extremes_clamp(self):
        hist = Histogram("h")
        hist.record(0.0)
        hist.record(1e-9)
        hist.record(1e6)
        assert hist.total == 3
        assert hist.to_dict()["p99_seconds"] is not None

    def test_empty(self):
        summary = Histogram("h").to_dict()
        assert summary["count"] == 0
        assert summary["p50_seconds"] is summary["p99_seconds"] is None


# -- spans --------------------------------------------------------------------------


class TestSpans:
    def test_disabled_path_returns_null_span(self):
        assert current_observer() is None
        assert span("anything", attrs=1) is NULL_SPAN
        # NULL_SPAN is inert and chainable.
        with span("x") as sp:
            assert sp.set(a=1) is sp
            sp.event("e")

    def test_observer_without_sinks_is_disabled(self):
        obs = Observer()
        assert obs.span("x") is NULL_SPAN

    def test_nesting_parents_and_attrs(self):
        sink = _ListSink()
        obs = Observer(sink)
        with obs.span("outer", m=64) as outer:
            with obs.span("inner") as inner:
                inner.set(candidates=7)
            outer.set(done=True)
        # Children emit before parents (exit order).
        by_name = {r["name"]: r for r in sink.spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["attrs"] == {"candidates": 7}
        assert by_name["outer"]["attrs"] == {"m": 64, "done": True}
        assert by_name["inner"]["duration"] >= 0.0
        assert by_name["inner"]["start"] >= by_name["outer"]["start"]

    def test_parenting_across_thread_pool_with_copied_context(self):
        """The serve idiom: a span opened on the event loop parents work
        shipped to a worker thread via contextvars.copy_context()."""
        sink = _ListSink()
        obs = Observer(sink)
        with ThreadPoolExecutor(max_workers=1) as pool, \
                use_observer(obs), obs.span("request"):
            ctx = contextvars.copy_context()

            def work():
                with span("child"):
                    pass

            pool.submit(lambda: ctx.run(work)).result()
        by_name = {r["name"]: r for r in sink.spans}
        assert by_name["child"]["parent_id"] == by_name["request"]["span_id"]

    def test_uncopied_thread_does_not_inherit_parent(self):
        sink = _ListSink()
        obs = Observer(sink)
        with ThreadPoolExecutor(max_workers=1) as pool, obs.span("request"):
            pool.submit(lambda: obs.span("orphan").__enter__().__exit__(
                None, None, None)).result()
        by_name = {r["name"]: r for r in sink.spans}
        assert by_name["orphan"]["parent_id"] is None

    def test_exception_sets_error_attr_and_propagates(self):
        sink = _ListSink()
        obs = Observer(sink)
        with pytest.raises(RuntimeError), obs.span("boom"):
            raise RuntimeError("nope")
        assert sink.spans[0]["attrs"]["error"] == "RuntimeError"

    def test_events_parent_to_open_span(self):
        sink = _ListSink()
        obs = Observer(sink)
        with use_observer(obs), obs.span("root") as root:
            root.event("tick", k=1)
        assert sink.events[0]["name"] == "tick"
        assert sink.events[0]["parent_id"] == sink.spans[0]["span_id"]
        assert sink.events[0]["attrs"] == {"k": 1}

    def test_use_observer_restores_previous(self):
        obs = Observer(_ListSink())
        assert current_observer() is None
        with use_observer(obs):
            assert current_observer() is obs
        assert current_observer() is None

    def test_observer_close_closes_sinks(self):
        sink = _ListSink()
        Observer(sink).close()
        assert sink.closed


# -- exporters ----------------------------------------------------------------------


class TestJsonlSink:
    def test_writes_one_json_line_per_record(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        obs = Observer(JsonlSink(path))
        with obs.span("a", n=1):
            obs.event("e", k=2)
        obs.close()
        records = [json.loads(line) for line in open(path)]
        assert [r["type"] for r in records] == ["event", "span"]
        assert records[1]["name"] == "a"
        assert records[1]["attrs"] == {"n": 1}


class TestChromeTraceSink:
    def test_spans_and_vm_timeline_share_one_file(self, tmp_path):
        class Ev:
            def __init__(self, rank, phase, kind, start, end):
                self.rank, self.phase, self.kind = rank, phase, kind
                self.start, self.end = start, end

        path = str(tmp_path / "trace.json")
        sink = ChromeTraceSink(path)
        obs = Observer(sink)
        with obs.span("plan", m=64):
            pass
        sink.add_vm_events([Ev(0, "tsqr.local-qr", "compute", 0.0, 1.5),
                            Ev(1, "tsqr.allreduce", "collective", 1.5, 2.0)])
        obs.close()

        payload = json.load(open(path))
        events = payload["traceEvents"]
        spans = [e for e in events if e["pid"] == 0]
        vm = [e for e in events if e["pid"] == 1]
        assert len(spans) == 1 and spans[0]["ph"] == "X"
        assert spans[0]["name"] == "plan" and spans[0]["args"]["m"] == 64
        # VM timeline: rank -> track, phase -> name, kind -> category.
        assert {e["tid"] for e in vm} == {0, 1}
        assert {e["name"] for e in vm} == {"tsqr.local-qr", "tsqr.allreduce"}
        assert {e["cat"] for e in vm} == {"compute", "collective"}
        assert vm[0]["dur"] == pytest.approx(1.5e6)

    def test_vm_trace_events_time_scale(self):
        class Ev:
            rank, phase, kind = 0, "p", "compute"
            start, end = 1.0, 2.0

        [event] = vm_trace_events([Ev()], time_scale=0.5)
        assert event["ts"] == pytest.approx(0.5e6)
        assert event["dur"] == pytest.approx(0.5e6)


class TestPrometheusExposition:
    @staticmethod
    def _golden_registry() -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("cache.plan.hits").inc(12)
        reg.counter("cache.plan.misses").inc(3)
        reg.counter("serve.plan_requests").inc(15)
        reg.gauge("lattice.screen_reuse").set(3.5)
        reg.gauge("lattice.refine_dedup").set(2.0)
        hist = reg.histogram("serve.latency.plan")
        for v in (0.001, 0.001, 0.002, 0.1):
            hist.record(v)
        return reg

    def test_matches_golden_file(self):
        text = prometheus_exposition(self._golden_registry())
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            assert text == fh.read()

    def test_well_formed(self):
        text = prometheus_exposition(self._golden_registry())
        lines = text.strip().split("\n")
        for line in lines:
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert kind in ("counter", "gauge", "histogram")
                assert name.startswith("repro_")
            else:
                name, value = line.rsplit(" ", 1)
                float(value)  # every sample value parses
        # Histogram triplet is complete and consistent.
        assert 'repro_serve_latency_plan_seconds_bucket{le="+Inf"} 4' in lines
        assert "repro_serve_latency_plan_seconds_count 4" in lines

    def test_name_sanitization(self):
        reg = MetricsRegistry()
        reg.counter("cache.serve-lru.hits!").inc()
        text = prometheus_exposition(reg)
        assert "repro_cache_serve_lru_hits__total 1" in text

    def test_infinite_and_nan_values(self):
        reg = MetricsRegistry()
        reg.gauge("x").set(float("inf"))
        reg.gauge("y").set(float("-inf"))
        reg.gauge("z").set(float("nan"))
        lines = prometheus_exposition(reg).split("\n")
        assert "repro_x +Inf" in lines
        assert "repro_y -Inf" in lines
        assert "repro_z NaN" in lines

    def test_registries_are_exposed_as_one(self):
        """Two registries with disjoint names expose exactly what one
        registry holding every instrument does."""
        process, server = MetricsRegistry(), MetricsRegistry()
        process.counter("cache.plan.hits").inc(12)
        process.counter("cache.plan.misses").inc(3)
        server.counter("serve.plan_requests").inc(15)
        process.gauge("lattice.screen_reuse").set(3.5)
        process.gauge("lattice.refine_dedup").set(2.0)
        hist = server.histogram("serve.latency.plan")
        for v in (0.001, 0.001, 0.002, 0.1):
            hist.record(v)
        golden = prometheus_exposition(self._golden_registry())
        assert prometheus_exposition(process, server) == golden
        assert prometheus_exposition(server, process) == golden

    def test_name_in_two_registries_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("serve.requests").inc()
        b.counter("serve.requests").inc()
        with pytest.raises(ValueError, match="two registries"):
            prometheus_exposition(a, b)


# -- the planner's span tree (acceptance criterion) ---------------------------------


class TestPlannerSpanTree:
    STAGES = ("plan_many.cache", "plan_many.screen", "plan_many.refine")

    def test_single_plan_emits_full_phase_tree(self, tmp_path):
        from repro.plan import Planner, ProblemSpec

        sink = _ListSink()
        problem = ProblemSpec(m=65536, n=256, procs=512, machine="stampede2",
                              top_k=4)
        with use_observer(Observer(sink)):
            Planner(refine="symbolic", cache_dir=str(tmp_path)).plan(problem)

        by_name = {r["name"]: r for r in sink.spans}
        assert {name for name in by_name if name.startswith("plan")} == {
            "plan", *self.STAGES}
        # Refinement runs plain symbolic runs: CA-CQR2 captures its
        # memoized subcube programs (a sched.capture span each, on a miss)
        # and charges them in template runs (sched.replay), all inside the
        # refine span.
        parents = {r["span_id"]: r["parent_id"] for r in sink.spans}
        names = {r["span_id"]: r["name"] for r in sink.spans}

        def under_refine(span_id):
            while span_id is not None:
                if names[span_id] == "plan_many.refine":
                    return True
                span_id = parents[span_id]
            return False

        sched = [r for r in sink.spans if r["name"].startswith("sched.")]
        assert any(r["name"] == "sched.replay" for r in sched)
        assert all(under_refine(r["span_id"]) for r in sched)
        root = by_name["plan"]
        for child in self.STAGES:
            assert by_name[child]["parent_id"] == root["span_id"]
        refine = by_name["plan_many.refine"]
        # Candidate/survivor/run counts ride on the spans.
        candidates = by_name["plan_many.screen"]["attrs"]["candidates"]
        assert candidates > 0
        assert refine["attrs"]["mode"] == "symbolic"
        assert refine["attrs"]["survivors"] == problem.top_k
        assert refine["attrs"]["runs"] == problem.top_k
        assert root["attrs"]["candidates"] == candidates
        assert root["attrs"]["from_cache"] is False

    def test_refine_span_present_even_when_disabled(self, tmp_path):
        from repro.plan import Planner, ProblemSpec

        sink = _ListSink()
        problem = ProblemSpec(m=65536, n=256, procs=512, machine="stampede2")
        with use_observer(Observer(sink)):
            Planner(refine=None, cache_dir=None).plan(problem)
        by_name = {r["name"]: r for r in sink.spans}
        assert by_name["plan_many.refine"]["attrs"]["mode"] is None
        assert by_name["plan_many.refine"]["attrs"]["survivors"] == 0
        assert by_name["plan_many.refine"]["attrs"]["runs"] == 0

    def test_single_plan_publishes_no_lattice_stats(self):
        """A plan must not clobber a concurrent plan_many's accounting."""
        from repro.obs import get_registry
        from repro.plan import Planner, ProblemSpec

        planner = Planner(refine=None, cache_dir=None)
        before = get_registry().counters().get("lattice.points", 0)
        planner.plan(ProblemSpec(m=65536, n=256, procs=512))
        assert planner.last_lattice_stats is None
        assert get_registry().counters().get("lattice.points", 0) == before
        planner.plan_many([ProblemSpec(m=65536, n=256, procs=512)])
        assert planner.last_lattice_stats.points == 1
        assert get_registry().counters()["lattice.points"] == before + 1

    def test_observation_does_not_perturb_plans(self, tmp_path):
        """Bit-identical ranked plans with and without an observer."""
        from repro.plan import Planner, ProblemSpec

        problem = ProblemSpec(m=65536, n=256, procs=512, machine="stampede2")
        bare = Planner(refine="symbolic", cache_dir=None).plan(problem)
        with use_observer(Observer(_ListSink())):
            observed = Planner(refine="symbolic", cache_dir=None).plan(problem)
        assert (json.dumps([p.to_dict() for p in bare.plans], sort_keys=True)
                == json.dumps([p.to_dict() for p in observed.plans],
                              sort_keys=True))


class TestCaptureSpans:
    """Every memoized program capture is one ``sched.capture`` span, and
    none nests in another: the perf harness sums them all into
    ``plan.cold_capture_pct``, so a nested span would count twice.

    The shapes here (``n = 20 c``, ``n0 = 12``) are this class's own, so
    its captures run cold without emptying the memos other tests warmed.
    """

    def test_capture_spans_do_not_nest(self, tmp_path):
        from repro.core.cacqr import ca_cqr2
        from repro.core.panels_dist import ca_panel_cqr2
        from repro.plan import Planner, ProblemSpec
        from repro.vmpi.distmatrix import DistMatrix
        from repro.vmpi.grid import Grid3D
        from repro.vmpi.machine import VirtualMachine

        sink = _ListSink()
        obs = Observer(sink)
        with use_observer(obs):
            Planner(refine="symbolic", cache_dir=str(tmp_path)).plan(
                ProblemSpec(m=61440, n=240, procs=512, machine="stampede2"))
            for c, d in ((2, 2), (2, 8), (4, 4)):
                vm = VirtualMachine(c * c * d)
                a = DistMatrix.symbolic(Grid3D.tunable(vm, c, d), 64 * d, 20 * c)
                ca_cqr2(vm, a)
                ca_panel_cqr2(vm, a, 10 * c)

        by_id = {r["span_id"]: r for r in sink.spans}
        captures = [r for r in sink.spans if r["name"] == "sched.capture"]
        assert any("levels" in r["attrs"] for r in captures)
        for record in captures:
            parent = by_id.get(record["parent_id"])
            while parent is not None:
                assert parent["name"] != "sched.capture"
                parent = by_id.get(parent["parent_id"])

    def test_whole_run_capture_nests_no_span_in_its_own_name(self):
        """A whole-run capture is one ``sched.capture_run`` span around the
        memo captures it triggers, and its report one ``sched.replay``
        span -- the template run's, with its classes."""
        from repro.engine.registry import solver_for
        from repro.engine.spec import MatrixSpec, RunSpec
        from tests.oracles.capture import capture_run

        spec = solver_for("ca_cqr2").prepare(RunSpec(
            algorithm="ca_cqr2", matrix=MatrixSpec(1024, 52), c=2, d=8,
            mode="symbolic"))
        sink = _ListSink()
        with use_observer(Observer(sink)):
            capture_run(spec)
        by_id = {r["span_id"]: r for r in sink.spans}
        names = [r["name"] for r in sink.spans]
        assert names.count("sched.capture_run") == 1
        assert "sched.capture" in names          # these shapes capture cold
        (replay,) = [r for r in sink.spans if r["name"] == "sched.replay"]
        assert replay["attrs"]["classes"] >= 1
        for record in sink.spans:
            parent = by_id.get(record["parent_id"])
            while parent is not None:
                assert parent["name"] != record["name"]
                parent = by_id.get(parent["parent_id"])

    def test_pass_capture_reports_the_cfr3d_levels_it_recorded(self):
        """CFR3D's levels are memoized per (c, n, n0), apart from the row
        count: a second row count records none, a doubled n one more."""
        from repro.core.cacqr import _subcube_pass_program
        from repro.core.cfr3d import _cfr3d_program

        _cfr3d_program.cache_clear()
        sink = _ListSink()
        with use_observer(Observer(sink)):
            _subcube_pass_program(4, 192, 1024, 12)   # n/n0 = 16: 5 levels
            _subcube_pass_program(4, 192, 2048, 12)
            _subcube_pass_program(4, 384, 1024, 12)
        assert [r["attrs"]["levels"] for r in sink.spans
                if r["name"] == "sched.capture"] == [5, 0, 1]


# -- study spans --------------------------------------------------------------------


class TestStudySpans:
    def test_stream_emits_root_and_point_spans(self):
        from repro.study import Axis, RawField, Study

        sink = _ListSink()
        study = Study(
            name="obs-probe",
            axes=(Axis("x", (1, 2, 3)),),
            metrics=(RawField("y"),),
            evaluate=lambda pt: {"y": pt["x"] * 2})
        with use_observer(Observer(sink)):
            rows = list(study.stream())
        assert [r.values["y"] for r in rows] == [2, 4, 6]
        roots = [r for r in sink.spans if r["name"] == "study"]
        points = [r for r in sink.spans if r["name"] == "study.point"]
        assert len(roots) == 1 and len(points) == 3
        assert roots[0]["attrs"]["points"] == 3
        assert roots[0]["attrs"]["executed"] == 3
        for record in points:
            assert record["parent_id"] == roots[0]["span_id"]
            assert record["attrs"]["source"] == "evaluate"
            assert record["attrs"]["worker"]
            assert record["attrs"]["ok"] is True

    def test_resumed_points_attributed_separately(self, tmp_path):
        from repro.study import Axis, RawField, Study

        def make():
            return Study(
                name="obs-resume",
                axes=(Axis("x", (1, 2)),),
                metrics=(RawField("y"),),
                evaluate=lambda pt: {"y": pt["x"]})

        path = str(tmp_path / "rows.jsonl")
        make().run(jsonl_path=path)
        sink = _ListSink()
        with use_observer(Observer(sink)):
            make().run(jsonl_path=path)
        root = next(r for r in sink.spans if r["name"] == "study")
        assert root["attrs"]["resumed"] == 2
        assert root["attrs"]["executed"] == 0
        sources = [r["attrs"]["source"] for r in sink.spans
                   if r["name"] == "study.point"]
        assert sources == ["resume", "resume"]


class TestProgressInfo:
    def test_single_arg_callback_gets_rate_and_eta(self):
        from repro.study import Axis, RawField, Study

        seen = []
        study = Study(
            name="progress-probe",
            axes=(Axis("x", (1, 2, 3, 4)),),
            metrics=(RawField("y"),),
            evaluate=lambda pt: {"y": pt["x"]})
        list(study.stream(progress=seen.append))
        assert [p.done for p in seen] == [1, 2, 3, 4]
        assert all(p.total == 4 and p.fresh for p in seen)
        assert all(p.rate is not None and p.rate > 0 for p in seen)
        assert all(p.eta_seconds is not None and p.eta_seconds >= 0
                   for p in seen[:-1])
        assert seen[-1].eta_seconds is None    # nothing left to estimate

    def test_resumed_rows_do_not_inflate_rate(self, tmp_path):
        from repro.study import Axis, RawField, Study

        def make():
            return Study(
                name="progress-resume",
                axes=(Axis("x", (1, 2, 3)),),
                metrics=(RawField("y"),),
                evaluate=lambda pt: {"y": pt["x"]})

        path = str(tmp_path / "rows.jsonl")
        make().run(jsonl_path=path)
        seen = []
        make().run(jsonl_path=path, progress=seen.append)
        # Every row replays from the file: no executed rows, no rate.
        assert all(not p.fresh for p in seen)
        assert all(p.rate is None and p.eta_seconds is None for p in seen)
