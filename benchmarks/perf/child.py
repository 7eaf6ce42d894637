"""Child-process side: one workload run, and the ``PlanServer`` child.

A workload child sets up, prints ``@perf ready``, runs the workload's
operations and prints ``@perf result <json>``.  Traced, it also records
spans into memory, samples the stack, and writes the spans out as JSONL
and a Chrome trace once the run ends.

The server child (``serve`` workload only) runs a ``PlanServer`` and
obeys one-line commands on stdin: ``start`` opens the measured window,
``stop`` closes it and answers with a report (peak memory and, traced,
the server's spans and layer times), ``quit`` shuts down.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.obs import ChromeTraceSink, JsonlSink, Observer, get_registry

from .harness import COUNTS, SPAN_NAMES
from .speed import SpeedLog, SpeedSampler
from .stats import percentile
from .trace import (
    BUCKETS,
    SpanBuffer,
    StackSampler,
    attribute,
    repro_dir,
    root_of,
    span_self_times,
)
from .workloads import SERVE_WORKERS, WORKLOADS, Recorder, fresh_session, peak_rss_mb

#: Interpreter switch interval while sampling: a busy thread yields the
#: lock this often, so the 1 ms sampler actually runs every millisecond.
SAMPLE_SWITCH_INTERVAL = 0.001


def announce(message: str) -> None:
    print(f"@perf {message}", flush=True)


@contextlib.contextmanager
def sampling(select):
    """Sample the selected threads for the duration of the block."""
    sampler = StackSampler(select, repro_dir())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(SAMPLE_SWITCH_INTERVAL)
    sampler.start()
    try:
        yield sampler
    finally:
        sampler.stop()
        sys.setswitchinterval(interval)


def cold_capture_pct(records: List[dict]) -> float:
    """Share of cold-question time spent inside ``sched.capture`` spans."""
    roots = root_of(records)
    cold = {r["span_id"]: r["duration"] for r in records
            if r["name"] == "bench.op" and r["attrs"].get("kind") == "cold"}
    total = sum(cold.values())
    if not total:
        return 0.0
    capture = sum(r["duration"] for r in records if r["name"] == "sched.capture"
                  and roots[r["span_id"]]["span_id"] in cold)
    return 100.0 * capture / total


def http_overhead_pct(rec: Recorder, server_records: List[dict]) -> float:
    """How much of the client's median ``/plan`` latency the server never saw."""
    client = [x for values in rec.latencies.values() for x in values
              if x != rec.failed_latency]
    server = [r["duration"] for r in server_records
              if r["name"] == "serve.request"
              and r["attrs"].get("endpoint") == "plan"]
    if not client or not server:
        return 0.0
    client_p50 = percentile(client, 500)
    return 100.0 * (client_p50 - percentile(server, 500)) / client_p50


def layer_metrics(workload, rec: Recorder, wall: float,
                  sampler: Optional[StackSampler],
                  records: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from measured (not normalized) times.

    All but ``trace_overhead``, which the parent adds, and
    ``traced_wall_s``, which :func:`measure` sets.
    """
    spans = span_self_times(records)
    if sampler is not None:
        layer_seconds = attribute(sampler.samples, rec.all_windows())
        window = wall
    else:
        # The serve client idles on sockets: layers are the server's.
        report = workload.report
        layer_seconds, window = report["layer_seconds"], report["window_s"]
        for name, (seconds, count) in span_self_times(report["spans"]).items():
            mine = spans.get(name, (0.0, 0))
            spans[name] = (mine[0] + seconds, mine[1] + count)
    out = {f"{bucket}.self_pct": 100.0 * layer_seconds.get(bucket, 0.0) / window
           for bucket in BUCKETS}
    for name in SPAN_NAMES:
        seconds, count = spans.get(name, (0.0, 0))
        out[f"span.{name}.self_pct"] = 100.0 * seconds / wall
        out[f"span.{name}.count"] = count
    out.update({name: rec.counts.get(name, 0.0) for name in COUNTS})
    out["factor.numpy_qr_ratio"] = (
        rec.counts.get("factor.numpy_qr_seconds", 0.0) / wall)
    out["plan.cold_capture_pct"] = cold_capture_pct(records)
    if sampler is None:
        out["serve.http_overhead_pct"] = http_overhead_pct(
            rec, workload.report["spans"])
    return out


def measure(workload, buffer: Optional[SpanBuffer], deadline_s: float) -> dict:
    """Run the workload's operations once; traced when *buffer* is given.

    Times in the result are normalized to the reference host speed
    (:mod:`.speed`); the measured ones are kept under ``raw``.
    """
    obs = Observer(buffer) if buffer is not None else None
    rec = Recorder(obs=obs, deadline=time.perf_counter() + deadline_s,
                   registry=get_registry() if workload.in_process else None,
                   failed_latency=deadline_s)
    speed = SpeedLog()
    sampler = None
    with contextlib.ExitStack() as stack:
        if workload.in_process:
            stack.enter_context(SpeedSampler(speed))
            if obs is not None:
                main = threading.get_ident()
                sampler = stack.enter_context(
                    sampling(lambda ident: ident == main))
        raw_wall = workload.run(rec)
    if workload.in_process:
        wall = sum((end - start) * speed.factor(start, end)
                   for start, end in rec.all_windows())
    else:
        # The serve client only waits; the server child probed the core.
        speed = SpeedLog(workload.report["speed"])
        wall = raw_wall * speed.factor(-math.inf, math.inf)
    result = {"attempted": rec.attempted, "failed": rec.failed, "wall_s": wall,
              "headline": workload.kinds,
              "latencies": {kind: rec.normalized(kind, speed)
                            for kind in rec.latencies},
              "raw": {"wall_s": raw_wall, "latencies": rec.latencies},
              "failures": rec.failures, "peak_rss_mb": workload.peak_rss_mb()}
    if obs is not None:
        result["layers"] = layer_metrics(workload, rec, raw_wall, sampler,
                                         buffer.snapshot())
        result["layers"]["traced_wall_s"] = wall
    return result


def write_spans(trace_dir: str, prefix: str, records: List[dict]) -> None:
    """Write span records as JSONL plus a Chrome trace."""
    os.makedirs(trace_dir, exist_ok=True)
    chrome = ChromeTraceSink(os.path.join(trace_dir, f"{prefix}chrome.json"))
    with open(os.path.join(trace_dir, f"{prefix}spans.jsonl"), "w") as fh:
        jsonl = JsonlSink(fh)
        for record in records:
            jsonl.on_span(record)
            chrome.on_span(record)
        jsonl.close()
    chrome.close()


def child_main(config: dict) -> int:
    buffer = SpanBuffer() if config["traced"] else None
    # "counts" (operation counts) is set by the self-tests only.
    workload = WORKLOADS[config["workload"]](config["seed"],
                                             traced=config["traced"],
                                             **config.get("counts", {}))
    try:
        workload.setup()
        announce("ready")
        if config["setup_only"]:
            return 0
        result = measure(workload, buffer, config["deadline_s"])
    finally:
        workload.close()
    if buffer is not None and config["trace_dir"]:
        write_spans(config["trace_dir"], "", buffer.snapshot())
        if not workload.in_process:
            write_spans(config["trace_dir"], "server-", workload.report["spans"])
    announce("result " + json.dumps(result))
    return 0


def serve_main(config: dict) -> int:
    from repro.serve import PlanServer

    buffer = SpanBuffer() if config["traced"] else None
    server = PlanServer(fresh_session(config["cache_dir"]),
                        workers=SERVE_WORKERS,
                        obs=Observer(buffer) if buffer is not None else None)
    server.start_background()
    main = threading.get_ident()
    window = contextlib.ExitStack()
    sampler = None
    speed = SpeedLog()
    start = time.perf_counter()
    try:
        announce(f"port {server.port}")
        for line in sys.stdin:
            command = line.strip()
            if command == "start":
                speed = SpeedLog()
                prober = window.enter_context(SpeedSampler(speed))
                if buffer is not None:
                    buffer.clear()
                    skip = {main, prober.ident}
                    sampler = window.enter_context(
                        sampling(lambda ident: ident not in skip))
                start = time.perf_counter()
                announce("started")
            elif command == "stop":
                end = time.perf_counter()
                window.close()
                report = {"peak_rss_mb": peak_rss_mb(), "window_s": end - start,
                          "speed": speed.samples()}
                if sampler is not None:
                    report["layer_seconds"] = attribute(sampler.samples,
                                                        [(start, end)])
                    report["spans"] = buffer.snapshot()
                announce("stopped " + json.dumps(report))
            elif command == "quit":
                break
    finally:
        window.close()
        server.stop()
    return 0
