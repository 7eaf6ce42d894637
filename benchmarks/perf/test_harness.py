"""Fast self-tests of the benchmark harness (collected by the tier-1 run)."""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from .compare import verdict
from .harness import END_TO_END, PER_LAYER, end_to_end, repo_root, spawn_child
from .stats import beta_cdf, percentile, tail_percentile
from .trace import (
    StackSampler,
    attribute,
    is_idle,
    layer_of,
    span_self_times,
)
from .workloads import (
    Recorder,
    check_factorization,
    critical_path_matches,
    fresh_session,
    served_matches,
)


def test_percentile_rule_and_refusal():
    samples = list(range(1, 41))
    assert percentile(samples, 500) == pytest.approx(20.5)    # symmetric
    assert percentile([7.0] * 5, 990) == pytest.approx(7.0)
    assert tail_percentile(samples) == (750, pytest.approx(30.5, abs=0.1))
    assert tail_percentile(list(range(2000)))[0] == 990
    assert tail_percentile(list(range(240)))[0] == 950
    assert tail_percentile(list(range(20)))[0] == 500
    with pytest.raises(ValueError):
        tail_percentile(list(range(19)))                # only 9 beyond p50
    # Harrell-Davis weights agree with the closed form I_x(1, b) = 1-(1-x)^b.
    assert beta_cdf(0.3, 1.0, 4.0) == pytest.approx(1 - 0.7 ** 4, rel=1e-12)


def _span(span_id, parent_id, start, end, name="s"):
    return {"name": name, "span_id": span_id, "parent_id": parent_id,
            "start": start, "end": end, "duration": end - start, "attrs": {}}


def test_span_self_time_subtracts_the_union_of_children():
    records = [_span(1, None, 0.0, 10.0, "root"),
               _span(2, 1, 1.0, 4.0, "a"),
               _span(3, 1, 3.0, 6.0, "b"),       # overlaps a (another thread)
               _span(4, 2, 2.0, 3.0, "leaf"),
               _span(5, 1, 9.0, 12.0, "b")]      # clipped to the parent
    times = span_self_times(records)
    assert times["root"] == (pytest.approx(4.0), 1)
    assert times["a"] == (pytest.approx(2.0), 1)
    assert times["b"] == (pytest.approx(6.0), 2)
    assert times["leaf"] == (pytest.approx(1.0), 1)


def _frame(path, name="f", back=None):
    return SimpleNamespace(f_code=SimpleNamespace(co_filename=path, co_name=name),
                           f_back=back)


def test_sampler_attributes_the_innermost_repro_frame():
    root = os.path.join(os.sep, "x", "src", "repro")
    harness = _frame("/x/benchmarks/perf/workloads.py")
    session = _frame(os.path.join(root, "session.py"), back=harness)
    vmpi = _frame(os.path.join(root, "vmpi", "machine.py"), back=session)
    numpy_frame = _frame("/site-packages/numpy/core/fromnumeric.py", back=vmpi)
    assert layer_of(numpy_frame, root) == "vmpi"
    assert layer_of(session, root) == "repro"
    assert layer_of(_frame(os.path.join(root, "study", "study.py")), root) == "repro"
    assert layer_of(harness, root) == "other"
    assert is_idle(_frame("/usr/lib/python3/selectors.py", "select"))
    assert not is_idle(vmpi)

    samples = [(0.0, ()), (1.0, ("vmpi",)), (2.0, ("vmpi", "plan")),
               (3.0, ()), (4.0, ("core",))]
    shares = attribute(samples, [(0.5, 2.5), (3.0, 4.0)])
    assert shares == pytest.approx({"vmpi": 1.0, "plan": 0.5, "idle": 0.5,
                                    "core": 1.0})
    assert sum(shares.values()) == pytest.approx(3.0)


def test_live_sampler_covers_the_window():
    main = threading.get_ident()
    sampler = StackSampler(lambda ident: ident == main, repo_root())
    sampler.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.03:
        pass
    end = time.perf_counter()
    sampler.stop()
    shares = attribute(sampler.samples, [(start, end)])
    assert sum(shares.values()) == pytest.approx(end - start, rel=1e-9)


def test_failed_checks_count_as_failed_ops():
    rec = Recorder(failed_latency=60.0)
    session = fresh_session()
    a = np.random.default_rng(0).standard_normal((256, 8))
    from repro.engine import RunSpec

    run = session.run(RunSpec(algorithm="ca_cqr2", data=a, c=2, d=4))
    assert check_factorization(a, run)[0]
    run.q[0, 0] += 1e-3                                  # a corrupted Q
    assert rec.op("factor", lambda: run,
                  lambda r: check_factorization(a, r)[0]) is None

    report = SimpleNamespace(critical_path_time=1.0 + 1e-9)
    assert critical_path_matches(SimpleNamespace(critical_path_time=1.0), 1.0)
    rec.op("point", lambda: report, lambda r: critical_path_matches(r, 1.0))

    plans = [{"config": "2x8x2", "seconds": 1.0}, {"config": "1x32x1",
                                                    "seconds": 2.0}]
    served = {"result": {"plans": [dict(plans[0], seconds=1.5)]}}
    assert served_matches({"result": {"plans": plans[:1]}}, plans, 1)
    assert rec.op("pool", lambda: served, lambda _: True, key=7) is served
    assert not served_matches(served, plans, 1)
    rec.invalidate(7, "served plans differ")

    assert (rec.attempted, rec.failed) == (3, 3)
    assert all(x == 60.0 for values in rec.latencies.values() for x in values)


def test_compare_verdicts():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0]
    assert verdict(parent, [1.01, 0.99, 1.0, 1.02, 0.98, 1.0], "lower",
                   0.1)["verdict"] == "unchanged"
    assert verdict(parent, [x * 0.8 for x in parent], "lower",
                   0.1)["verdict"] == "improved"
    assert verdict(parent, [x * 1.3 for x in parent], "lower",
                   0.1)["verdict"] == "regressed"
    noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.2]
    assert verdict(noisy, [1.1, 1.9, 0.6, 1.4, 0.8, 1.0], "lower",
                   0.1)["verdict"] == "unresolved"


def test_benchmark_json_declares_what_the_harness_prints():
    with open(os.path.join(repo_root(), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["factor", "simulate",
                                                      "plan", "serve"]


#: Operation counts small enough for the self-tests, yet with the 20
#: samples the tail percentile needs.
TINY = {"factor": {"ops": 20}, "simulate": {"points": 20},
        "plan": {"cold": 20, "warm_repeats": 1, "lattice_points": 2},
        "serve": {"pool": 3, "requests": 20}}


@pytest.fixture(scope="module")
def tiny_runs():
    """One traced child per workload at tiny counts, all at once."""
    deadline = time.perf_counter() + 120

    def run(name):
        return spawn_child({"workload": name, "seed": 1, "traced": True,
                            "setup_only": False, "deadline_s": 60.0,
                            "trace_dir": None, "counts": TINY[name]}, deadline)

    with ThreadPoolExecutor(len(TINY)) as pool:
        return dict(zip(TINY, pool.map(run, TINY)))


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_emits_every_metric(tiny_runs, name):
    result = tiny_runs[name]
    assert (result["failed"], result["failures"]) == (0, [])
    metrics = end_to_end(result, [result["setup_s"]])
    assert set(metrics) == set(END_TO_END)
    assert all(value > 0 for value in metrics.values())
    layers = result["layers"]
    assert set(layers) | {"trace_overhead"} == set(PER_LAYER)
    shares = sum(value for key, value in layers.items()
                 if key.endswith(".self_pct") and not key.startswith("span."))
    assert shares == pytest.approx(100.0, abs=1.0)
    if name == "serve":
        assert layers["serve.served_computed"] == 1
