"""Parent side of ``run``: spawn each workload child, time its set-up, report.

The parent imports nothing but the standard library, so the children's
set-up time (spawn to ready: interpreter start, imports, input
generation, warm-up, and for ``serve`` the server start and prewarm)
is measured from outside.  Each run sets up ``SETUP_RUNS`` times and
reports the median; with ``--trace 1`` it runs the workload once
untraced and once traced and reports the per-layer split.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

from .speed import REFERENCE_SECONDS, probe
from .stats import percentile, tail_percentile
from .trace import BUCKETS

WORKLOAD_NAMES = ("factor", "simulate", "plan", "serve")
#: Workload time budget per run; each design takes about this long here.
DEFAULT_SECONDS = 15
#: Operations not started within this many budgets count as failed, so a
#: slow machine fails loudly instead of overrunning the run's time cap.
DEADLINE_FACTOR = 4
#: A whole run (all its children) must end within this many seconds.
RUN_BUDGET_S = 170
SETUP_RUNS = 3
#: BLAS pinned to one thread: the numbers measure the program, not the
#: scheduler of a small box.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s",
              "p50_s": "s", "tail_s": "s"}

SPAN_NAMES = ("bench.op", "plan", "plan.cache", "plan.enumerate",
              "plan.screen", "plan.refine", "plan_many", "plan_many.cache",
              "plan_many.screen", "plan_many.refine", "plan_many.capture",
              "plan_many.replay", "sched.capture", "sched.specialize",
              "sched.replay", "serve.request")
COUNTS = {
    "plan.candidates": "count", "plan.refined": "count",
    "program_memo.hits": "count", "program_memo.misses": "count",
    "cache.plan.hits": "count", "cache.plan.misses": "count",
    "cache.plan.stores": "count", "cache.plan.invalid": "count",
    "lattice.programs_captured": "count", "lattice.programs_replayed": "count",
    "lattice.screen_reuse": "ratio", "lattice.refine_dedup": "ratio",
    "serve.served_cache": "count", "serve.served_computed": "count",
    "serve.lru_evictions": "count", "serve.response_bytes_mean": "bytes",
    "serve.http_overhead_pct": "%",
    "vmpi.messages": "count", "vmpi.words": "count", "vmpi.flops": "count",
    "vmpi.model_time": "sim_s",
    "factor.orth_max": "rel", "factor.residual_max": "rel",
    "factor.numpy_qr_ratio": "ratio", "plan.cold_capture_pct": "%",
}
PER_LAYER: Dict[str, str] = {
    **{f"{bucket}.self_pct": "%" for bucket in BUCKETS},
    **{f"span.{name}.self_pct": "%" for name in SPAN_NAMES},
    **{f"span.{name}.count": "count" for name in SPAN_NAMES},
    **COUNTS,
    "traced_wall_s": "s",
    "trace_overhead": "ratio",
}


class HarnessError(RuntimeError):
    """A run could not complete; no result is printed."""


def repo_root() -> str:
    """The checkout holding ``benchmarks/perf`` (and, normally, ``src``)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(here))


def scratch_dir(prefix: str) -> str:
    """A fresh directory under ``.perf-out/tmp`` in the checkout."""
    base = os.path.join(repo_root(), ".perf-out", "tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=base)


def child_env() -> Dict[str, str]:
    """Environment of every child: ``src`` importable, no ``REPRO_*``, BLAS pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [os.path.join(repo_root(), "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    env.update(BLAS_THREADS)
    return env


def _llc_bytes() -> Optional[int]:
    """Size of the largest CPU cache, from sysfs (``None`` when unreadable)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = []
    try:
        for index in os.listdir(base):
            with open(os.path.join(base, index, "size")) as fh:
                text = fh.read().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
            sizes.append(int(text.rstrip("KM")) * scale)
    except (OSError, ValueError):
        return None
    return max(sizes, default=None)


def _version(package: str) -> Optional[str]:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit(root: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    """What a run's numbers depend on besides the code."""
    return {"commit": _git_commit(repo_root()), "seed": seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "llc_bytes": _llc_bytes(), "blas_threads": BLAS_THREADS,
            "machine": platform.machine()}


def allowed_cpus() -> List[int]:
    """The CPUs this process may run on (empty where affinity is unsupported)."""
    if not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def pin_to_fastest_cpu(cpus: List[int]) -> None:
    """Keep this process and its children, the serve child too, on one CPU.

    The core-speed probes (:mod:`.speed`) then read the core the measured
    code runs on: the vCPUs of a shared box change speed independently.
    Of *cpus* it takes the one that probes fastest right now (``run``
    calls it before each spawn), so less of the run needs normalizing.
    """
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(probe() for _ in range(5))
    if speeds:
        os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


def spawn_child(config: dict, deadline: float) -> dict:
    """Run one workload child; return its result plus its set-up time.

    The child prints ``@perf ready`` when set up and ``@perf result
    <json>`` at the end; anything else it prints goes to stderr.  The
    set-up time is normalized by core-speed probes taken just before the
    spawn and just after ``ready`` (``setup_raw_s`` keeps the measured one).
    """
    before = probe()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.perf", "_child", json.dumps(config)],
        cwd=repo_root(), env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0),
                               proc.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("@perf ready"):
                setup_s = time.perf_counter() - start
                after = probe()
            elif line.startswith("@perf result "):
                result = json.loads(line[len("@perf result "):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None:
        raise HarnessError(f"{config['workload']} child exited with "
                           f"{proc.returncode}")
    if result is None and not config["setup_only"]:
        raise HarnessError(f"{config['workload']} child printed no result")
    return dict(result or {}, setup_raw_s=setup_s,
                setup_s=setup_s * REFERENCE_SECONDS / (0.5 * (before + after)))


def _headline(result: dict, latencies: Dict[str, List[float]]) -> List[float]:
    """The latencies of the workload's headline kinds, pooled."""
    return [x for kind in result["headline"] for x in latencies[kind]]


def end_to_end(result: dict, setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics of one measured child and its set-up times."""
    latencies = _headline(result, result["latencies"])
    return {"setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "wall_s": result["wall_s"],
            "p50_s": percentile(latencies, 500),
            "tail_s": tail_percentile(latencies)[1]}


def details(result: dict, children: List[dict]) -> dict:
    """What the metrics were read from, including the measured raw times."""
    latencies = _headline(result, result["latencies"])
    raw = _headline(result, result["raw"]["latencies"])
    return {"samples": len(latencies),
            "tail_percentile": tail_percentile(latencies)[0] / 10,
            "setups_s": [child["setup_s"] for child in children],
            "latencies_s": result["latencies"],
            "raw": {"setup_s": statistics.median(c["setup_raw_s"]
                                                 for c in children),
                    "wall_s": result["raw"]["wall_s"],
                    "p50_s": percentile(raw, 500),
                    "tail_s": tail_percentile(raw)[1]},
            "failures": result["failures"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_dir: str, cpus: List[int]) -> dict:
    """One run of one workload: ``{"result": ..., "details": ...}``."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    config = {"workload": name, "seed": seed, "traced": False,
              "setup_only": False, "deadline_s": DEADLINE_FACTOR * seconds,
              "trace_dir": None}

    def spawn(**changes) -> dict:
        pin_to_fastest_cpu(cpus)
        return spawn_child(dict(config, **changes), deadline)

    if trace:
        plain = spawn()
        result = spawn(traced=True, trace_dir=trace_dir)
        children = [result]
        layers = dict(result["layers"],
                      trace_overhead=result["wall_s"] / plain["wall_s"])
        metrics = {key: layers[key] for key in PER_LAYER}
    else:
        children = [spawn(setup_only=True) for _ in range(SETUP_RUNS - 1)]
        result = spawn()
        children.append(result)
        metrics = end_to_end(result, [c["setup_s"] for c in children])
    units = PER_LAYER if trace else END_TO_END
    return {
        "result": {"correct": result["failed"] == 0,
                   "attempted": result["attempted"],
                   "failed": result["failed"],
                   "metrics": {key: {"value": value, "unit": units[key]}
                               for key, value in metrics.items()}},
        "details": details(result, children),
    }


def write_run(out_dir: str, name: str, seconds: float, trace: bool,
              env: dict, run: dict) -> str:
    """Persist one run for ``compare``; return the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-seed{env['seed']}-trace{int(trace)}-"
                                 f"{time.time_ns()}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "seconds": seconds, "trace": trace,
                   "env": env, **run}, fh, indent=1, sort_keys=True)
    return path


def summary(name: str, run: dict) -> str:
    result, info = run["result"], run["details"]
    lines = [f"[perf] {name}: {result['attempted']} ops, {result['failed']} "
             f"failed, tail = p{info['tail_percentile']:g} of "
             f"{info['samples']} samples"]
    for key, metric in result["metrics"].items():
        lines.append(f"[perf]   {key:<32} {metric['value']:.6g} {metric['unit']}")
    return "\n".join(lines)


def main_run(workloads, seed: int, seconds: float, trace: bool,
             out_dir: Optional[str]) -> int:
    root = repo_root()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {root}/src/repro is missing",
              file=sys.stderr)
        return 2
    env = environment(seed)
    cpus = allowed_cpus()
    out_dir = out_dir or os.path.join(root, ".perf-out", "runs")
    for name in workloads:
        trace_dir = os.path.join(root, ".perf-out", "traces",
                                 f"{name}-seed{seed}")
        try:
            run = run_workload(name, seed, seconds, trace, trace_dir, cpus)
        except HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = write_run(out_dir, name, seconds, trace, env, run)
        print(summary(name, run) + f"\n[perf]   run written to {path}",
              file=sys.stderr)
        line = run["result"] if len(workloads) == 1 else {
            "workload": name, **run["result"]}
        print(json.dumps(line), flush=True)
    return 0
