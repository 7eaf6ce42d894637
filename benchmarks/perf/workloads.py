"""The four workloads: their inputs, their operations and their checks.

Every input comes from ``numpy.random.default_rng(seed)`` here; the
program only ever sees the generated inputs, through its public entry
points (``Session.run``, ``Session.plan`` / ``plan_many``, ``PlanServer``
over HTTP, ``repro.verify.verify_qr``).  Each design is a fixed,
stratified list, sorted cheapest first so that small op counts (the
self-tests) stay small; the seed draws the matrices, the order of the
operations and the never-seen serve questions.  Keeping the design fixed
keeps runs with different seeds comparable.

A :class:`Recorder` times each operation from outside and checks its
output; an operation that raises or fails its check counts as failed,
with the latency of one that missed every limit.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import MatrixSpec, RunSpec
from repro.obs import get_registry, use_observer
from repro.plan import Objective, ProblemSpec
from repro.plan.problem import problem_from_dict
from repro.session import Session
from repro.verify import verify_qr

from .harness import child_env, repo_root, scratch_dir
from .speed import SpeedLog

#: Relative agreement required between a symbolic critical path or a
#: refined plan time and the batched screen's closed form.
SCREEN_RTOL = 1e-12


def peak_rss_mb() -> float:
    """Peak resident set (VmHWM) of this process, in MB (10**6 bytes)."""
    with contextlib.suppress(OSError), open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def fresh_session(plan_cache: Optional[str] = None) -> Session:
    """A serial session whose only cache is *plan_cache*."""
    return Session(executor="serial", result_cache=None, plan_cache=plan_cache,
                   sched_cache=None)


def plans_json(plans) -> str:
    """Canonical JSON of a ranked plan list (NaN-safe equality)."""
    return json.dumps([p.to_dict() if hasattr(p, "to_dict") else p
                       for p in plans], sort_keys=True)


class Recorder:
    """Time operations from outside, check outputs, count failures.

    ``latencies[kind]`` holds one measured time per attempted operation
    (*failed_latency*, the run's whole budget, for a failed one) and
    ``windows[kind]`` its ``(start, end)``;
    ``counts`` holds the exact counts workloads add.  With *registry*,
    the counters the program records during each operation (never during
    a check) accumulate into ``counts`` too.  Thread-safe.
    """

    def __init__(self, obs=None, deadline: Optional[float] = None,
                 registry=None, failed_latency: float = math.inf):
        self.obs = obs
        self.deadline = deadline
        self.registry = registry
        self.failed_latency = failed_latency
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.windows: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._where: Dict[object, Tuple[str, int]] = {}
        self._lock = threading.Lock()

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
            print(f"[perf] failed op: {message}", file=sys.stderr)

    def op(self, kind: str, fn: Callable[[], object],
           check: Callable[[object], bool], key=None, **attrs):
        """Run ``fn()`` timed; return its output, or ``None`` if it failed."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            now = time.perf_counter()
            with self._lock:
                self.attempted += 1
                self.latencies[kind].append(self.failed_latency)
                self.windows[kind].append((now, now))
                self._fail(f"{kind}: not started before the run's deadline")
            return None
        before = self.registry.counters() if self.registry is not None else None
        error = None
        start = time.perf_counter()
        try:
            if self.obs is None:
                out = fn()
            else:
                with use_observer(self.obs), \
                        self.obs.span("bench.op", kind=kind, **attrs):
                    out = fn()
        except Exception as exc:    # noqa: BLE001 - any raise fails the op
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if before is not None:
            for name, value in self.registry.counters().items():
                if value != before.get(name, 0):
                    self.counts[name] += value - before.get(name, 0)
        if error is None:
            try:
                ok = bool(check(out))
                if not ok:
                    error = "output check failed"
            except Exception as exc:    # noqa: BLE001 - a raising check fails
                error = f"check raised {type(exc).__name__}: {exc}"
        with self._lock:
            self.attempted += 1
            self.windows[kind].append((start, end))
            self.latencies[kind].append(end - start if error is None
                                        else self.failed_latency)
            if key is not None:
                self._where[key] = (kind, len(self.latencies[kind]) - 1)
            if error is not None:
                self._fail(f"{kind} {attrs or ''}: {error}")
        return out if error is None else None

    def invalidate(self, key, message: str) -> None:
        """Fail an operation after the fact (a check that ran later)."""
        with self._lock:
            kind, index = self._where[key]
            if self.latencies[kind][index] != self.failed_latency:
                self.latencies[kind][index] = self.failed_latency
                self._fail(f"{kind} #{key}: {message}")

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def all_windows(self) -> List[Tuple[float, float]]:
        return sorted(w for windows in self.windows.values() for w in windows)

    def busy_seconds(self) -> float:
        """Total time spent inside timed calls."""
        return sum(end - start for start, end in self.all_windows())

    def normalized(self, kind: str, speed: SpeedLog) -> List[float]:
        """``latencies[kind]`` scaled to the reference host speed."""
        return [latency * speed.factor(start, end)
                for latency, (start, end) in zip(self.latencies[kind],
                                                 self.windows[kind])]


# -- factor ----------------------------------------------------------------------

#: (m, n) pairs with m*n <= 2**21, so one input is at most 16 MiB.
FACTOR_SHAPES = ((4096, 32), (4096, 64), (8192, 32), (4096, 128), (8192, 64),
                 (16384, 32), (4096, 256), (8192, 128), (16384, 64),
                 (32768, 32), (8192, 256), (16384, 128), (32768, 64),
                 (65536, 32))
#: (c, d) grids with P = c*c*d <= 128.
FACTOR_GRIDS = ((1, 4), (2, 2), (1, 16), (2, 8), (4, 4), (1, 64), (2, 16),
                (4, 8), (2, 32))
FACTOR_CONDITIONS = (1.0, 1e3, 1e6)
FACTOR_OPS = 40


def factor_design(ops: int = FACTOR_OPS):
    """``(m, n, kappa, c, d)`` per operation, cheapest first."""
    shapes = itertools.islice(itertools.cycle(FACTOR_SHAPES), FACTOR_OPS)
    design = [(m, n, FACTOR_CONDITIONS[i % 3], *FACTOR_GRIDS[i % len(FACTOR_GRIDS)])
              for i, (m, n) in enumerate(shapes)]
    design.sort(key=lambda op: (op[3], op[1], op[4], op[0]))    # c, n, d, m
    return design[:ops]


def conditioned_matrix(rng: np.random.Generator, m: int, n: int,
                       kappa: float) -> np.ndarray:
    """A Gaussian ``m x n`` matrix with singular values spread over ``kappa``."""
    a = rng.standard_normal((m, n))
    if kappa > 1.0:
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (a * np.geomspace(1.0, 1.0 / kappa, n)) @ v.T
    return a


def check_factorization(a: np.ndarray, run) -> Tuple[bool, float, float]:
    """``(passed, orthogonality, residual)`` of ``verify_qr`` at its defaults."""
    verdict = verify_qr(a, run.q, run.r)
    return (verdict.passed, verdict.orthogonality_error,
            verdict.reconstruction_error)


def add_report_counts(rec: Recorder, report) -> None:
    """The paper's costs of one run: per-rank maxima and the critical path."""
    rec.add("vmpi.messages", report.max_cost.messages)
    rec.add("vmpi.words", report.max_cost.words)
    rec.add("vmpi.flops", report.max_cost.flops)
    rec.add("vmpi.model_time", report.critical_path_time)


class FactorWorkload:
    """Numeric CA-CQR2 factorizations of conditioned matrices, each verified."""

    name = "factor"
    kinds = ("factor",)
    in_process = True

    def __init__(self, seed: int, ops: int = FACTOR_OPS, traced: bool = False):
        self.rng = np.random.default_rng(seed)
        self.design = factor_design(ops)
        self.order = self.rng.permutation(len(self.design))
        self.traced = traced
        self.session = fresh_session()

    def setup(self) -> None:
        a = conditioned_matrix(np.random.default_rng(0), 256, 8, 10.0)
        run = self.session.run(RunSpec(algorithm="ca_cqr2", data=a, c=2, d=4))
        check_factorization(a, run)

    def run(self, rec: Recorder) -> float:
        numpy_seconds = 0.0
        for index in self.order:
            m, n, kappa, c, d = self.design[index]
            # Inputs are drawn just before use so only one lives at a time.
            a = conditioned_matrix(self.rng, m, n, kappa)
            spec = RunSpec(algorithm="ca_cqr2", data=a, c=c, d=d)

            def check(run, a=a):
                passed, orth, residual = check_factorization(a, run)
                add_report_counts(rec, run.report)
                rec.peak("factor.orth_max", orth)
                rec.peak("factor.residual_max", residual)
                return passed

            rec.op("factor", lambda spec=spec: self.session.run(spec), check,
                   m=m, n=n, c=c, d=d, kappa=kappa)
            if self.traced:
                start = time.perf_counter()
                np.linalg.qr(a)
                numpy_seconds += time.perf_counter() - start
        rec.add("factor.numpy_qr_seconds", numpy_seconds)
        return rec.busy_seconds()

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


# -- simulate --------------------------------------------------------------------

#: Symbolic CA-CQR2 points (m, n, c, d), p = c*c*d from 2**8 to 2**20.  No
#: two points share a grid extent c and a width n, so none reuses a
#: compiled subcube or merge program of another: the pass stays cold
#: whatever the order.
SIMULATE_LADDER = (
    (4096, 32, 1, 256), (8192, 48, 1, 256), (8192, 64, 2, 64),
    (16384, 96, 2, 64), (4096, 112, 2, 64), (65536, 288, 2, 64),
    (16384, 128, 4, 16), (8192, 144, 4, 16), (32768, 160, 4, 16),
    (16384, 80, 1, 1024), (32768, 48, 2, 256), (32768, 160, 2, 256),
    (16384, 224, 2, 256), (65536, 96, 4, 64), (65536, 192, 4, 64),
    (65536, 208, 4, 64), (32768, 320, 4, 64), (131072, 128, 8, 16),
    (65536, 112, 1, 4096), (131072, 192, 2, 1024), (131072, 320, 2, 1024),
    (262144, 224, 4, 256), (131072, 240, 4, 256), (65536, 384, 8, 64),
    (65536, 512, 8, 64), (32768, 288, 16, 16),
    (131072, 352, 2, 4096), (262144, 256, 4, 1024), (524288, 176, 4, 1024),
    (262144, 192, 8, 256), (131072, 272, 8, 256), (131072, 640, 8, 256),
    (65536, 768, 16, 64),
    (524288, 416, 4, 4096), (131072, 448, 4, 4096), (1048576, 320, 8, 1024),
    (524288, 256, 8, 1024), (262144, 512, 16, 256),
    (1048576, 256, 16, 1024),
    (262144, 1024, 16, 4096),
)
SIMULATE_MACHINE = "stampede2"


def simulate_ladder(points: int = len(SIMULATE_LADDER)):
    """The first *points* ladder entries, smallest ``p`` first."""
    ladder = sorted(SIMULATE_LADDER, key=lambda pt: (pt[2] ** 2 * pt[3], pt))
    return ladder[:points]


def screened_point(session: Session, m: int, n: int, c: int, d: int):
    """``(base_case_size, seconds)`` the batched screen gives one grid."""
    result = session.plan(m=m, n=n, procs=c * c * d, machine=SIMULATE_MACHINE,
                          mode="symbolic", algorithms=("ca_cqr2",),
                          inverse_depths=(0,), refine=None)
    for plan in result.plans:
        if plan.spec_fields["c"] == c and plan.spec_fields["d"] == d:
            return plan.spec_fields["base_case_size"], plan.modeled_seconds
    raise ValueError(f"the screen has no ca_cqr2 {c}x{d}x{c} grid for "
                     f"{m}x{n}")


def critical_path_matches(report, expected: float) -> bool:
    """Whether a symbolic critical path equals the screen's closed form."""
    return (abs(report.critical_path_time - expected)
            <= SCREEN_RTOL * abs(expected))


class SimulateWorkload:
    """One cold pass of a symbolic CA-CQR2 ladder, checked against the screen."""

    name = "simulate"
    kinds = ("point",)
    in_process = True

    def __init__(self, seed: int, points: int = len(SIMULATE_LADDER),
                 traced: bool = False):
        self.ladder = simulate_ladder(points)
        self.order = np.random.default_rng(seed).permutation(len(self.ladder))
        self.session = fresh_session()
        self.expected: List[Tuple[int, float]] = []

    def setup(self) -> None:
        self.expected = [screened_point(self.session, *pt) for pt in self.ladder]
        # Warm the code paths on a shape no ladder point shares.
        self.session.run(RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(512, 24),
                                 c=2, d=8, mode="symbolic",
                                 machine=SIMULATE_MACHINE))

    def run(self, rec: Recorder) -> float:
        for index in self.order:
            m, n, c, d = self.ladder[index]
            base_case, expected = self.expected[index]
            spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(m, n), c=c,
                           d=d, base_case_size=base_case, mode="symbolic",
                           machine=SIMULATE_MACHINE)

            def check(run, expected=expected):
                add_report_counts(rec, run.report)
                return critical_path_matches(run.report, expected)

            rec.op("point", lambda spec=spec: self.session.run(spec), check,
                   m=m, n=n, c=c, d=d)
        return rec.busy_seconds()

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


# -- plan ------------------------------------------------------------------------

PLAN_MACHINES = ("stampede2", "blue-waters")
PLAN_OBJECTIVES = ("time", "memory", "time=1,memory=0.2")
#: (P, questions) strata of the cold phase.  Every question has its own
#: n (no n=64, which the lattice uses), so no two share a compiled program.
COLD_STRATA = ((64, 12), (256, 12), (1024, 12), (4096, 4))
COLD_NS = tuple(16 * k for k in range(3, 46) if 16 * k != 64)
COLD_ASPECTS = (32, 128, 512, 2048)
WARM_REPEATS = 5
#: The crossover campaign of ``benchmarks/bench_plan_lattice.py``.
LATTICE_OBJECTIVES = (
    "time", "memory", "messages",
    "time=1,memory=0.02", "time=1,memory=0.05", "time=1,memory=0.1",
    "time=1,memory=0.2", "time=1,memory=0.5",
    "time=1,messages=0.001", "time=1,memory=0.1,messages=0.0005",
)
LATTICE_SAMPLES = 4


def cold_questions(count: int = sum(k for _, k in COLD_STRATA)) -> List[dict]:
    """Distinct planning questions, smallest ``P`` first."""
    out = []
    for procs, k in COLD_STRATA:
        for _ in range(k):
            i = len(out)
            n = COLD_NS[i]
            out.append({"m": n * COLD_ASPECTS[i % len(COLD_ASPECTS)], "n": n,
                        "procs": procs,
                        "machine": PLAN_MACHINES[i % len(PLAN_MACHINES)],
                        "objective": PLAN_OBJECTIVES[i % len(PLAN_OBJECTIVES)]})
    return out[:count]


def lattice_problems(points: Optional[int] = None) -> List[ProblemSpec]:
    """The 120-point crossover lattice (aspect x P x machine x objective)."""
    problems = [ProblemSpec(m=64 * aspect, n=64, procs=procs, machine=machine,
                            mode="symbolic", top_k=12,
                            objective=Objective.parse(objective))
                for aspect in (4, 16, 64) for procs in (16, 64)
                for machine in PLAN_MACHINES for objective in LATTICE_OBJECTIVES]
    return problems[:points]


def check_plan_result(result) -> bool:
    """Invariants every computed answer must hold.

    The top plan is Pareto-optimal (true for any positively weighted,
    unbudgeted objective), something was refined, and every refined time
    equals its screened closed form.
    """
    if not result.plans or result.refined_count < 1 or not result.plans[0].pareto:
        return False
    return all(abs(p.refined_seconds - p.modeled_seconds)
               <= SCREEN_RTOL * abs(p.modeled_seconds)
               for p in result.plans if p.refined)


class PlanWorkload:
    """In-process planning: cold questions, warm re-asks, a cold lattice.

    Each warm re-ask lands at a random point after its question's cold
    ask, so the warm class spreads over the run instead of timing one
    short stretch of it.
    """

    name = "plan"
    #: The warm class is not among the headline latencies: its 0.2 ms
    #: operations are mostly file system calls, which slow down with the
    #: host far more than the speed probe does (see ``README.md``).
    kinds = ("cold",)
    in_process = True

    def __init__(self, seed: int, cold: int = sum(k for _, k in COLD_STRATA),
                 warm_repeats: int = WARM_REPEATS,
                 lattice_points: Optional[int] = None, traced: bool = False):
        self.rng = np.random.default_rng(seed)
        self.questions = [problem_from_dict(q) for q in cold_questions(cold)]
        order = self.rng.permutation(len(self.questions))
        slots = [(float(k), "cold", int(q)) for k, q in enumerate(order)]
        slots += [(self.rng.uniform(k, len(order)), "warm", int(q))
                  for k, q in enumerate(order) for _ in range(warm_repeats)]
        #: ("cold" | "warm", question index) in the order they run.
        self.schedule = [(kind, q) for _, kind, q in sorted(slots)]
        lattice = lattice_problems(lattice_points)
        self.lattice = [lattice[i] for i in self.rng.permutation(len(lattice))]
        self.lattice_samples = sorted(self.rng.choice(
            len(self.lattice), size=min(LATTICE_SAMPLES, len(self.lattice)),
            replace=False).tolist())
        self.tmp = scratch_dir("plan-")

    def setup(self) -> None:
        toy = ProblemSpec(m=1024, n=8, procs=4)
        warm_dir = os.path.join(self.tmp, "warmup")
        fresh_session(warm_dir).plan(toy)
        fresh_session(warm_dir).plan(toy)
        fresh_session().plan_many([toy, toy.replace(procs=8)])

    def run(self, rec: Recorder) -> float:
        cache = os.path.join(self.tmp, "plans")
        answers: Dict[int, str] = {}

        def cold(result, index):
            answers[index] = plans_json(result.plans)
            self._count(rec, result)
            return not result.from_cache and check_plan_result(result)

        def warm(result, index):
            return (result.from_cache
                    and plans_json(result.plans) == answers.get(index))

        checks = {"cold": cold, "warm": warm}
        for kind, index in self.schedule:
            problem = self.questions[index]
            rec.op(kind, lambda p=problem: fresh_session(cache).plan(p),
                   functools.partial(checks[kind], index=index),
                   procs=problem.procs)
        if self.lattice:
            lattice_cache = os.path.join(self.tmp, "lattice")
            results = rec.op(
                "lattice",
                lambda: fresh_session(lattice_cache).plan_many(self.lattice),
                self._check_lattice, points=len(self.lattice))
            if results is not None:
                gauges = get_registry().gauges("lattice.")
                for name in ("lattice.screen_reuse", "lattice.refine_dedup"):
                    rec.add(name, gauges.get(name, 0.0))
        return rec.busy_seconds()

    @staticmethod
    def _count(rec: Recorder, result) -> None:
        rec.add("plan.candidates", result.num_candidates)
        rec.add("plan.refined", result.refined_count)

    def _check_lattice(self, results) -> bool:
        # The rest of this check runs untimed, after the campaign.
        if len(results) != len(self.lattice):
            return False
        for result in results:
            if result.from_cache or not check_plan_result(result):
                return False
        for i in self.lattice_samples:
            alone = fresh_session().plan(self.lattice[i])
            if plans_json(alone.plans) != plans_json(results[i].plans):
                return False
        return True

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


# -- serve -----------------------------------------------------------------------

SERVE_WORKERS = 2
SERVE_CLIENTS = 2
SERVE_REQUESTS = 2000
SERVE_FRESH_SHARE = 0.05
SERVE_POOL_PROCS = (16, 64, 256)
SERVE_POOL_NS = (96, 160)
SERVE_FRESH_PROCS = 64
SERVE_FRESH_NS = (32, 48, 80, 112)


def pool_questions(count: Optional[int] = None) -> List[dict]:
    """The prewarmed questions, smallest ``P`` first."""
    pool = [{"m": n * 512, "n": n, "procs": procs, "machine": machine,
             "objective": objective}
            for procs in SERVE_POOL_PROCS for n in SERVE_POOL_NS
            for machine in PLAN_MACHINES for objective in PLAN_OBJECTIVES]
    return pool[:count]


def fresh_questions(rng: np.random.Generator, count: int) -> List[dict]:
    """Distinct small-``P`` questions that no pool question matches."""
    seen = set()
    out: List[dict] = []
    while len(out) < count:
        n = int(rng.choice(SERVE_FRESH_NS))
        m = 64 * int(rng.integers(n, 8192))
        if (m, n) in seen:
            continue
        seen.add((m, n))
        out.append({"m": m, "n": n, "procs": SERVE_FRESH_PROCS,
                    "machine": str(rng.choice(PLAN_MACHINES)),
                    "objective": str(rng.choice(PLAN_OBJECTIVES))})
    return out


def served_matches(payload: dict, expected_plans: Sequence[dict],
                   limit: Optional[int]) -> bool:
    """Whether a ``/plan`` response carries the in-process ranking."""
    return (json.dumps(payload["result"]["plans"], sort_keys=True)
            == json.dumps(list(expected_plans)[:limit], sort_keys=True))


def prometheus_counters(text: str) -> Dict[str, float]:
    """``{metric: value}`` of the counter lines of a Prometheus exposition."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            if name.endswith("_total"):
                out[name] = float(value)
    return out


def prometheus_name(name: str) -> str:
    """The exposition name of a dotted registry counter."""
    return "repro_" + "".join(c if c.isalnum() or c == "_" else "_"
                              for c in name) + "_total"


#: Registry counters read from the server around the load.
SERVER_COUNTERS = ("program_memo.hits", "program_memo.misses",
                   "cache.plan.hits", "cache.plan.misses", "cache.plan.stores",
                   "cache.plan.invalid")


class ServeWorkload:
    """A ``PlanServer`` child under a closed loop of keep-alive clients."""

    name = "serve"
    kinds = ("pool", "fresh")
    #: The program runs in the server child; this process only sends load.
    in_process = False

    def __init__(self, seed: int, pool: Optional[int] = None,
                 requests: int = SERVE_REQUESTS, traced: bool = False):
        rng = np.random.default_rng(seed)
        self.traced = traced
        self.pool = pool_questions(pool)
        fresh = fresh_questions(rng, round(requests * SERVE_FRESH_SHARE))
        self.questions = self.pool + fresh
        # (question index, limit) per request, in the order clients send
        # them; half ask for the top plan only, half for the full ranking.
        picks = [int(rng.integers(len(self.pool)))
                 for _ in range(requests - len(fresh))]
        picks += range(len(self.pool), len(self.questions))
        self.requests = [(picks[i], 1 if rng.random() < 0.5 else None)
                         for i in rng.permutation(len(picks))]
        self.tmp = scratch_dir("serve-")
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self.report: dict = {}

    # -- the server child --------------------------------------------------------

    def _command(self, command: str) -> str:
        """Send one line to the server child; return its one-line answer."""
        self.server.stdin.write(command + "\n")
        self.server.stdin.flush()
        return self._read_line()

    def _read_line(self) -> str:
        while True:
            line = self.server.stdout.readline()
            if not line:
                raise RuntimeError("the server child exited early")
            if line.startswith("@perf "):
                return line[len("@perf "):].strip()
            sys.stderr.write(line)

    def setup(self) -> None:
        config = {"cache_dir": os.path.join(self.tmp, "plans"),
                  "traced": self.traced}
        self.server = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.perf", "_serve", json.dumps(config)],
            cwd=repo_root(), env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.port = int(self._read_line().split()[1])
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            for question in self.pool:
                status, _ = self._post(conn, question)
                if status != 200:
                    raise RuntimeError(f"prewarm of {question} answered {status}")
        finally:
            conn.close()

    @staticmethod
    def _post(conn, body: dict) -> Tuple[int, bytes]:
        conn.request("POST", "/plan", body=json.dumps(body).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()

    def _get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request("GET", path)
            return conn.getresponse().read()
        finally:
            conn.close()

    def _server_state(self) -> Tuple[Dict[str, float], int]:
        counters = prometheus_counters(
            self._get("/metrics?format=prometheus").decode())
        evictions = json.loads(self._get("/metrics"))["plan_cache"]["evictions"]
        return counters, evictions

    # -- the load ----------------------------------------------------------------

    def run(self, rec: Recorder) -> float:
        counters_before, evictions_before = self._server_state()
        responses: Dict[int, bytes] = {}
        cursor = itertools.count()

        def client() -> None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            try:
                # Closed loop: each client sends its next request only
                # after the previous reply.
                while True:
                    i = next(cursor)
                    if i >= len(self.requests):
                        return
                    q, limit = self.requests[i]
                    body = dict(self.questions[q])
                    if limit is not None:
                        body["limit"] = limit
                    kind = "pool" if q < len(self.pool) else "fresh"
                    out = rec.op(kind, lambda body=body: self._post(conn, body),
                                 lambda reply: reply[0] == 200, key=i)
                    if out is not None:
                        responses[i] = out[1]
            finally:
                conn.close()

        self._command("start")
        threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        self.report = json.loads(self._command("stop")[len("stopped "):])
        counters_after, evictions_after = self._server_state()
        for name in SERVER_COUNTERS:
            key = prometheus_name(name)
            rec.add(name, counters_after.get(key, 0) - counters_before.get(key, 0))
        rec.add("serve.lru_evictions", evictions_after - evictions_before)
        self._verify(rec, responses)
        return wall

    def _verify(self, rec: Recorder, responses: Dict[int, bytes]) -> None:
        """Compare every response with the in-process answer (untimed)."""
        problems = [problem_from_dict(q) for q in self.questions]
        expected = [[p.to_dict() for p in result.plans]
                    for result in fresh_session().plan_many(problems)]
        sizes = []
        for i, raw in responses.items():
            q, limit = self.requests[i]
            payload = json.loads(raw)
            sizes.append(len(raw))
            rec.add(f"serve.served_{payload['served']}", 1)
            if payload["served"] == "computed":
                rec.add("plan.candidates", payload["result"]["num_candidates"])
                rec.add("plan.refined", payload["result"]["refined_count"])
            if not served_matches(payload, expected[q], limit):
                rec.invalidate(i, "served plans differ from the in-process answer")
        rec.add("serve.response_bytes_mean", sum(sizes) / max(len(sizes), 1))

    def close(self) -> None:
        if self.server is not None:
            with contextlib.suppress(OSError, ValueError):
                self.server.stdin.write("quit\n")
                self.server.stdin.close()
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
        shutil.rmtree(self.tmp, ignore_errors=True)

    def peak_rss_mb(self) -> float:
        return self.report["peak_rss_mb"]


WORKLOADS = {w.name: w for w in (FactorWorkload, SimulateWorkload,
                                 PlanWorkload, ServeWorkload)}
