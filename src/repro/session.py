"""repro.Session: one ambient context behind every surface.

Every subsystem in the repository answers the same serving-style
question -- "given this matrix, this processor budget, and this machine,
what should run and what does it cost?" -- but the engine, the planner,
the study layer, and the CLI each used to re-thread ``machine=``,
``cache_dir=``, parallelism, and objective keywords independently.  A
:class:`Session` carries that context once and propagates it through
every call, the way a real serving client would::

    from repro import Budget, MatrixSpec, Objective, RunSpec, Session

    session = Session(machine="stampede2",
                      result_cache=".repro-cache",
                      plan_cache=".repro-plan-cache",
                      objective=Objective.parse("time=1,memory=0.2"))

    run = session.factor(a, algorithm="auto", procs=256)   # planner-backed
    result = session.plan(m=2**22, n=512, procs=4096)      # ranked plans
    best = session.plan(m=2**22, n=512, procs=4096,
                        objective=Objective.single(
                            "time", budgets=(Budget("memory", 8e6),)))
    table = session.study({"kind": "executed", "m": 2048, "n": 32,
                           "procs": [4, 8, 16]})

The session's context follows the work everywhere: ``algorithm="auto"``
specs resolve through the session's plan cache *and* objective, batch
runs ship a picklable :class:`SessionConfig` into every worker process
(a worker resolving an auto spec sees the same planner the parent
would), and studies stream through the session's result cache and
executor.

A module-level **default session** serves callers that pass none --
:meth:`repro.study.Study.run` and the ``repro`` CLI.  It honors the
``REPRO_CACHE_DIR`` / ``REPRO_PLAN_CACHE_DIR`` environment variables
for its two cache locations.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.costmodel.params import MachineSpec
from repro.engine.result import QRRun
from repro.engine.spec import MatrixSpec, RunSpec, fingerprint
from repro.utils.config import (
    UNSET,
    _Unset,
    env_plan_cache_dir,
    env_result_cache_dir,
    usable_cpus,
)
from repro.utils.validation import ValidationError, require

#: The most ranks :meth:`Session.trace` records.  A traced machine keeps
#: one :class:`~repro.vmpi.machine.TraceEvent` per rank per charge: a
#: symbolic CA-CQR2 at ``n = 64, c = 4`` records 674 events per rank,
#: and ``repro trace`` peaks near 60 KB per rank (1.0 GB and 37 s at
#: 2**14 ranks on a 2-vCPU guest), so 4096 ranks stay near 300 MB and
#: 5 s.  CI traces 1024.
MAX_TRACED_RANKS = 2 ** 12


@dataclass(frozen=True)
class ExecutorConfig:
    """How a session fans batch work out: process parallelism + pool size."""

    parallel: bool = True
    max_workers: Optional[int] = None

    @classmethod
    def coerce(cls, value) -> "ExecutorConfig":
        """Normalize the accepted ``executor=`` spellings.

        ``None`` (defaults), an :class:`ExecutorConfig`, ``"serial"`` /
        ``"process"``, a bool (parallel on/off), or an integer worker
        count.
        """
        if value is None:
            return cls()
        if isinstance(value, ExecutorConfig):
            return value
        if isinstance(value, str):
            require(value in ("serial", "process"),
                    f'executor must be "serial", "process", a worker count, '
                    f"or an ExecutorConfig, got {value!r}")
            return cls(parallel=(value == "process"))
        if isinstance(value, bool):
            # Before the int branch: True/False mean parallel on/off, not
            # a worker count of 1.
            return cls(parallel=value)
        if isinstance(value, int):
            require(value > 0, f"executor worker count must be > 0, got {value}")
            return cls(parallel=(value > 1), max_workers=value)
        raise ValueError(f"cannot interpret {value!r} as an executor")


@dataclass(frozen=True)
class SessionConfig:
    """The picklable essence of a session, shipped into worker processes.

    Everything a worker needs to reproduce the parent session's context
    -- machine default, cache locations, planning objective -- without
    carrying live handles.  ``Session.from_config`` rebuilds a session
    from it on the other side of a pickle.
    """

    machine: Union[None, str, MachineSpec] = None
    result_cache: Optional[str] = None
    plan_cache: Optional[str] = None
    objective: Optional["Objective"] = None  # noqa: F821 - see repro.plan
    parallel: bool = True
    max_workers: Optional[int] = None


class Session:
    """One stateful entry point over the engine, planner, and study layers.

    Parameters
    ----------
    machine:
        Default machine preset name or :class:`MachineSpec` for
        convenience calls (:meth:`factor`, :meth:`plan`) and for the
        requests a :class:`~repro.serve.PlanServer` gets that name none.
        ``None`` keeps each layer's own default (``"abstract"`` for
        runs, ``"stampede2"`` for planning).
    result_cache:
        Directory of the fingerprint-keyed on-disk result cache used by
        :meth:`run_iter` / :meth:`run_batch` / :meth:`study`.  ``None``
        disables result caching; unset falls back to the
        ``REPRO_CACHE_DIR`` environment variable (no caching when that
        is unset too).
    plan_cache:
        Directory of the on-disk plan cache used by :meth:`plan` and by
        ``algorithm="auto"`` resolution.  Same ``None`` / environment
        (``REPRO_PLAN_CACHE_DIR``) semantics.
    sched_cache:
        Accepts only ``None``; anything else raises
        :class:`~repro.utils.validation.ValidationError` (field
        ``sched_cache``).  The keyword outlives the compiled-program
        cache it used to name because the benchmark harness
        (``benchmarks/perf/workloads.py::fresh_session``) still passes
        ``sched_cache=None``; it goes when the harness stops.
    executor:
        Batch-execution policy: ``"serial"``, ``"process"``, a worker
        count, or an :class:`ExecutorConfig`.
    objective:
        The session's planning objective -- a metric name, a weight
        string (``"time=1,memory=0.2"``), a weights mapping, or a full
        :class:`~repro.plan.objective.Objective` with budgets.  Honored
        by :meth:`plan` and by every ``algorithm="auto"`` resolution
        made under this session.  ``None`` means pure modeled time.
    obs:
        An :class:`~repro.obs.Observer` threaded through every layer the
        session touches -- planners built by :meth:`planner` emit their
        span trees into it, studies run under it, and a
        :class:`~repro.serve.PlanServer` built on this session adopts it
        for per-request spans.  A live handle, deliberately *not* part
        of :class:`SessionConfig`: worker processes rebuild sessions
        without it (sinks do not pickle), and observation never changes
        any result.  ``None`` (default) costs nothing.
    """

    def __init__(self, *, machine: Union[None, str, MachineSpec] = None,
                 result_cache: Union[_Unset, None, str] = UNSET,
                 plan_cache: Union[_Unset, None, str] = UNSET,
                 sched_cache: None = None,
                 executor=None, objective=None, obs=None):
        from repro.plan.objective import Objective

        if sched_cache is not None:
            raise ValidationError(f"accepts only None, got {sched_cache!r}",
                                  field="sched_cache")
        if isinstance(result_cache, _Unset):
            result_cache = env_result_cache_dir()
        if isinstance(plan_cache, _Unset):
            plan_cache = env_plan_cache_dir()
        self.machine = machine
        self.result_cache = result_cache
        self.plan_cache = plan_cache
        self.executor = ExecutorConfig.coerce(executor)
        self.objective = (Objective.coerce(objective)
                          if objective is not None else None)
        self.obs = obs

    # -- config / pickling --------------------------------------------------------

    @property
    def config(self) -> SessionConfig:
        """This session's context as a picklable :class:`SessionConfig`."""
        return SessionConfig(machine=self.machine,
                             result_cache=self.result_cache,
                             plan_cache=self.plan_cache,
                             objective=self.objective,
                             parallel=self.executor.parallel,
                             max_workers=self.executor.max_workers)

    @classmethod
    def from_config(cls, config: SessionConfig) -> "Session":
        """Rebuild a session from a (possibly unpickled) config."""
        return cls(machine=config.machine,
                   result_cache=config.result_cache,
                   plan_cache=config.plan_cache,
                   executor=ExecutorConfig(parallel=config.parallel,
                                           max_workers=config.max_workers),
                   objective=config.objective)

    def __repr__(self) -> str:
        parts = []
        if self.machine is not None:
            name = (self.machine.name if isinstance(self.machine, MachineSpec)
                    else self.machine)
            parts.append(f"machine={name!r}")
        if self.result_cache:
            parts.append(f"result_cache={self.result_cache!r}")
        if self.plan_cache:
            parts.append(f"plan_cache={self.plan_cache!r}")
        if self.objective is not None:
            parts.append(f"objective={str(self.objective)!r}")
        if self.executor != ExecutorConfig():
            parts.append(f"executor={self.executor}")
        return f"Session({', '.join(parts)})"

    # -- spec resolution ----------------------------------------------------------

    def resolve(self, spec: RunSpec) -> RunSpec:
        """Resolve ``algorithm="auto"`` / ``grid="auto"`` under this session.

        The planner search runs with the session's plan cache and
        objective; concrete specs pass through untouched.
        """
        if spec.algorithm == "auto" or spec.grid == "auto":
            from repro.plan import resolve_auto_spec

            return resolve_auto_spec(spec, cache_dir=self.plan_cache,
                                     objective=self.objective)
        return spec

    def spec_key(self, spec: RunSpec) -> str:
        """Result-cache key of a spec: fingerprint of its prepared form.

        Auto specs hash as the concrete configuration this session's
        planner resolves them to.
        """
        return self._prepared_fingerprint(self.resolve(spec))

    @staticmethod
    def _prepared_fingerprint(spec: RunSpec) -> str:
        """Fingerprint an already-resolved (concrete) spec."""
        from repro.engine.registry import solver_for

        solver = solver_for(spec.algorithm)
        return fingerprint(solver.prepare(spec), solver.name)

    # -- single runs --------------------------------------------------------------

    def run(self, spec: RunSpec) -> QRRun:
        """Execute one :class:`RunSpec` under this session's context."""
        from repro.engine.runner import _execute

        return _execute(self.resolve(spec), trace=False)[0]

    def trace(self, spec: RunSpec):
        """Execute one spec on a tracing machine; return ``(QRRun, vm)``.

        The returned :class:`~repro.vmpi.machine.VirtualMachine` carries
        the recorded :class:`~repro.vmpi.machine.TraceEvent` stream, ready
        for :func:`repro.vmpi.trace.render_gantt` /
        :func:`repro.vmpi.trace.format_phase_profile` (``repro trace``
        renders both).  Tracing records one event per rank per charge,
        so a run of more than :data:`MAX_TRACED_RANKS` ranks raises
        :class:`~repro.utils.validation.ValidationError` (field
        ``procs``) before anything runs.
        """
        from repro.engine.registry import solver_for
        from repro.engine.runner import _execute

        spec = self.resolve(spec)
        solver = solver_for(spec.algorithm)
        procs = solver.total_procs(solver.prepare(spec))
        if procs > MAX_TRACED_RANKS:
            raise ValidationError(
                f"{procs} ranks exceed the {MAX_TRACED_RANKS}-rank limit of "
                f"a traced run (one event per rank per charge)",
                field="procs")
        return _execute(spec, trace=True)

    def factor(self, a, algorithm: str = "auto", *,
               machine: Union[None, str, MachineSpec] = None,
               **spec_fields) -> QRRun:
        """Factor one matrix: the session-level one-call API.

        ``a`` is a numpy array or a reproducible :class:`MatrixSpec`;
        ``algorithm`` defaults to ``"auto"`` (the session's planner and
        objective pick the configuration -- pass ``procs=``).  Grid
        fields (``c``/``d``/``pr``/``pc``/``block_size``/...) pass
        through to the :class:`RunSpec`.
        """
        if machine is None:
            machine = self.machine if self.machine is not None else "abstract"
        if isinstance(a, MatrixSpec):
            spec = RunSpec(algorithm=algorithm, matrix=a, machine=machine,
                           **spec_fields)
        else:
            spec = RunSpec(algorithm=algorithm, data=np.asarray(a),
                           machine=machine, **spec_fields)
        return self.run(spec)

    # -- batches ------------------------------------------------------------------

    def run_iter(self, specs: Iterable[RunSpec], *,
                 parallel: Optional[bool] = None,
                 max_workers: Optional[int] = None,
                 cache_dir: Union[_Unset, None, str] = UNSET,
                 progress: Optional[Callable[[int, int], None]] = None,
                 ) -> Iterator[Tuple[int, QRRun]]:
        """Execute many specs, yielding ``(spec_index, result)`` as each completes.

        The session's executor and result cache supply the defaults;
        uncached specs fan out over a process pool with the session's
        :class:`SessionConfig` shipped to every worker, so auto specs
        resolve under the same planner context in the workers as they
        would in the parent (serial fallback where pools are
        unavailable).  Cache hits are yielded first in spec order, then
        misses stream back in completion order.
        """
        from repro.engine.runner import _POOL_FALLBACK_ERRORS, ResultCache

        if parallel is None:
            parallel = self.executor.parallel
        if max_workers is None:
            max_workers = self.executor.max_workers
        if max_workers is not None and max_workers < 1:
            raise ValidationError(f"must be positive, got {max_workers}",
                                  field="max_workers")
        if isinstance(cache_dir, _Unset):
            cache_dir = self.result_cache

        spec_list: List[RunSpec] = list(specs)
        total = len(spec_list)
        cache = ResultCache(cache_dir) if cache_dir else None
        done = 0

        keys: List[Optional[str]] = [None] * total
        misses: List[int] = []
        for i, spec in enumerate(spec_list):
            cached: Optional[QRRun] = None
            if cache is not None:
                # Resolve once here: the key needs the concrete spec
                # anyway, and submitting the resolved spec spares each
                # worker a duplicate planner screen.
                spec_list[i] = spec = self.resolve(spec)
                keys[i] = self._prepared_fingerprint(spec)
                cached = cache.load(keys[i])
            if cached is None:
                misses.append(i)
            else:
                done += 1
                if progress is not None:
                    progress(done, total)
                yield i, cached

        completed = set()

        def finish(i: int, result: QRRun) -> Tuple[int, QRRun]:
            nonlocal done
            if cache is not None:
                cache.store(keys[i], result)
            completed.add(i)
            done += 1
            if progress is not None:
                progress(done, total)
            return i, result

        workers = max_workers or min(len(misses), usable_cpus())
        if parallel and len(misses) > 1 and workers > 1:
            config = self.config
            with contextlib.suppress(*_POOL_FALLBACK_ERRORS), \
                    concurrent.futures.ProcessPoolExecutor(workers) as pool:
                futures = {
                    pool.submit(_run_in_worker, config, spec_list[i]): i
                    for i in misses}
                for future in concurrent.futures.as_completed(futures):
                    i = futures[future]
                    try:
                        result = future.result()
                    except _POOL_FALLBACK_ERRORS:
                        break       # fall back to serial for the rest
                    yield finish(i, result)
        for i in misses:
            if i not in completed:
                yield finish(i, self.run(spec_list[i]))

    def run_batch(self, specs: Iterable[RunSpec], *,
                  parallel: Optional[bool] = None,
                  max_workers: Optional[int] = None,
                  cache_dir: Union[_Unset, None, str] = UNSET,
                  ) -> List[QRRun]:
        """Execute many specs, returning results in spec order."""
        spec_list: List[RunSpec] = list(specs)
        results: List[Optional[QRRun]] = [None] * len(spec_list)
        for i, result in self.run_iter(spec_list, parallel=parallel,
                                       max_workers=max_workers,
                                       cache_dir=cache_dir):
            results[i] = result
        return results  # type: ignore[return-value]

    # -- planning -----------------------------------------------------------------

    def planner(self, refine: Optional[str] = "symbolic"):
        """A :class:`repro.plan.Planner` bound to this session's context."""
        from repro.plan import Planner

        return Planner(refine=refine, cache_dir=self.plan_cache,
                       obs=self.obs)

    def plan(self, problem=None, *, objective=None,
             refine: Optional[str] = "symbolic", **problem_fields):
        """Plan one problem point under the session's machine and objective.

        Pass the problem's fields directly (``m=``, ``n=``, ``procs=``,
        ...) and the session fills in its machine and objective
        defaults; ``objective=`` overrides the session objective for
        this one call.  A full :class:`~repro.plan.ProblemSpec` is taken
        **as-is** -- it is a complete question, so the session objective
        is *not* grafted onto it (only an explicit ``objective=``
        argument overrides its own); auto-spec resolution
        (:meth:`resolve`), by contrast, always plans under the session
        objective because a :class:`RunSpec` carries none of its own.
        """
        from repro.plan import Objective, ProblemSpec

        if objective is not None:
            objective = Objective.coerce(objective)
        if problem is None:
            problem_fields.setdefault(
                "machine",
                self.machine if self.machine is not None else "stampede2")
            if objective is not None:
                problem_fields["objective"] = objective
            elif self.objective is not None:
                problem_fields.setdefault("objective", self.objective)
            problem = ProblemSpec(**problem_fields)
        else:
            require(not problem_fields,
                    "pass either a ProblemSpec or its fields, not both")
            if objective is not None:
                problem = problem.replace(objective=objective)
        return self.planner(refine=refine).plan(problem)

    def plan_many(self, problems, *, refine: Optional[str] = "symbolic",
                  errors: str = "raise"):
        """Plan a whole campaign in one batched lattice search.

        ``problems`` is a sequence of :class:`~repro.plan.ProblemSpec`
        instances and/or field dicts; each dict gets the session's
        machine and objective defaults exactly as :meth:`plan` would
        apply them, while a full ``ProblemSpec`` is taken as-is.  The
        batch goes through :meth:`repro.plan.Planner.plan_many` --
        shared enumeration, one stacked pricing pass, deduplicated
        refinement -- returning per-point results bit-identical to
        calling :meth:`plan` in a loop.  ``errors="return"`` yields the
        per-point exception in place of its result instead of raising.
        """
        from repro.plan import ProblemSpec

        specs = []
        for item in problems:
            if isinstance(item, ProblemSpec):
                specs.append(item)
                continue
            require(isinstance(item, dict),
                    f"expected a ProblemSpec or its field dict, got {item!r}")
            fields = dict(item)
            fields.setdefault(
                "machine",
                self.machine if self.machine is not None else "stampede2")
            if self.objective is not None:
                fields.setdefault("objective", self.objective)
            specs.append(ProblemSpec(**fields))
        return self.planner(refine=refine).plan_many(specs, errors=errors)

    # -- studies ------------------------------------------------------------------

    def study(self, study, *, parallel: Optional[bool] = None,
              max_workers: Optional[int] = None,
              cache_dir: Union[_Unset, None, str] = UNSET,
              jsonl_path: Optional[str] = None, resume: bool = True,
              progress=None):
        """Run a :class:`repro.study.Study` (or its dict spec) under this session.

        Engine-backed points stream through :meth:`run_iter` with the
        session's executor, result cache, and auto-resolution context;
        returns the finalized :class:`~repro.study.ResultTable`.
        """
        from repro.study import Study, study_from_dict

        if isinstance(study, dict):
            study = study_from_dict(study)
        require(isinstance(study, Study),
                f"expected a Study or its dict spec, got {study!r}")
        # Unspecified parallel/cache_dir flow through the study into
        # this session's run_iter, which applies the executor policy and
        # result cache.
        return study.run(parallel=parallel, max_workers=max_workers,
                         cache_dir=cache_dir, jsonl_path=jsonl_path,
                         resume=resume, progress=progress, session=self)


def _run_in_worker(config: SessionConfig, spec: RunSpec) -> QRRun:
    """Pool-worker entry point: rebuild the session context, run one spec."""
    return Session.from_config(config).run(spec)


# -- the default session -----------------------------------------------------------

_default_session: Optional[Session] = None


def default_session() -> Session:
    """The module-level session used wherever no session is passed.

    Created lazily on first use (reading the ``REPRO_CACHE_DIR`` /
    ``REPRO_PLAN_CACHE_DIR`` environment variables); replace it with
    :func:`set_default_session` or temporarily with :func:`use_session`.
    """
    global _default_session
    if _default_session is None:
        _default_session = Session()
    return _default_session


def set_default_session(session: Optional[Session]) -> None:
    """Install *session* as the process-wide default (``None`` resets)."""
    global _default_session
    require(session is None or isinstance(session, Session),
            f"expected a Session or None, got {session!r}")
    _default_session = session


@contextlib.contextmanager
def use_session(session: Session):
    """Temporarily make *session* the default within a ``with`` block.

    Everything that falls back on the default session -- study
    execution, the CLI -- dispatches through *session* inside the
    block; the previous default is restored on exit.
    """
    global _default_session
    previous = _default_session
    set_default_session(session)
    try:
        yield session
    finally:
        _default_session = previous
