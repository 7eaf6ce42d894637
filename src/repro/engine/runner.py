"""The spec-driven run engine: one code path from RunSpec to QRRun.

Execution context -- machine defaults, cache locations, executor policy,
planning objective -- lives in :class:`repro.session.Session`; every
free function here is a **byte-identical shim over the module-level
default session** (:func:`repro.session.default_session`), so the
historical spellings keep working unchanged::

    run(spec)                  == default_session().run(spec)
    run_batch(specs, ...)      == default_session().run_batch(specs, ...)
    run_iter(specs, ...)       == default_session().run_iter(specs, ...)

:func:`run` executes any registered algorithm through the same
VM -> grid -> distribute -> execute -> report pipeline.  Batch execution
(:meth:`~repro.session.Session.run_iter`) streams results in completion
order using process parallelism and an optional on-disk result cache
keyed by the spec fingerprint; the session ships its picklable config
into every worker so auto specs resolve under the same planner context
there.  This module keeps the execution internals (:func:`_execute`),
the :class:`ResultCache`, and the cache maintenance helpers.
"""

from __future__ import annotations

import concurrent.futures
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, Union)

from repro.engine.registry import UnknownAlgorithmError, solver_for
from repro.engine.result import QRRun
from repro.engine.spec import RunSpec
from repro.utils.config import (
    DEFAULT_CACHE_DIR,  # noqa: F401 - re-exported (historical home)
    RESULT_CACHE_ENV,  # noqa: F401 - re-exported (historical home)
    UNSET,
    _Unset,
    default_cache_dir,
)
from repro.utils.diskcache import AtomicDiskCache, clear_cache_dir, scan_cache_dir
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.machine import VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.session import Session


def _default_session() -> "Session":
    from repro.session import default_session

    return default_session()


def resolve_auto(spec: RunSpec) -> RunSpec:
    """Resolve ``algorithm="auto"`` / ``grid="auto"`` to a concrete spec.

    Delegates to the model-driven planner (:mod:`repro.plan`) under the
    default session's context (plan cache + objective): the planner
    screens every feasible configuration of every registered algorithm
    (or every grid of the named one) under the spec's machine and
    returns the spec with the winning configuration pinned.  Already
    concrete specs pass through untouched, so every engine entry point
    calls this unconditionally.
    """
    return _default_session().resolve(spec)


def run(spec: RunSpec) -> QRRun:
    """Execute one :class:`RunSpec` and return its :class:`QRRun`.

    Shim over :meth:`repro.session.Session.run` on the default session.
    Dispatches through the algorithm registry: the solver validates the
    spec's capabilities, builds the grid, and executes; the engine owns
    the machine construction, data distribution, and report assembly.
    Auto specs (``algorithm="auto"`` / ``grid="auto"``) are resolved
    through the planner first.
    """
    return _default_session().run(spec)


def run_traced(spec: RunSpec) -> Tuple[QRRun, VirtualMachine]:
    """Execute one spec on a *tracing* machine; return the result **and** it.

    Shim over :meth:`repro.session.Session.trace` on the default
    session.  The machine carries the recorded
    :class:`~repro.vmpi.machine.TraceEvent` stream, ready for
    :func:`repro.vmpi.trace.render_gantt` /
    :func:`repro.vmpi.trace.format_phase_profile` -- the engine-level
    doorway to the trace-sink API (the ``repro trace`` CLI subcommand
    uses it).  Tracing records one event per rank per charge; keep the
    rank count modest.
    """
    return _default_session().trace(spec)


def _execute(spec: RunSpec, trace: bool,
             vm_factory: Optional[Callable[..., VirtualMachine]] = None,
             ) -> Tuple[QRRun, VirtualMachine]:
    """The one execution pipeline every entry point funnels into.

    Callers (:meth:`Session.run` / :meth:`Session.trace`) resolve auto
    specs under their *own* session context before reaching the
    pipeline; resolving here again would route every run through the
    default session.

    ``vm_factory`` optionally substitutes the machine construction --
    called as ``vm_factory(num_ranks, machine_spec)`` -- so program
    capture (:func:`repro.sched.capture.capture_run`) runs a
    :class:`~repro.sched.recorder.ScheduleRecorder` through the *same*
    pipeline instead of duplicating it.
    """
    solver = solver_for(spec.algorithm)
    spec = solver.prepare(spec)
    if vm_factory is None:
        vm = VirtualMachine(solver.total_procs(spec), spec.machine_spec(),
                            trace=trace)
    else:
        vm = vm_factory(solver.total_procs(spec), spec.machine_spec())
    grid = solver.build_grid(vm, spec)
    m, n = spec.shape
    if spec.mode == "symbolic":
        dist = DistMatrix.symbolic(grid, m, n)
    else:
        dist = DistMatrix.from_global(grid, spec.materialize())
    q, r = solver.execute(vm, dist, spec)
    return QRRun(q=q, r=r, report=vm.report(), grid=solver.grid_shape(spec)), vm


def spec_key(spec: RunSpec) -> str:
    """Cache key of a spec: fingerprint of its *prepared* form.

    Preparing first means two specs that resolve to the same concrete run
    (e.g. ``procs=16`` vs the explicit ``c=2, d=4`` it implies) share a
    cache entry, alias spellings of the algorithm name collapse, and an
    auto spec hashes as the concrete configuration the planner resolves
    it to.
    """
    return _default_session().spec_key(spec)


class ResultCache(AtomicDiskCache):
    """Pickle-per-entry on-disk cache of :class:`QRRun` results.

    Atomic write-then-rename publication and torn-read-as-miss loads come
    from :class:`~repro.utils.diskcache.AtomicDiskCache`, so N concurrent
    batch runs (or serving workers) can share one cache directory.
    """

    suffix = ".pkl"
    value_type = QRRun
    metrics_name = "result"


#: Errors that mean "the process pool cannot serve this batch" rather than
#: "the batch is wrong": pool unavailable (e.g. sandboxed /dev/shm), or a
#: solver registered only in this process that spawn-started workers cannot
#: see.  Session.run_iter falls back to in-process execution, where a
#: genuinely unknown algorithm still raises.
_POOL_FALLBACK_ERRORS = (OSError, PermissionError,
                         concurrent.futures.BrokenExecutor,
                         UnknownAlgorithmError)


def run_iter(specs: Iterable[RunSpec], *, parallel: Optional[bool] = None,
             max_workers: Optional[int] = None,
             cache_dir: "Union[_Unset, None, str]" = UNSET,
             progress: Optional[Callable[[int, int], None]] = None,
             ) -> Iterator[Tuple[int, QRRun]]:
    """Execute many specs, yielding ``(spec_index, result)`` as each completes.

    Shim over :meth:`repro.session.Session.run_iter` on the default
    session.  Cache hits are yielded immediately (in spec order); the
    misses then stream back in *completion* order from the process pool,
    so a consumer (a progress bar, the study layer's row writer) sees
    every result the moment it exists instead of waiting for the whole
    batch.

    Parameters
    ----------
    specs:
        The runs to execute.
    parallel:
        Fan uncached specs out over a process pool (falls back to serial
        execution automatically where process pools are unavailable).
        Unspecified defers to the session's executor policy.
    max_workers:
        Pool size; defaults to ``min(len(uncached), usable CPUs)``, the
        usable CPUs being the process's affinity mask
        (:func:`repro.utils.config.usable_cpus`), not the host's count.
    cache_dir:
        Directory for the fingerprint-keyed result cache.  ``None``
        disables caching; leaving it unspecified defers to the session's
        result cache (the ``REPRO_CACHE_DIR`` environment variable for
        the default session, no caching when that is unset).  A hit
        returns the identical pickled :class:`QRRun`, so repeated sweep
        points cost one disk read.
    progress:
        Optional callback invoked as ``progress(done, total)`` after
        every yielded result.
    """
    return _default_session().run_iter(specs, parallel=parallel,
                                       max_workers=max_workers,
                                       cache_dir=cache_dir,
                                       progress=progress)


def run_batch(specs: Iterable[RunSpec], *, parallel: Optional[bool] = None,
              max_workers: Optional[int] = None,
              cache_dir: "Union[_Unset, None, str]" = UNSET) -> List[QRRun]:
    """Execute many specs, returning results in spec order.

    Shim over :meth:`repro.session.Session.run_batch` on the default
    session (which does the parallelism and caching); see
    :func:`run_iter` for parameters.
    """
    return _default_session().run_batch(specs, parallel=parallel,
                                        max_workers=max_workers,
                                        cache_dir=cache_dir)


def cache_info(cache_dir: Optional[str] = None, suffix: str = ".pkl") -> dict:
    """Inspect an on-disk cache directory: entry count and total bytes.

    ``cache_dir`` defaults to :func:`default_cache_dir` (the
    ``REPRO_CACHE_DIR`` environment variable when set); ``suffix``
    selects which entry family to count when several caches share a
    directory (``".plan.pkl"`` / ``".prog.pkl"``).
    """
    return scan_cache_dir(cache_dir or default_cache_dir(), suffix)


def cache_clear(cache_dir: Optional[str] = None, suffix: str = ".pkl") -> int:
    """Delete every cache entry (and stray temp file); return entries removed.

    ``cache_dir`` defaults to :func:`default_cache_dir` (the
    ``REPRO_CACHE_DIR`` environment variable when set).
    """
    return clear_cache_dir(cache_dir or default_cache_dir(), suffix)


def batch_specs(algorithm: str, points: Sequence[dict], **common) -> List[RunSpec]:
    """Convenience: one algorithm, many parameter points.

    ``points`` are per-spec keyword overrides merged over ``common``,
    e.g. ``batch_specs("ca_cqr2", [{"procs": p} for p in (16, 128)],
    matrix=MatrixSpec(4096, 64))``.
    """
    return [RunSpec(algorithm=algorithm, **{**common, **point})
            for point in points]
