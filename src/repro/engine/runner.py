"""The spec-driven run engine: one code path from RunSpec to QRRun.

Execution context -- machine defaults, cache locations, executor policy,
planning objective -- lives in :class:`repro.session.Session`, the one
entry point: :meth:`~repro.session.Session.run`,
:meth:`~repro.session.Session.trace` and
:meth:`~repro.session.Session.run_iter` resolve auto specs under their
own context and funnel into :func:`_execute`, the one
VM -> grid -> distribute -> execute -> report pipeline every registered
algorithm runs through.  This module keeps that pipeline, the
fingerprint-keyed :class:`ResultCache` the session's batch runner
stores into, and the errors that make a batch fall back to in-process
execution.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, Optional, Tuple

from repro.engine.registry import UnknownAlgorithmError, solver_for
from repro.engine.result import QRRun
from repro.engine.spec import RunSpec
from repro.utils.diskcache import AtomicDiskCache
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.machine import VirtualMachine


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


class ResultCache(AtomicDiskCache):
    """Pickle-per-entry on-disk cache of :class:`QRRun` results.

    Atomic write-then-rename publication and torn-read-as-miss loads come
    from :class:`~repro.utils.diskcache.AtomicDiskCache`, so N concurrent
    batch runs (or serving workers) can share one cache directory.  The
    suffix is distinct from the plan and program caches' so the three
    can share one directory without claiming each other's entries.
    """

    suffix = ".run.pkl"
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
