"""repro.engine: unified algorithm registry + spec-driven run engine.

The one pluggable dispatch path for every QR variant in the repository.
Describe a run declaratively with :class:`RunSpec` and execute it
through a :class:`repro.Session` -- one run with ``session.run``, a
whole sweep with ``session.run_batch`` or the streaming
``session.run_iter`` (process parallelism + an on-disk result cache
keyed by spec fingerprint; ``run_iter`` yields ``(index, result)`` in
completion order and powers :mod:`repro.study` campaigns)::

    from repro import Session
    from repro.engine import MatrixSpec, RunSpec

    session = Session(result_cache=".repro-cache")
    spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(4096, 64), procs=16)
    result = session.run(spec)               # -> repro.engine.QRRun
    results = session.run_batch([spec.replace(procs=p) for p in (16, 32, 128)])

Algorithms self-register via :class:`~repro.engine.registry.Solver`
adapters (capability checks, grid construction, executed path, and the
analytic cost-model counterpart); the session, the CLI, the experiment
sweeps, and the benchmark harness all dispatch through this registry, so
a new algorithm lands as a single registry entry.
"""

from repro.engine.registry import (
    CapabilityError,
    EngineError,
    PlanCandidate,
    Solver,
    UnknownAlgorithmError,
    available_algorithms,
    register,
    solver_for,
    solvers,
)
from repro.engine.result import Grid2DShape, QRRun
from repro.engine.runner import ResultCache
from repro.engine.builtin import register_builtin
from repro.engine.spec import MatrixSpec, RunSpec

register_builtin()

__all__ = [
    "CapabilityError",
    "EngineError",
    "Grid2DShape",
    "MatrixSpec",
    "PlanCandidate",
    "QRRun",
    "ResultCache",
    "RunSpec",
    "Solver",
    "UnknownAlgorithmError",
    "available_algorithms",
    "register",
    "register_builtin",
    "solver_for",
    "solvers",
]
