"""repro: a reproduction of "Communication-avoiding CholeskyQR2 for
rectangular matrices" (Hutter & Solomonik, IPDPS 2019).

The package implements the paper's CA-CQR2 algorithm and every substrate it
depends on -- 3D matrix multiplication (MM3D), recursive parallel Cholesky
with inverse (CFR3D), the 1D and 3D CholeskyQR2 variants, tunable
``c x d x c`` processor grids -- over a **virtual-MPI simulation substrate**
that executes the real distributed algorithms in one process while charging
the paper's alpha-beta-gamma cost model, plus ScaLAPACK-like and TSQR
baselines, machine presets for the paper's two testbeds, and the experiment
harness that regenerates every table and figure.

Quick start -- one :class:`Session` carries the ambient context (machine,
caches, executor, planning objective) behind every call::

    import numpy as np
    from repro import Session

    session = Session()
    a = np.random.default_rng(0).standard_normal((512, 32))
    run = session.factor(a, algorithm="ca_cqr2", c=2, d=8)  # 2x8x2 grid
    auto = session.factor(a, procs=32)        # the planner picks the config
    print(run.orthogonality_error())          # ~1e-15
    print(run.report.summary())               # communication/flop ledger

or, spec-driven through the unified algorithm registry (any registered
algorithm, parallel + cached sweeps)::

    from repro import MatrixSpec, RunSpec, Session

    session = Session(result_cache=".repro-cache")
    result = session.run(RunSpec(algorithm="tsqr", matrix=MatrixSpec(512, 32),
                                 procs=8))
    sweep = session.run_batch([RunSpec(algorithm="ca_cqr2",
                                       matrix=MatrixSpec(4096, 64), procs=p)
                               for p in (16, 64, 256)])

The session is the one entry point: the CLI, :class:`Study` campaigns
and the planning server all run through one (the module-level
:func:`default_session` when none is passed).
"""

from repro.costmodel import (
    STAMPEDE2,
    BLUE_WATERS,
    ABSTRACT_MACHINE,
    MachineSpec,
    ExecutionModel,
)
from repro.core import (
    ca_cqr,
    ca_cqr2,
    cqr2_3d,
    cqr_1d,
    cqr2_1d,
    cfr3d,
    mm3d,
    cqr_sequential,
    cqr2_sequential,
    shifted_cqr3_sequential,
    optimal_grid,
    feasible_grids,
    GridShape,
)
from repro.core import (
    ca_shifted_cqr3,
    ca_panel_cqr2,
    panel_cqr2,
)
from repro.engine import MatrixSpec, QRRun, RunSpec
from repro.obs import (
    ChromeTraceSink,
    JsonlSink,
    MetricsRegistry,
    Observer,
    get_registry,
)
from repro.plan import Budget, Objective, Plan, Planner, PlanResult, ProblemSpec
from repro.session import (
    Session,
    SessionConfig,
    default_session,
    set_default_session,
    use_session,
)
from repro.study import Axis, ResultTable, Study, executed_sweep_study
from repro.verify import QRVerdict, cross_check, verify_qr
from repro.vmpi import VirtualMachine, Grid3D, DistMatrix

__version__ = "1.0.0"

__all__ = [
    "QRRun",
    "RunSpec",
    "MatrixSpec",
    "Session",
    "SessionConfig",
    "default_session",
    "set_default_session",
    "use_session",
    "Budget",
    "Objective",
    "Plan",
    "PlanResult",
    "Planner",
    "ProblemSpec",
    "Axis",
    "ResultTable",
    "Study",
    "executed_sweep_study",
    "ChromeTraceSink",
    "JsonlSink",
    "MetricsRegistry",
    "Observer",
    "get_registry",
    "STAMPEDE2",
    "BLUE_WATERS",
    "ABSTRACT_MACHINE",
    "MachineSpec",
    "ExecutionModel",
    "ca_cqr",
    "ca_cqr2",
    "cqr2_3d",
    "cqr_1d",
    "cqr2_1d",
    "cfr3d",
    "mm3d",
    "cqr_sequential",
    "cqr2_sequential",
    "shifted_cqr3_sequential",
    "optimal_grid",
    "feasible_grids",
    "GridShape",
    "ca_shifted_cqr3",
    "ca_panel_cqr2",
    "panel_cqr2",
    "QRVerdict",
    "cross_check",
    "verify_qr",
    "VirtualMachine",
    "Grid3D",
    "DistMatrix",
    "__version__",
]
