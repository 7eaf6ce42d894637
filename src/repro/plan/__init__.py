"""repro.plan: the model-driven planner.

The paper's central claim is that the *right* configuration -- which
algorithm, which ``c x d x c`` grid, which inverse depth or panel width
-- depends on the matrix shape, the processor count, and the machine
balance.  This package answers the question users actually have::

    from repro.plan import Planner, ProblemSpec

    result = Planner(cache_dir=".repro-plan-cache").plan(
        ProblemSpec(m=2**22, n=2**9, procs=4096, machine="stampede2"))
    best = result.best()             # ranked Plan list + Pareto frontier
    spec = best.to_run_spec(matrix=MatrixSpec(2**22, 2**9),
                            mode="symbolic", machine="stampede2")

or, fully delegated, straight through a session::

    Session().run(RunSpec(algorithm="auto", matrix=MatrixSpec(2**22, 2**9),
                          procs=4096, machine="stampede2", mode="symbolic"))

The search enumerates every feasible candidate across all registered
algorithms (the registry's planning hooks), screens hundreds of them
with the vectorized analytic cost model in one batched numpy evaluation
(:mod:`repro.costmodel.batch`, bit-identical to the scalar closed
forms), ranks them and reports a Pareto frontier over (time, memory
high-water, messages) rather than a single winner.  Ranking and flags
read only the screen; the top ``top_k`` plans (default 1) carry an
audit, one exact symbolic-VM run whose time is attached and never
reorders anything.  There is one search path:
:func:`search_lattice` answers a whole problem lattice
(``Planner.plan_many``), and ``Planner.plan`` is the one-point case.
Results are fingerprint-keyed and persisted in an on-disk plan cache,
so serving repeated planning queries costs one disk read.
"""

from repro.plan.auto import resolve_auto_spec
from repro.plan.cache import PlanCache
from repro.plan.lattice import LatticeStats, search_lattice
from repro.plan.objective import METRICS, Budget, Objective
from repro.plan.planner import Plan, Planner, PlanResult, pareto_mask
from repro.plan.problem import (
    OBJECTIVES,
    ProblemSpec,
    default_block_sizes,
    machine_from_json,
    objective_from_json,
    problem_fingerprint,
    problem_from_dict,
)
from repro.plan.screen import enumerate_candidates

__all__ = [
    "Budget",
    "LatticeStats",
    "METRICS",
    "OBJECTIVES",
    "Objective",
    "Plan",
    "PlanCache",
    "PlanResult",
    "Planner",
    "ProblemSpec",
    "default_block_sizes",
    "enumerate_candidates",
    "machine_from_json",
    "objective_from_json",
    "pareto_mask",
    "problem_fingerprint",
    "problem_from_dict",
    "resolve_auto_spec",
    "search_lattice",
]
