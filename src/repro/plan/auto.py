"""``algorithm="auto"`` / ``grid="auto"``: engine specs that plan themselves.

:func:`resolve_auto_spec` turns an auto :class:`~repro.engine.RunSpec`
into a concrete one by asking the planner for the best configuration of
the spec's problem point.  :meth:`repro.Session.resolve` calls it from
every entry point (``Session.run``, ``Session.trace``,
``Session.run_iter``, ``Session.spec_key``), so any run, sweep, or
:class:`~repro.study.Study` can delegate its configuration by writing
``RunSpec(algorithm="auto", ...)`` -- and because resolution *replaces*
the spec before the normal dispatch path, the resolved run is
bit-identical to executing the chosen configuration explicitly.

A :class:`repro.Session` threads its own context through here: its plan
cache serves repeated resolutions from disk, and its
:class:`~repro.plan.objective.Objective` (weighted scalarization and/or
budget constraints) decides which configuration wins.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.engine.registry import CapabilityError, capability, solver_for
from repro.engine.spec import RunSpec
from repro.plan.objective import Objective
from repro.plan.planner import Planner
from repro.plan.problem import ProblemSpec


def resolve_auto_spec(spec: RunSpec,
                      cache_dir: Optional[str] = None,
                      objective: Union[None, str, Objective] = None) -> RunSpec:
    """Resolve an auto spec to the planner's best concrete configuration.

    ``algorithm="auto"`` searches every registered algorithm;
    ``grid="auto"`` with a named algorithm searches only that
    algorithm's configuration space (grids, inverse depths, panel
    widths).  Either way the spec must carry a processor count -- the
    planner picks *how* to use the budget, not its size -- and must not
    pin any grid field (a half-delegated configuration would be
    silently overridden).

    ``objective`` ranks the candidates (default: pure modeled time); an
    objective with budget constraints additionally *requires* the winner
    to satisfy them -- an auto spec must not silently execute a
    configuration that blows the caller's budget.

    Resolution uses the batched analytic screen only (``refine=None``):
    the screen is validated bit-identical to the scalar closed forms,
    and skipping symbolic refinement keeps auto resolution cheap enough
    for sweeps that resolve hundreds of specs.
    """
    if spec.algorithm != "auto" and spec.grid != "auto":
        return spec
    capability(spec.procs is not None,
               "auto resolution needs a processor count (procs=...)")
    for field in ("c", "d", "pr", "pc", "base_case_size"):
        capability(getattr(spec, field) is None,
                   f"auto resolution picks the grid and its variants; drop "
                   f"the explicit {field}= (or pin the full configuration "
                   f"and drop auto)")
    m, n = spec.shape
    algorithms = None
    if spec.algorithm != "auto":
        algorithms = (solver_for(spec.algorithm).name,)
    resolved_objective = Objective.coerce(objective)
    problem = ProblemSpec(
        m=m, n=n, procs=spec.procs, machine=spec.machine, mode=spec.mode,
        objective=(resolved_objective if objective is not None else "time"),
        algorithms=algorithms,
        block_sizes=(spec.block_size,) if spec.block_size is not None else None)
    planner = Planner(refine=None, cache_dir=cache_dir)
    try:
        best = planner.plan(problem).best()
    except CapabilityError as exc:
        raise CapabilityError(f"auto resolution failed: {exc}") from None
    if resolved_objective.budgets and not best.within_budget:
        raise CapabilityError(
            f"auto resolution failed: no configuration of any searched "
            f"algorithm for {m} x {n} at P={spec.procs} satisfies "
            f"{resolved_objective}")
    return best.apply_to(spec)
