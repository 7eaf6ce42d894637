"""Stage 1 of the search: enumerate every candidate configuration.

Enumeration asks each registered solver for its feasible, runnable
configurations (:meth:`~repro.engine.Solver.plan_candidates`).  The
lattice search (:mod:`repro.plan.lattice`) then prices each solver's
family with its batched closed form
(:meth:`~repro.engine.Solver.screen_costs`) and converts *all* candidates to modeled seconds in one
numpy evaluation -- the screen stays model-bound no matter how many
hundreds of configurations the grid/variant space expands to.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.engine.registry import PlanCandidate, Solver, solver_for, solvers
from repro.plan.problem import ProblemSpec


def enumerate_candidates(problem: ProblemSpec
                         ) -> List[Tuple[Solver, List[PlanCandidate]]]:
    """Per-solver candidate groups for one problem, in registry order.

    Symbolic-mode problems keep only candidates refinable (and hence
    executable) symbolically; an explicit algorithm restriction narrows
    the solver set (names resolved through the registry's aliases).
    """
    if problem.algorithms is None:
        searched = solvers()
    else:
        searched = []
        for name in problem.algorithms:
            solver = solver_for(name)
            if solver not in searched:
                searched.append(solver)
    block_sizes = problem.effective_block_sizes()
    machine = problem.machine_spec()
    groups = []
    for solver in searched:
        cands = list(solver.plan_candidates(
            problem.m, problem.n, problem.procs, machine,
            block_sizes, problem.inverse_depths))
        if problem.mode == "symbolic":
            cands = [c for c in cands if c.symbolic_ok]
        if cands:
            groups.append((solver, cands))
    return groups
