"""The planner's screen agrees with symbolic execution, candidate by candidate.

Ranking reads only screened values, and a plan carries at most a
symbolic audit of its top few; this test is the agreement check that
refinement used to pay for on every request.  For every candidate the
planner enumerates for the symbolic-capable solvers over a small
lattice, one plain symbolic run must reproduce the screen: the critical
path within 1e-12 relative of ``modeled_seconds``, and the run's
``max_cost`` counts ``==`` the screened messages, words and flops.
"""

import itertools

import pytest

from repro import Session
from repro.engine import MatrixSpec
from repro.plan import Planner, ProblemSpec

#: Solvers whose every candidate runs symbolically.
SYMBOLIC_SOLVERS = ("ca_cqr2", "cqr2_1d")
RTOL = 1e-12

POINTS = list(itertools.product(("stampede2", "blue-waters"), (32, 96, 256),
                                (32, 512), (4, 64, 1024)))


@pytest.fixture(scope="module")
def session():
    return Session(executor="serial", result_cache=None, plan_cache=None)


@pytest.mark.parametrize("machine,n,aspect,procs", POINTS,
                         ids=[f"{m}-n{n}-a{a}-P{p}" for m, n, a, p in POINTS])
def test_every_candidate_runs_as_screened(session, machine, n, aspect, procs):
    problem = ProblemSpec(m=n * aspect, n=n, procs=procs, machine=machine,
                          mode="symbolic", algorithms=SYMBOLIC_SOLVERS)
    plans = Planner(refine=None).plan(problem).plans
    assert {p.algorithm for p in plans} == set(SYMBOLIC_SOLVERS)
    matrix = MatrixSpec(problem.m, problem.n)
    for plan in plans:
        report = session.run(plan.to_run_spec(
            matrix=matrix, mode="symbolic", machine=machine)).report
        where = f"{plan.algorithm} {plan.config}"
        assert abs(report.critical_path_time - plan.modeled_seconds) \
            <= RTOL * plan.modeled_seconds, where
        assert (report.max_cost.messages, report.max_cost.words,
                report.max_cost.flops) == (
                    plan.messages, plan.words, plan.flops), where
