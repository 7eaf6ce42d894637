"""Lattice planner: exact equivalence to the per-point loop, plus surfaces.

The tentpole contract is *bit-identity*: ``Planner.plan_many`` over any
problem lattice must return, point for point, exactly what ``plan`` in a
loop returns -- every field of every ranked plan, under every machine,
objective (including budgets), and refinement mode.  The amortization
(shared enumeration, stacked pricing, deduplicated symbolic runs, bulk
cache probe) is an implementation detail the results must not betray.
"""

import dataclasses

import pytest

from repro.engine import CapabilityError, MatrixSpec, registry
from repro.engine.builtin import CQR21DSolver
from repro.plan import Planner, ProblemSpec
from repro.plan.objective import Budget, Objective
from tests.oracles.capture import capture_run, replay_report


def _assert_results_identical(a, b, label=""):
    """Every public field of every ranked plan, plus result metadata."""
    assert a.num_candidates == b.num_candidates, label
    assert a.refined_count == b.refined_count, label
    assert a.from_cache == b.from_cache, label
    assert len(a.plans) == len(b.plans), label
    for pa, pb in zip(a.plans, b.plans):
        assert dataclasses.asdict(pa) == dataclasses.asdict(pb), (
            f"{label}: {pa.algorithm} {pa.config}")


def _assert_lattice_matches_loop(problems, **planner_kwargs):
    loop = Planner(**planner_kwargs)
    expected = [loop.plan(p) for p in problems]
    lattice = Planner(**planner_kwargs)
    got = lattice.plan_many(problems)
    for i, (a, b) in enumerate(zip(expected, got)):
        _assert_results_identical(a, b, label=f"point {i}: {problems[i]}")
    return lattice.last_lattice_stats


class TestLatticeEquivalence:
    def test_machines_objectives_and_budgets(self):
        objectives = (
            Objective.parse("time"),
            Objective.parse("memory"),
            Objective.parse("time=1,memory=0.2"),
            Objective.single("time", budgets=(Budget("memory", 3e4),)),
        )
        problems = [
            ProblemSpec(m=64 * aspect, n=64, procs=16, machine=machine,
                        mode="symbolic", top_k=3, objective=objective)
            for aspect in (4, 16)
            for machine in ("stampede2", "blue-waters")
            for objective in objectives]
        stats = _assert_lattice_matches_loop(problems)
        assert stats.points == len(problems)
        assert stats.computed == len(problems)
        assert stats.enum_groups < len(problems)      # shapes shared
        assert stats.screen_reuse > 1.0               # pricing shared
        assert stats.refine_dedup > 1.0               # runs shared
        assert stats.refine_dedup == stats.refine_jobs / stats.refine_runs

    def test_numeric_mode_and_algorithm_restriction(self):
        problems = [
            ProblemSpec(m=2 ** 12, n=32, procs=16, mode="numeric",
                        machine="stampede2", top_k=2),
            ProblemSpec(m=2 ** 12, n=32, procs=16, mode="numeric",
                        machine="stampede2", top_k=2,
                        algorithms=("ca_cqr2", "cqr2_1d")),
            ProblemSpec(m=2 ** 12, n=32, procs=16, mode="symbolic",
                        machine="abstract", top_k=2),
        ]
        _assert_lattice_matches_loop(problems)

    def test_screen_only_refine_none(self):
        problems = [ProblemSpec(m=2 ** 12, n=32, procs=p,
                                machine=machine, mode="symbolic")
                    for p in (8, 16) for machine in ("stampede2", "abstract")]
        stats = _assert_lattice_matches_loop(problems, refine=None)
        assert stats.refine_jobs == 0

    def test_singleton_lattice(self):
        _assert_lattice_matches_loop(
            [ProblemSpec(m=2 ** 12, n=32, procs=16, mode="symbolic")])

    def test_empty_lattice(self):
        planner = Planner()
        assert planner.plan_many([]) == []
        assert planner.last_lattice_stats.points == 0

    def test_in_batch_duplicates_share_one_search(self):
        problem = ProblemSpec(m=2 ** 12, n=32, procs=16, mode="symbolic")
        planner = Planner()
        results = planner.plan_many([problem, problem, problem])
        stats = planner.last_lattice_stats
        assert stats.batch_duplicates == 2
        assert stats.computed == 1
        _assert_results_identical(results[0], results[1])
        _assert_results_identical(results[0], results[2])

    def test_bulk_cache_probe_and_write_through(self, tmp_path):
        problems = [ProblemSpec(m=2 ** 12, n=32, procs=p, mode="symbolic")
                    for p in (8, 16, 32)]
        planner = Planner(cache_dir=str(tmp_path))
        cold = planner.plan_many(problems)
        assert not any(r.from_cache for r in cold)
        warm = planner.plan_many(problems)
        assert all(r.from_cache for r in warm)
        assert planner.last_lattice_stats.cache_hits == len(problems)
        for a, b in zip(cold, warm):
            assert [p.config for p in a.plans] == [p.config for p in b.plans]
        # And the loop sees the very same cached entries.
        loop = Planner(cache_dir=str(tmp_path))
        for problem, b in zip(problems, warm):
            _assert_results_identical(loop.plan(problem), b)


class TestRefinementOracle:
    """Every refined number equals the whole-run capture-and-replay oracle."""

    def test_refined_plans_equal_captured_replays(self):
        problems = [
            ProblemSpec(m=2 ** 12, n=32, procs=procs, machine=machine,
                        mode="symbolic", top_k=8, objective=objective,
                        algorithms=("ca_cqr2", "cqr2_1d"))
            for procs in (16, 64)
            for machine in ("stampede2", "blue-waters", "abstract")
            for objective in (
                Objective.parse("time"),
                Objective.parse("time=1,memory=0.2"),
                Objective.single("time", budgets=(Budget("memory", 2e4),)))]
        programs = {}
        kinds = set()
        for problem, result in zip(problems, Planner().plan_many(problems)):
            machine = problem.machine_spec()
            refined = [p for p in result.plans if p.refined]
            assert refined
            for plan in refined:
                solver = registry.solver_for(plan.algorithm)
                spec = solver.prepare(plan.to_run_spec(
                    matrix=MatrixSpec(problem.m, problem.n), mode="symbolic",
                    machine=problem.machine))
                key = (plan.algorithm, plan.config)
                if key not in programs:
                    programs[key] = capture_run(spec)[0]
                report = replay_report(programs[key], machine)
                assert plan.refined_seconds == float(report.critical_path_time)
                assert (plan.messages, plan.words, plan.flops) == (
                    float(report.max_cost.messages),
                    float(report.max_cost.words),
                    float(report.max_cost.flops))
                if plan.algorithm == "cqr2_1d":
                    kinds.add("cqr2_1d")
                else:
                    c, d = spec.c, spec.d
                    kinds.add("ca_cqr2 d>c" if d > c else "ca_cqr2 d=c")
        assert kinds == {"cqr2_1d", "ca_cqr2 d>c", "ca_cqr2 d=c"}


class _SecondCandidateFails(CQR21DSolver):
    """1D-CQR2 with a second, costlier candidate that fails ``prepare``."""

    name = "test_second_fails"
    aliases = ()

    def __init__(self):
        self.executions = 0

    def plan_candidates(self, m, n, procs, machine, block_sizes,
                        inverse_depths):
        for cand in super().plan_candidates(m, n, procs, machine,
                                            block_sizes, inverse_depths):
            yield cand
            yield dataclasses.replace(
                cand, config=f"{cand.config},broken",
                spec_fields={**cand.spec_fields, "block_size": 1},
                memory_words=2 * cand.memory_words)

    def validate(self, spec):
        super().validate(spec)
        if spec.block_size is not None:
            raise CapabilityError("the broken candidate never prepares")

    def execute(self, vm, dist, spec):
        self.executions += 1
        return super().execute(vm, dist, spec)


class TestLatticeErrors:
    INFEASIBLE = ProblemSpec(m=7, n=3, procs=4)
    FEASIBLE = ProblemSpec(m=2 ** 12, n=32, procs=16, mode="symbolic")

    def test_errors_return_isolates_the_failing_point(self):
        planner = Planner()
        results = planner.plan_many(
            [self.FEASIBLE, self.INFEASIBLE, self.FEASIBLE],
            errors="return")
        assert isinstance(results[1], CapabilityError)
        # Neighbors are untouched -- identical to planning them alone.
        solo = Planner().plan(self.FEASIBLE)
        _assert_results_identical(results[0], solo)
        _assert_results_identical(results[2], solo)
        assert planner.last_lattice_stats.errors == 1

    def test_error_message_matches_the_loop(self):
        try:
            Planner().plan(self.INFEASIBLE)
        except CapabilityError as exc:
            expected = str(exc)
        [returned] = Planner().plan_many(
            [self.INFEASIBLE], errors="return")
        assert str(returned) == expected

    def test_errors_raise_mode(self):
        with pytest.raises(CapabilityError, match="no feasible"):
            Planner().plan_many(
                [self.FEASIBLE, self.INFEASIBLE], errors="raise")

    def test_failed_point_contributes_no_refine_runs(self, monkeypatch):
        stub = _SecondCandidateFails()
        monkeypatch.setitem(registry._REGISTRY, stub.name, stub)
        # top_k=2 audits the broken point's failing second candidate too.
        broken = self.FEASIBLE.replace(algorithms=(stub.name,), top_k=2)
        good = self.FEASIBLE.replace(algorithms=("cqr2_1d",))
        planner = Planner()
        results = planner.plan_many([broken, good], errors="return")
        assert isinstance(results[0], CapabilityError)
        assert results[1].refined_count == 1
        stats = planner.last_lattice_stats
        # Only the good point's one survivor is counted and simulated:
        # the broken point's first survivor was never run.
        assert (stats.errors, stats.refine_jobs) == (1, 1)
        assert stats.refine_runs == 1
        assert stub.executions == 0

    def test_errors_mode_validated(self):
        with pytest.raises(ValueError, match="errors"):
            Planner().plan_many([], errors="ignore")


class TestSessionPlanMany:
    def test_dict_items_get_session_defaults(self):
        from repro.session import Session

        session = Session(machine="blue-waters", plan_cache=None,
                          objective="memory", executor="serial")
        spec = ProblemSpec(m=2 ** 12, n=32, procs=16, mode="symbolic")
        results = session.plan_many([
            {"m": 2 ** 12, "n": 32, "procs": 16, "mode": "symbolic"},
            spec,                                # taken as-is
        ])
        assert results[0].problem.machine_spec().name == "blue-waters"
        assert str(results[0].problem.objective) == "memory"
        # The full ProblemSpec keeps its own machine/objective.
        assert results[1].problem.machine_spec().name == "stampede2"
        assert str(results[1].problem.objective) == "time"

    def test_rejects_non_problem_items(self):
        from repro.session import Session

        with pytest.raises(ValueError, match="ProblemSpec"):
            Session().plan_many([42])
