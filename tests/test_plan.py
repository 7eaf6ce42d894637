"""Planner correctness: enumeration, screening, refinement, cache, auto."""

import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from repro import Session
from repro.costmodel.params import MachineSpec, STAMPEDE2, machine_by_name
from repro.engine import (
    CapabilityError,
    MatrixSpec,
    RunSpec,
    solver_for,
)
from repro.obs import get_registry
from repro.plan import (
    Plan,
    PlanCache,
    Planner,
    PlanResult,
    ProblemSpec,
    default_block_sizes,
    enumerate_candidates,
    pareto_mask,
    problem_fingerprint,
    problem_from_dict,
    resolve_auto_spec,
)
from repro.utils.validation import ValidationError

SMALL = dict(m=2 ** 14, n=64, procs=256, machine="stampede2")


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(m=0, n=4, procs=4)
        with pytest.raises(ValueError, match="objective"):
            ProblemSpec(m=64, n=4, procs=4, objective="latency")
        with pytest.raises(ValueError, match="mode"):
            ProblemSpec(m=64, n=4, procs=4, mode="fast")

    @pytest.mark.parametrize("depths", [(1.5,), ("2",), (-0.5,), (True,),
                                        (-1,), (0, None)])
    def test_inverse_depths_are_non_negative_ints(self, depths):
        with pytest.raises(ValidationError) as err:
            ProblemSpec(m=64, n=4, procs=4, inverse_depths=depths)
        assert err.value.field == "inverse_depths"

    def test_default_block_sizes_ladder(self):
        assert default_block_sizes(512) == (8, 16, 32, 64, 128, 256, 512)
        assert default_block_sizes(48) == (8, 16, 32)
        assert default_block_sizes(4) == ()

    def test_machine_resolution(self):
        assert ProblemSpec(**SMALL).machine_spec() is STAMPEDE2
        inline = ProblemSpec(m=64, n=4, procs=4,
                             machine=STAMPEDE2.with_ppn(16))
        assert inline.machine_spec().procs_per_node == 16


class TestEnumeration:
    def test_candidates_are_runnable(self):
        problem = ProblemSpec(**SMALL)
        groups = enumerate_candidates(problem)
        assert groups
        names = [solver.name for solver, _ in groups]
        assert "ca_cqr2" in names and "scalapack" in names
        for _solver, cands in groups:
            for cand in cands:
                spec = RunSpec(algorithm=cand.algorithm,
                               matrix=MatrixSpec(problem.m, problem.n),
                               **cand.spec_fields)
                prepared = solver_for(cand.algorithm).prepare(spec)
                assert prepared.procs == problem.procs

    def test_symbolic_mode_filters_numeric_only(self):
        def candidates(problem):
            return [c for _, cands in enumerate_candidates(problem)
                    for c in cands]

        numeric = candidates(ProblemSpec(**SMALL))
        symbolic = candidates(ProblemSpec(**SMALL, mode="symbolic"))
        assert "scalapack" in {c.algorithm for c in numeric}
        assert {c.algorithm for c in symbolic} <= {"ca_cqr2", "cqr2_1d"}
        assert all(c.symbolic_ok for c in symbolic)

    def test_algorithm_restriction_resolves_aliases(self):
        problem = ProblemSpec(algorithms=("CA-CQR2".lower().replace("-", "_"),),
                              **SMALL)
        groups = enumerate_candidates(problem)
        assert [solver.name for solver, _ in groups] == ["ca_cqr2"]

    def test_infeasible_problem_raises_capability_error(self):
        with pytest.raises(CapabilityError, match="no feasible"):
            Planner(refine=None).plan(ProblemSpec(m=7, n=3, procs=4))


class TestScreening:
    def test_screen_matches_scalar_model(self):
        """Every screened plan equals its candidate priced alone, exactly."""
        problem = ProblemSpec(**SMALL)
        machine = problem.machine_spec()
        rates = machine.cost_params()
        candidates = {(c.algorithm, c.config): c
                      for _, cands in enumerate_candidates(problem)
                      for c in cands}
        result = Planner(refine=None).plan(problem)
        assert result.num_candidates == len(candidates) == len(result.plans)
        for plan in result.plans:
            cand = candidates.pop((plan.algorithm, plan.config))
            lane = np.asarray(solver_for(cand.algorithm).screen_costs(
                problem.m, problem.n, machine, [cand]))[:, 0]
            messages, words, flops = (float(x) for x in lane)
            assert (plan.messages, plan.words, plan.flops) == (
                messages, words, flops)
            assert plan.modeled_seconds == (rates.alpha * messages
                                            + rates.beta * words
                                            + rates.gamma * flops)
            assert plan.memory_words == float(cand.memory_words)
            assert plan.spec_fields == dict(cand.spec_fields)
        assert not candidates


class TestPlanner:
    def test_screen_vs_refine_rank_agreement(self):
        """Exact symbolic replay preserves the screen's ranking."""
        problem = ProblemSpec(mode="symbolic", top_k=100, **SMALL)
        result = Planner().plan(problem)
        refined = [p for p in result.plans if p.refined]
        assert len(refined) >= 3
        by_screen = sorted(refined, key=lambda p: p.modeled_seconds)
        by_replay = sorted(refined, key=lambda p: p.refined_seconds)
        assert [p.config for p in by_screen] == [p.config for p in by_replay]
        for p in refined:
            assert p.refined_seconds == pytest.approx(p.modeled_seconds,
                                                      rel=1e-9)

    def test_ranked_by_objective(self):
        res_time = Planner(refine=None).plan(ProblemSpec(**SMALL))
        assert all(a.seconds <= b.seconds for a, b in
                   zip(res_time.plans, res_time.plans[1:]))
        # Paper scale: the screen ranks a space of >= 100 configurations.
        res_paper = Planner(refine=None).plan(ProblemSpec(
            m=2 ** 22, n=512, procs=4096, machine="stampede2"))
        assert res_paper.num_candidates >= 100
        assert all(a.seconds <= b.seconds for a, b in
                   zip(res_paper.plans, res_paper.plans[1:]))
        res_mem = Planner(refine=None).plan(
            ProblemSpec(objective="memory", **SMALL))
        assert all(a.memory_words <= b.memory_words for a, b in
                   zip(res_mem.plans, res_mem.plans[1:]))

    @pytest.mark.parametrize("refine", [None, "symbolic"])
    @pytest.mark.parametrize("objective", ["time", "memory", "messages"])
    def test_exact_tie_of_1d_and_c1_ca_cqr2(self, objective, refine):
        """1D-CQR2 and c=1 CA-CQR2 cost the same seconds and messages
        exactly; the smaller footprint ranks first, and immediately first
        where the objective ties them."""
        result = Planner(refine=refine).plan(ProblemSpec(
            m=12288, n=384, procs=256, machine="stampede2", top_k=40,
            objective=objective))
        keys = [(p.algorithm, p.config) for p in result.plans]
        one_d = keys.index(("cqr2_1d", "P=256"))
        ca = keys.index(("ca_cqr2", "1x256x1,n0=384"))
        a, b = result.plans[one_d], result.plans[ca]
        assert a.seconds == b.seconds and a.messages == b.messages
        assert a.memory_words < b.memory_words
        if objective == "memory":
            assert one_d < ca
        else:
            assert ca == one_d + 1

    @pytest.mark.parametrize("question,ca_config", [
        (dict(m=311296, n=608, procs=1024, objective="memory"),
         "1x1024x1,n0=608"),
        (dict(m=12288, n=384, procs=256, objective="time=1,memory=0.2"),
         "1x256x1,n0=384"),
    ], ids=["memory-P1024", "weighted-P256"])
    def test_audit_moves_no_ranking_or_flag(self, question, ca_config):
        """The symbolic audit never reorders or re-flags: c=1 CA-CQR2
        with n0=n ties 1D-CQR2's screened time with a larger footprint,
        so it is never Pareto, however many plans are audited."""
        problem = problem_from_dict({**question, "machine": "stampede2"})
        answers = []
        for refine in (None, "symbolic"):
            for top_k in (1, 4, 40):
                result = Planner(refine=refine).plan(
                    problem.replace(top_k=top_k))
                answers.append([(p.algorithm, p.config, p.pareto,
                                 p.within_budget) for p in result.plans])
                [ca] = [p for p in result.plans
                        if (p.algorithm, p.config) == ("ca_cqr2", ca_config)]
                assert not ca.pareto
        assert all(answer == answers[0] for answer in answers)

    def test_refine_mode_validated(self):
        with pytest.raises(ValueError, match="refine"):
            Planner(refine="analytic")

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="tall"):
            ProblemSpec(m=64, n=128, procs=4)

    def test_auto_rejects_pinned_base_case(self):
        spec = RunSpec(algorithm="ca_cqr2", grid="auto",
                       matrix=MatrixSpec(1024, 64), procs=16,
                       base_case_size=64)
        with pytest.raises(CapabilityError, match="base_case_size"):
            resolve_auto_spec(spec)

    def test_pareto_frontier(self):
        result = Planner(refine=None).plan(ProblemSpec(**SMALL))
        frontier = result.pareto_frontier()
        assert frontier
        assert result.best().pareto       # the fastest plan is undominated
        def point(p):
            return (p.seconds, p.memory_words, p.messages)

        for plan in result.plans:
            if plan.pareto:
                continue
            dominated = any(
                all(a <= b for a, b in zip(point(other), point(plan)))
                and point(other) != point(plan)
                for other in frontier)
            assert dominated, f"{plan.config} excluded but not dominated"

    def test_plan_to_run_spec_roundtrip(self):
        result = Planner(refine=None).plan(ProblemSpec(**SMALL))
        best = result.best()
        spec = best.to_run_spec(matrix=MatrixSpec(SMALL["m"], SMALL["n"]),
                                machine="stampede2")
        prepared = solver_for(best.algorithm).prepare(spec)
        assert prepared.procs == SMALL["procs"]

    def test_screened_plan_equals_the_constructed_one(self):
        # Plan.screened fills the frozen instance's dict directly; it
        # must hold exactly what Plan(...) holds, in field order.
        fields = dict(algorithm="ca_cqr2", config="2x4x2,n0=8",
                      spec_fields={"c": 2, "d": 4}, modeled_seconds=1.5,
                      messages=2.0, words=3.0, flops=4.0, memory_words=5.0,
                      pareto=True, within_budget=False)
        screened = Plan.screened(**fields)
        built = Plan(**fields)
        assert screened == built and hash(screened) == hash(built)
        assert list(vars(screened)) == [f.name for f in
                                        dataclasses.fields(Plan)]
        assert pickle.dumps(screened) == pickle.dumps(built)
        assert screened.to_dict() == built.to_dict()
        with pytest.raises(dataclasses.FrozenInstanceError):
            screened.pareto = False

    def test_result_to_dict_is_jsonable(self):
        import json

        result = Planner(refine=None).plan(ProblemSpec(**SMALL))
        encoded = json.dumps(result.to_dict())
        decoded = json.loads(encoded)
        assert decoded["num_candidates"] == result.num_candidates
        assert decoded["plans"][0]["algorithm"] == result.best().algorithm
        assert decoded["problem"]["machine"]["name"] == "stampede2"


def _pareto_mask_reference(points: np.ndarray) -> np.ndarray:
    """The pre-vectorization O(N^2) sweep, verbatim: the oracle."""
    n = len(points)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        others = points[keep]
        dominated = (np.all(others <= points[i], axis=1)
                     & np.any(others < points[i], axis=1))
        if np.any(dominated):
            keep[i] = False
    return keep


class TestParetoMask:
    def test_basic_domination(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        assert pareto_mask(pts).tolist() == [True, False, True]

    def test_duplicates_both_kept(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 0.5]])
        assert pareto_mask(pts).tolist() == [True, True, True]

    def test_empty(self):
        assert pareto_mask(np.zeros((0, 3))).tolist() == []

    def test_matches_reference_randomized(self):
        rng = np.random.default_rng(7)
        for shape in ((1, 1), (2, 3), (17, 2), (64, 3), (200, 4)):
            pts = rng.integers(0, 6, size=shape).astype(float)
            assert (pareto_mask(pts)
                    == _pareto_mask_reference(pts)).all(), shape

    def test_matches_reference_with_duplicates_and_nan(self):
        rng = np.random.default_rng(11)
        pts = rng.integers(0, 3, size=(40, 3)).astype(float)
        pts[::7] = pts[0]                       # duplicate blocks
        pts[5, 1] = np.nan                      # incomparable row
        pts[9, :] = np.nan
        assert (pareto_mask(pts) == _pareto_mask_reference(pts)).all()


class TestPlanCache:
    def test_hit_and_machine_invalidation(self, tmp_path):
        planner = Planner(refine=None, cache_dir=str(tmp_path))
        problem = ProblemSpec(**SMALL)
        cold = planner.plan(problem)
        assert not cold.from_cache
        warm = planner.plan(problem)
        assert warm.from_cache
        assert [p.config for p in warm.plans] == [p.config for p in cold.plans]

        # One calibration-field edit must invalidate the cached plan.
        tweaked = problem.replace(
            machine=dataclasses.replace(STAMPEDE2, alpha=STAMPEDE2.alpha * 2))
        assert planner.fingerprint(tweaked) != planner.fingerprint(problem)
        again = planner.plan(tweaked)
        assert not again.from_cache

    def test_registry_counts_disk_traffic(self, tmp_path):
        """Loads and stores count under ``cache.plan.*`` in the process
        registry, which the serve benchmark reads through Prometheus."""
        cache = PlanCache(str(tmp_path))
        before = get_registry().counters("cache.plan.")
        # A structurally valid entry: loads route through the plan-cache
        # verifier, so a bare dict reads as an invalid miss.
        cache.store("k", PlanResult(problem=ProblemSpec(**SMALL), plans=[],
                                    num_candidates=0))
        assert cache.load("k") is not None
        assert cache.load("absent") is None
        with open(cache.path("bad"), "wb") as fh:
            pickle.dump({"not": "a plan result"}, fh)
        assert cache.load("bad") is None
        after = get_registry().counters("cache.plan.")
        assert {event: after[f"cache.plan.{event}"]
                - before.get(f"cache.plan.{event}", 0)
                for event in ("stores", "hits", "misses", "invalid")} == {
            "stores": 1, "hits": 1, "misses": 2, "invalid": 1}

    def test_fingerprint_covers_refine_and_restriction(self):
        problem = ProblemSpec(**SMALL)
        base = problem_fingerprint(problem, refine="symbolic",
                                   algorithms=("ca_cqr2",))
        assert base != problem_fingerprint(problem, refine=None,
                                           algorithms=("ca_cqr2",))
        assert base != problem_fingerprint(problem, refine="symbolic",
                                           algorithms=("ca_cqr2", "tsqr"))


class TestAutoResolution:
    def test_auto_algorithm_resolves_and_runs(self):
        spec = RunSpec(algorithm="auto", matrix=MatrixSpec(2 ** 12, 32),
                       procs=64, machine="stampede2", mode="symbolic")
        resolved = Session().resolve(spec)
        assert resolved.algorithm != "auto"
        assert resolved.grid is None
        result = Session().run(spec)
        assert result.report.critical_path_time > 0

    def test_auto_report_bit_identical_to_direct_run(self):
        """The acceptance criterion: resolving then running == running directly."""
        spec = RunSpec(algorithm="auto", matrix=MatrixSpec(2 ** 12, 32),
                       procs=64, machine="stampede2", mode="symbolic")
        resolved = Session().resolve(spec)
        via_auto = Session().run(spec).report
        direct = Session().run(resolved).report
        assert via_auto.critical_path_time == direct.critical_path_time
        assert via_auto.max_cost == direct.max_cost
        assert via_auto.total_cost == direct.total_cost
        assert set(via_auto.phase_max) == set(direct.phase_max)
        for phase, cost in via_auto.phase_max.items():
            assert cost == direct.phase_max[phase], phase

    def test_grid_auto_keeps_named_algorithm(self):
        spec = RunSpec(algorithm="ca_cqr2", grid="auto",
                       matrix=MatrixSpec(2 ** 12, 32), procs=64,
                       machine="stampede2", mode="symbolic")
        resolved = Session().resolve(spec)
        assert resolved.algorithm == "ca_cqr2"
        assert resolved.c is not None and resolved.d is not None
        # The planner picked CA-CQR2's modeled-best grid, not the paper rule.
        best = Planner(refine=None).plan(ProblemSpec(
            m=2 ** 12, n=32, procs=64, machine=machine_by_name("stampede2"),
            algorithms=("ca_cqr2",), inverse_depths=(0,))).best()
        assert (resolved.c, resolved.d) == (best.spec_fields["c"],
                                            best.spec_fields["d"])

    def test_auto_spec_key_matches_resolved(self):
        spec = RunSpec(algorithm="auto", matrix=MatrixSpec(2 ** 12, 32),
                       procs=64, machine="stampede2", mode="symbolic")
        session = Session()
        assert session.spec_key(spec) == session.spec_key(session.resolve(spec))

    def test_auto_requires_procs(self):
        spec = RunSpec(algorithm="auto", matrix=MatrixSpec(2 ** 12, 32),
                       machine="stampede2")
        with pytest.raises(CapabilityError, match="processor count"):
            resolve_auto_spec(spec)

    def test_auto_rejects_half_pinned_grid(self):
        spec = RunSpec(algorithm="auto", matrix=MatrixSpec(2 ** 12, 32),
                       procs=64, c=2, d=16)
        with pytest.raises(CapabilityError, match="auto resolution picks"):
            resolve_auto_spec(spec)

    def test_unresolved_auto_fingerprint_refused(self):
        from repro.engine.spec import fingerprint

        spec = RunSpec(algorithm="auto", matrix=MatrixSpec(2 ** 12, 32),
                       procs=64)
        with pytest.raises(ValueError, match="resolve auto"):
            fingerprint(spec)

    def test_concrete_spec_passes_through(self):
        spec = RunSpec(algorithm="tsqr", matrix=MatrixSpec(256, 8), procs=4)
        assert Session().resolve(spec) is spec

    def test_grid_field_validation(self):
        with pytest.raises(ValueError, match="grid"):
            RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(64, 8),
                    grid="best")


class TestAutoInStudies:
    def test_auto_specs_stream_through_a_study(self, tmp_path):
        from repro.study import Axis, CriticalPathSeconds, Study

        def build(point):
            return RunSpec(algorithm="auto", matrix=MatrixSpec(2 ** 12, 32),
                           procs=point["procs"], machine="stampede2",
                           mode="symbolic")

        study = Study(name="auto-study",
                      axes=(Axis("procs", (16, 64)),),
                      metrics=(CriticalPathSeconds(),),
                      spec=build)
        table = study.run(parallel=False)
        assert all(row.ok for row in table.rows)
        assert all(row.values["seconds"] > 0 for row in table.rows)


class TestPlannerCrossoverStudy:
    def test_surface_reports_winner_and_margin(self):
        from repro.study import study_from_dict

        study = study_from_dict({"kind": "planner", "n": 64,
                                 "aspects": [16, 256], "procs": [64, 256],
                                 "machine": "stampede2"})
        table = study.run(parallel=False)
        assert len(table.rows) == 4
        ok = [row for row in table.rows if row.ok]
        assert ok
        for row in ok:
            assert row.values["algorithm"] in (
                "ca_cqr2", "cqr2_1d", "tsqr", "scalapack", "caqr")
            assert row.values["modeled_seconds"] > 0
            assert row.values["num_candidates"] >= 1

    def test_from_dict(self):
        from repro.study import study_from_dict

        study = study_from_dict({"kind": "planner-crossover", "n": 64,
                                 "aspects": [16], "procs": [64]})
        table = study.run(parallel=False)
        assert len(table.rows) == 1


class TestMachineSpecJSON:
    def test_round_trip(self):
        for name in ("stampede2", "blue-waters", "abstract"):
            preset = machine_by_name(name)
            assert MachineSpec.from_dict(preset.to_dict()) == preset

    def test_defaults_for_calibration_fields(self):
        spec = MachineSpec.from_dict({
            "name": "toy", "peak_flops_per_node": 1e12,
            "injection_bandwidth": 1e10, "procs_per_node": 32,
            "alpha": 1e-6})
        assert spec.sequential_efficiency == 0.25
        assert spec.bandwidth_efficiency == 1.0

    def test_unknown_key_rejected(self):
        data = STAMPEDE2.to_dict()
        data["alpha_typo"] = 1.0
        with pytest.raises(ValueError, match="unknown machine field"):
            MachineSpec.from_dict(data)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            MachineSpec.from_dict({"name": "toy"})

    @pytest.mark.parametrize("name", ["peak_flops_per_node",
                                      "injection_bandwidth", "alpha"])
    @pytest.mark.parametrize("value", [1e400, float("inf"), float("nan")])
    def test_non_finite_constants_rejected(self, name, value):
        data = dict(STAMPEDE2.to_dict(), **{name: value})
        with pytest.raises(ValueError, match=name):
            MachineSpec.from_dict(data)
        with pytest.raises(ValidationError, match=name) as err:
            problem_from_dict(dict(SMALL, machine=data))
        assert err.value.field == "machine"

    @pytest.mark.parametrize("name, value", [
        ("peak_flops_per_node", True), ("injection_bandwidth", True),
        ("alpha", True), ("sequential_efficiency", True),
        ("bandwidth_efficiency", True), ("qr_kernel_efficiency", True),
        ("name", 5), ("name", None)])
    def test_mistyped_machine_fields_rejected(self, name, value):
        # A JSON `true` rate or a numeric name was accepted and echoed
        # back in the answer.
        data = dict(STAMPEDE2.to_dict(), **{name: value})
        with pytest.raises(ValidationError, match=name) as err:
            problem_from_dict(dict(SMALL, machine=data))
        assert err.value.field == "machine"

    def test_machine_overflowing_the_screen_rejected(self):
        # Accepted, it ranked plans timed `inf` (an `Infinity` token in
        # the JSON answer) after a numpy overflow warning.
        data = dict(STAMPEDE2.to_dict(), peak_flops_per_node=1e-300)
        problem = problem_from_dict(dict(SMALL, machine=data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite") as err:
                Planner(refine=None).plan(problem)
        assert err.value.field == "machine"

    @pytest.mark.parametrize("extra, field", [
        ({"top_k": 0}, "top_k"), ({"block_sizes": [0]}, "block_sizes"),
        ({"algorithms": []}, "algorithms"),
        ({"inverse_depths": []}, "inverse_depths"),
        ({"m": 32, "n": 64}, "n")],
        ids=["top_k", "block_sizes", "algorithms", "inverse_depths", "wide"])
    def test_problem_checks_name_their_field(self, extra, field):
        with pytest.raises(ValidationError) as err:
            problem_from_dict(dict(SMALL, **extra))
        assert err.value.field == field

    def test_planning_for_a_custom_machine(self):
        custom = MachineSpec.from_dict({
            "name": "fat-node", "peak_flops_per_node": 8e12,
            "injection_bandwidth": 2.5e10, "procs_per_node": 128,
            "alpha": 5e-6})
        result = Planner(refine=None).plan(
            ProblemSpec(m=2 ** 14, n=64, procs=256, machine=custom))
        assert result.best().seconds > 0
