"""Multi-objective planning: weights, budgets, parsing, planner honoring."""

from typing import ClassVar

import numpy as np
import pytest

from repro.engine import CapabilityError, MatrixSpec, RunSpec
from repro.plan import (
    Budget,
    Objective,
    Planner,
    ProblemSpec,
    problem_fingerprint,
    problem_from_dict,
    resolve_auto_spec,
)
from repro.utils.validation import ValidationError

POINT = dict(m=2 ** 14, n=64, procs=256, machine="stampede2")


class TestBudget:
    def test_parse(self):
        budget = Budget.parse("memory<=8e6")
        assert budget.metric == "memory"
        assert budget.limit == 8e6
        assert str(budget) == "memory<=8e+06"

    def test_parse_rejects_garbage(self):
        for text in ("mem<=1", "memory>=1", "memory", "memory<=x", ""):
            with pytest.raises(ValueError, match="budget"):
                Budget.parse(text)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Budget("time", 0.0)

    @pytest.mark.parametrize("limit", [1e400, float("inf"), float("nan")])
    def test_limit_must_be_finite(self, limit):
        with pytest.raises(ValueError, match="finite"):
            Budget("memory", limit)

    def test_parse_rejects_overflowing_limit(self):
        with pytest.raises(ValueError, match="finite"):
            Budget.parse("memory<=1e400")


class TestObjective:
    def test_default_is_pure_time(self):
        obj = Objective()
        assert obj.is_plain
        assert obj.primary_metric == "time"
        assert str(obj) == "time"

    def test_parse_single_metric(self):
        assert Objective.parse("memory") == Objective.single("memory")
        assert str(Objective.parse("messages")) == "messages"

    def test_parse_weights(self):
        obj = Objective.parse("time=1,memory=0.2")
        assert dict(obj.weights) == {"time": 1.0, "memory": 0.2}
        assert not obj.is_plain
        assert obj.primary_metric == "time"
        assert str(obj) == "memory=0.2,time=1"

    def test_parse_with_budgets(self):
        obj = Objective.parse("time", budgets=("memory<=8e6",))
        assert obj.budgets == (Budget("memory", 8e6),)
        assert not obj.is_plain          # constrained => not the legacy path
        assert "s.t. memory<=8e+06" in str(obj)

    def test_parse_rejects_unknown_metric_and_bad_weight(self):
        with pytest.raises(ValueError, match="metric"):
            Objective.parse("latency")
        with pytest.raises(ValueError, match="weight"):
            Objective.parse("time=fast")
        with pytest.raises(ValueError, match="positive weight"):
            Objective.parse("time=0,memory=0")

    @pytest.mark.parametrize("text", ["time=1,memory=1e400", "time=inf",
                                      "time=1,messages=-inf",
                                      "time=1,memory=nan"])
    def test_parse_rejects_non_finite_weights(self, text):
        with pytest.raises(ValueError, match="finite"):
            Objective.parse(text)

    def test_non_finite_weights_rejected_in_every_spelling(self):
        with pytest.raises(ValueError, match="finite"):
            Objective(weights={"time": float("inf")})
        with pytest.raises(ValueError, match="finite"):
            Objective.coerce({"time": 1.0, "memory": float("inf")})

    def test_parse_rejects_duplicate_metric(self):
        # A likely typo ("time=1,time=0.2" for "...,memory=0.2") must not
        # silently rank by the last spelling.
        with pytest.raises(ValueError, match="duplicate metric"):
            Objective.parse("time=1,time=0.2")
        with pytest.raises(ValueError, match="duplicate metric"):
            Objective.parse("memory,memory")

    def test_coerce(self):
        assert Objective.coerce(None) == Objective()
        assert Objective.coerce("memory") == Objective.single("memory")
        assert Objective.coerce({"time": 1, "memory": 2}) == \
            Objective.parse("time=1,memory=2")
        obj = Objective.parse("time=1,messages=3")
        assert Objective.coerce(obj) is obj
        with pytest.raises(ValueError):
            Objective.coerce(42)

    def test_weights_canonicalized_for_hashing(self):
        a = Objective.parse("time=1,memory=0.2")
        b = Objective.parse("memory=0.2,time=1")
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)

    def test_scores_are_normalized_ratios(self):
        obj = Objective.parse("time=1,memory=0.5")
        scores = obj.scores([2.0, 1.0], [10.0, 40.0], [1.0, 1.0])
        # best-of-each normalization: [2/1 + 0.5*1, 1/1 + 0.5*4]
        np.testing.assert_allclose(scores, [2.5, 3.0])

    def test_within_and_violation(self):
        obj = Objective.single("time", budgets=(Budget("memory", 20.0),))
        within = obj.within([1.0, 1.0], [10.0, 30.0], [0.0, 0.0])
        assert within.tolist() == [True, False]
        violation = obj.violation([1.0, 1.0], [10.0, 30.0], [0.0, 0.0])
        np.testing.assert_allclose(violation, [0.0, 0.5])


class TestProblemSpecObjective:
    def test_accepts_objective_instance(self):
        obj = Objective.parse("time=1,memory=0.2")
        problem = ProblemSpec(objective=obj, **POINT)
        assert problem.objective_spec() is obj

    def test_plain_string_coerces(self):
        problem = ProblemSpec(objective="memory", **POINT)
        assert problem.objective_spec() == Objective.single("memory")

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="objective"):
            ProblemSpec(objective="latency", **POINT)
        with pytest.raises(ValueError, match="objective"):
            ProblemSpec(objective=3.14, **POINT)

    def test_fingerprint_covers_objective(self):
        plain = ProblemSpec(**POINT)
        weighted = ProblemSpec(objective=Objective.parse("time=1,memory=1"),
                               **POINT)
        budgeted = ProblemSpec(
            objective=Objective.single("time", budgets=(Budget("memory", 2e4),)),
            **POINT)
        prints = {problem_fingerprint(p, refine=None, algorithms=("ca_cqr2",))
                  for p in (plain, weighted, budgeted)}
        assert len(prints) == 3


    @pytest.mark.parametrize("objective, field", [
        ("time=1,memory=1e400", "objective"),
        ({"weights": {"time": float("inf")}}, "objective"),
        ({"time": 1.0, "memory": float("inf")}, "objective"),
        ({"budgets": [{"metric": "memory", "limit": 1e400}]},
         "objective.budgets"),
        ({"budgets": ["memory<=1e400"]}, "objective.budgets"),
    ])
    def test_non_finite_request_objective_is_labelled(self, objective,
                                                      field):
        # A non-finite weight or limit would serialize as a bare
        # `Infinity` token (not JSON) and flatten the ranking.
        with pytest.raises(ValidationError, match="finite") as err:
            problem_from_dict(dict(POINT, objective=objective))
        assert err.value.field == field


class TestPlannerHonorsObjectives:
    def test_plain_objective_object_matches_legacy_string(self):
        """Objective.single ranks exactly like the historical plain string."""
        by_str = Planner(refine=None).plan(
            ProblemSpec(objective="memory", **POINT))
        by_obj = Planner(refine=None).plan(
            ProblemSpec(objective=Objective.single("memory"), **POINT))
        assert [p.config for p in by_str.plans] == \
            [p.config for p in by_obj.plans]

    def test_weighted_objective_changes_the_ranking(self):
        """Acceptance: a weighted objective differs from pure-time ranking."""
        pure = Planner(refine=None).plan(ProblemSpec(**POINT))
        weighted = Planner(refine=None).plan(
            ProblemSpec(objective=Objective.parse("time=1,memory=1"), **POINT))
        assert pure.best().algorithm == "cqr2_1d"
        assert weighted.best().algorithm != pure.best().algorithm
        assert [p.config for p in weighted.plans] != \
            [p.config for p in pure.plans]
        # The weighted winner trades a little time for a lot of memory.
        assert weighted.best().memory_words < pure.best().memory_words

    def test_budget_constraint_changes_the_winner(self):
        """Acceptance: "fastest plan with <= X words/rank" is honored."""
        pure = Planner(refine=None).plan(ProblemSpec(**POINT))
        limit = pure.best().memory_words * 0.9
        feasible = [p for p in pure.plans if p.memory_words <= limit]
        assert feasible        # the point admits a under-budget alternative
        budgeted = Planner(refine=None).plan(ProblemSpec(
            objective=Objective.single("time", budgets=(Budget("memory", limit),)),
            **POINT))
        best = budgeted.best()
        assert best.config != pure.best().config
        assert best.within_budget
        assert best.memory_words <= limit
        # ... and it is the *fastest* of the plans within budget.
        assert best.seconds == min(p.seconds for p in feasible)

    def test_violators_rank_after_feasible_plans(self):
        limit = 2e4
        result = Planner(refine=None).plan(ProblemSpec(
            objective=Objective.single("time", budgets=(Budget("memory", limit),)),
            **POINT))
        flags = [p.within_budget for p in result.plans]
        assert True in flags and False in flags
        assert flags == sorted(flags, reverse=True)   # feasible block first
        for plan in result.plans:
            assert plan.within_budget == (plan.memory_words <= limit)

    def test_plan_cache_distinguishes_objectives(self, tmp_path):
        planner = Planner(refine=None, cache_dir=str(tmp_path))
        pure = planner.plan(ProblemSpec(**POINT))
        weighted = planner.plan(ProblemSpec(
            objective=Objective.parse("time=1,memory=1"), **POINT))
        assert not weighted.from_cache
        assert weighted.best().config != pure.best().config
        warm = planner.plan(ProblemSpec(
            objective=Objective.parse("time=1,memory=1"), **POINT))
        assert warm.from_cache
        assert [p.config for p in warm.plans] == \
            [p.config for p in weighted.plans]


class TestAutoResolutionObjectives:
    SPEC: ClassVar[dict] = dict(matrix=MatrixSpec(2 ** 14, 64), procs=256,
                machine="stampede2")

    def test_objective_changes_resolution(self):
        spec = RunSpec(algorithm="auto", **self.SPEC)
        default = resolve_auto_spec(spec)
        budgeted = resolve_auto_spec(
            spec, objective=Objective.single(
                "time", budgets=(Budget("memory", 2e4),)))
        assert default.algorithm != budgeted.algorithm

    def test_infeasible_budget_raises(self):
        spec = RunSpec(algorithm="auto", **self.SPEC)
        with pytest.raises(CapabilityError, match="satisfies"):
            resolve_auto_spec(spec, objective=Objective.single(
                "time", budgets=(Budget("memory", 10.0),)))

    def test_string_objective_accepted(self):
        spec = RunSpec(algorithm="auto", **self.SPEC)
        resolved = resolve_auto_spec(spec, objective="time=1,memory=1")
        assert resolved.algorithm != "auto"
