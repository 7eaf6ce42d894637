"""Plan serialization and cache keys against ``dataclasses`` oracles.

``Plan.to_dict``, ``PlanResult.to_dict`` and ``MachineSpec.to_dict`` read
their fields flat instead of through ``dataclasses.asdict``, and the
fingerprints feed flat field tuples instead of ``dataclasses.astuple``.
The references below keep the deep-copying forms as the oracle: dicts,
``json.dumps`` bytes and hex digests must match them exactly, so served
bytes, ``repro plan --json`` output and every on-disk cache key stay put.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.costmodel.params import (
    ABSTRACT_MACHINE,
    BLUE_WATERS,
    STAMPEDE2,
    MachineSpec,
)
from repro.engine.registry import available_algorithms
from repro.engine.spec import MatrixSpec, RunSpec, fingerprint
from repro.plan import (
    Budget,
    Objective,
    Planner,
    ProblemSpec,
    problem_fingerprint,
)
from repro.plan.problem import PLANNER_VERSION

CUSTOM = MachineSpec(name="fat-node", peak_flops_per_node=8e12,
                     injection_bandwidth=2.5e10, procs_per_node=128,
                     alpha=5e-6, sequential_efficiency=0.3)
MACHINES = [STAMPEDE2, BLUE_WATERS, ABSTRACT_MACHINE, CUSTOM]


# -- the dataclasses oracles ------------------------------------------------------


def plan_reference(plan) -> dict:
    out = dataclasses.asdict(plan)
    out["seconds"] = plan.seconds
    out["refined"] = plan.refined
    return out


def result_reference(result) -> dict:
    problem = dataclasses.asdict(result.problem)
    problem["machine"] = dataclasses.asdict(result.problem.machine_spec())
    return {
        "problem": problem,
        "plans": [plan_reference(p) for p in result.plans],
        "num_candidates": result.num_candidates,
        "screen_seconds": result.screen_seconds,
        "refine_seconds": result.refine_seconds,
        "refined_count": result.refined_count,
        "refine_mode": result.refine_mode,
        "from_cache": result.from_cache,
    }


def _feed(h, *parts) -> None:
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")


def problem_fingerprint_reference(problem, *, refine, algorithms) -> str:
    h = hashlib.sha256()
    _feed(h, PLANNER_VERSION, problem.m, problem.n, problem.procs,
          problem.mode, problem.objective, problem.effective_block_sizes(),
          problem.inverse_depths, problem.top_k, refine, algorithms)
    _feed(h, dataclasses.astuple(problem.machine_spec()))
    return h.hexdigest()


def engine_fingerprint_reference(spec) -> str:
    h = hashlib.sha256()
    _feed(h, "repro-engine-v1", spec.algorithm)
    if spec.data is not None:
        arr = np.ascontiguousarray(np.asarray(spec.data, dtype=np.float64))
        _feed(h, "data", arr.shape, hashlib.sha256(arr.tobytes()).hexdigest())
    else:
        _feed(h, "matrix", dataclasses.astuple(spec.matrix))
    _feed(h, spec.procs, spec.c, spec.d, spec.pr, spec.pc, spec.block_size,
          spec.mode, spec.base_case_size)
    _feed(h, dataclasses.astuple(spec.machine_spec()))
    return h.hexdigest()


def assert_same(actual: dict, expected: dict) -> None:
    assert actual == expected
    assert json.dumps(actual) == json.dumps(expected)
    assert (json.dumps(actual, indent=2, sort_keys=True)
            == json.dumps(expected, indent=2, sort_keys=True))


# -- serialization ------------------------------------------------------------------


BUDGETED = Objective.parse("time=1,memory=0.2",
                           budgets=("memory<=40000", "messages<=64"))


@pytest.fixture(scope="module")
def budgeted_results():
    """Every registered algorithm, refined and unrefined, over budget."""
    problem = ProblemSpec(m=16384, n=64, procs=64, machine="stampede2",
                          objective=BUDGETED, top_k=6)
    return [Planner(refine=refine).plan(problem)
            for refine in ("symbolic", None)]


class TestPlanToDict:
    def test_covers_every_algorithm_and_state(self, budgeted_results):
        plans = [p for r in budgeted_results for p in r.plans]
        assert {p.algorithm for p in plans} == set(available_algorithms())
        assert {p.refined for p in plans} == {True, False}
        assert {p.within_budget for p in plans} == {True, False}

    def test_matches_asdict_oracle(self, budgeted_results):
        for result in budgeted_results:
            for plan in result.plans:
                assert_same(plan.to_dict(), plan_reference(plan))

    def test_schema_is_field_order_plus_derived(self, budgeted_results):
        plan = budgeted_results[0].plans[0]
        assert list(plan.to_dict()) == (
            [f.name for f in dataclasses.fields(plan)]
            + ["seconds", "refined"])

    def test_mutating_the_dict_leaves_the_plan(self, budgeted_results):
        plan = budgeted_results[0].plans[0]
        before = plan_reference(plan)
        out = plan.to_dict()
        out["spec_fields"]["c"] = 999
        out["spec_fields"].clear()
        out["algorithm"] = "mutated"
        out["refined_seconds"] = -1.0
        assert plan_reference(plan) == before
        assert plan.to_dict() == before


def _problems():
    base = dict(m=16384, n=64, procs=256)
    return [
        ProblemSpec(**base),
        ProblemSpec(**base, machine="blue-waters", objective="memory",
                    algorithms=("ca_cqr2", "scalapack"),
                    block_sizes=(16, 32)),
        ProblemSpec(**base, machine=CUSTOM, mode="symbolic",
                    objective=BUDGETED),
        ProblemSpec(**base, machine=CUSTOM,
                    objective=Objective.single("time", (Budget("memory", 1e5),)),
                    algorithms=("ca_cqr2", "caqr", "cqr2_1d"),
                    block_sizes=(32,), inverse_depths=(0, 2), top_k=2),
    ]


class TestPlanResultToDict:
    @pytest.mark.parametrize("index", range(len(_problems())))
    @pytest.mark.parametrize("refine", ["symbolic", None])
    def test_matches_asdict_oracle(self, index, refine):
        result = Planner(refine=refine).plan(_problems()[index])
        assert_same(result.to_dict(), result_reference(result))

    def test_objective_block_keeps_budget_dicts(self):
        result = Planner(refine=None).plan(_problems()[2])
        objective = result.to_dict()["problem"]["objective"]
        assert list(objective) == ["weights", "budgets"]
        assert objective["budgets"] == (
            {"metric": "memory", "limit": 40000.0},
            {"metric": "messages", "limit": 64.0})

    def test_mutating_the_dict_leaves_the_result(self):
        result = Planner(refine=None).plan(_problems()[2])
        before = result_reference(result)
        out = result.to_dict()
        out["problem"]["machine"]["alpha"] = 1.0
        out["problem"]["objective"]["budgets"][0]["limit"] = 1.0
        out["plans"][0]["spec_fields"].clear()
        out["plans"].clear()
        assert result_reference(result) == before
        assert CUSTOM.alpha == 5e-6


class TestMachineSpecToDict:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_matches_asdict_oracle(self, machine):
        assert_same(machine.to_dict(), dataclasses.asdict(machine))

    def test_returns_a_fresh_dict(self):
        out = STAMPEDE2.to_dict()
        out["alpha"] = 1.0
        assert STAMPEDE2.to_dict()["alpha"] == 1.9e-5


# -- cache keys -----------------------------------------------------------------------


QUESTIONS = [
    (ProblemSpec(m=16384, n=64, procs=256, machine="stampede2"),
     "symbolic", ("ca_cqr2", "cqr2_1d", "scalapack")),
    (ProblemSpec(m=65536, n=128, procs=1024, machine="blue-waters",
                 mode="symbolic",
                 objective=Objective.parse("time=1,memory=0.2",
                                           budgets=("memory<=8e6",)),
                 block_sizes=(16, 32)),
     None, ("ca_cqr2", "caqr")),
    (ProblemSpec(m=8192, n=32, procs=64, machine=CUSTOM, objective="memory"),
     "symbolic", ("ca_cqr2",)),
]

SPECS = [
    RunSpec("ca_cqr2", matrix=MatrixSpec(4096, 32), c=2, d=4,
            machine="stampede2", mode="symbolic"),
    RunSpec("scalapack", matrix=MatrixSpec(2048, 64, kind="conditioned",
                                           condition=1e6, seed=3),
            pr=4, pc=2, block_size=16, machine="blue-waters"),
    RunSpec("cqr2_1d", data=np.arange(64.0).reshape(16, 4), procs=4,
            machine=CUSTOM),
]

#: Plan-cache keys of QUESTIONS and result-cache keys of SPECS.  A change
#: here invalidates every cache on disk: bump the version tags instead.
PINNED_PROBLEM_KEYS = [
    "45108df8c4cd2bb774b0da7d98c06a2e309c91a6371d9143a403af9fd5956b82",
    "00542ca23fa3e5542e5c6b88991ea78e308bd2ca0e5a4af2575e68e472091643",
    "4f0f859535e055059cd1cf467acd8a2fababdef0c9d97c14c0e5ac148376858a",
]
PINNED_ENGINE_KEYS = [
    "0e6950819b0c30221d55e824c5a42ed3c863669854fe36fd9bd0ef8114e47f7a",
    "31cfa40820ab057e8ee9c01d7903256d2acc3c977abd11c9a42c06d4978d3b93",
    "b83e7ad33118992ed4906db73e794a9457abb83182eef56c126a7cb4c157b268",
]


class TestFingerprints:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_problem_fingerprint_matches_astuple_formula(self, machine):
        for objective in ("time", BUDGETED):
            problem = ProblemSpec(m=4096, n=32, procs=16, machine=machine,
                                  objective=objective)
            for refine in ("symbolic", None):
                args = dict(refine=refine,
                            algorithms=tuple(available_algorithms()))
                assert (problem_fingerprint(problem, **args)
                        == problem_fingerprint_reference(problem, **args))

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_engine_fingerprint_matches_astuple_formula(self, machine):
        for spec in SPECS:
            spec = spec.replace(machine=machine)
            assert fingerprint(spec) == engine_fingerprint_reference(spec)

    def test_pinned_problem_keys(self):
        assert [problem_fingerprint(p, refine=r, algorithms=a)
                for p, r, a in QUESTIONS] == PINNED_PROBLEM_KEYS

    def test_pinned_engine_keys(self):
        assert [fingerprint(s) for s in SPECS] == PINNED_ENGINE_KEYS
