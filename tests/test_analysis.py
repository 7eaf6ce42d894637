"""repro.analysis: verifier, cache sweeps, and the CLI.

The proof obligations of the static-verification layer:

* every program the suite's own algorithms capture verifies clean, and a
  property-sized family of randomly generated valid programs does too;
* one seeded mutation per rule yields exactly that rule's finding (the
  mutation-kill table -- a rule nothing can trigger is dead weight);
* semantically invalid cache entries (valid pickles, wrong structure)
  load as misses under ``cache.<name>.invalid``;
* ``repro check`` exits non-zero exactly when there are findings.
"""

from __future__ import annotations

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    BINDING_RULES,
    CACHE_RULES,
    Finding,
    PROGRAM_RULES,
    VerificationError,
    check_plan_cache,
    findings_table,
    has_errors,
    require_verified,
    sort_findings,
    verify_binding,
    verify_plan_result,
    verify_program,
)
from repro.cli import main
from repro.costmodel.collectives import CollectiveCost
from repro.engine import MatrixSpec, RunSpec
from repro.engine.registry import solver_for
from repro.obs.metrics import get_registry
from repro.plan.cache import PlanCache
from repro.plan.planner import PlanResult
from repro.plan.problem import ProblemSpec
from repro.sched.binding import RankFamilyMap
from repro.sched.capture import capture_run
from repro.sched.program import (
    OP_BARRIER,
    OP_COMM,
    OP_FLOPS,
    ChargeOp,
    ChargeProgram,
)
from repro.sched.recorder import ScheduleRecorder
from repro.vmpi.machine import lines_along

from tests.conftest import make_cubic, make_tunable


def prepared(algorithm, **kw):
    spec = RunSpec(algorithm=algorithm, matrix=MatrixSpec(2 ** 12, 32),
                   mode="symbolic", **kw)
    return solver_for(spec.algorithm).prepare(spec)


def raw_op(kind, ranks, payload, phase, axis=None):
    """A ChargeOp bypassing construction-time validation (for mutations)."""
    op = object.__new__(ChargeOp)
    op.kind = kind
    op.ranks = ranks
    op.payload = payload
    op.phase = phase
    op.axis = axis
    return op


def raw_program(num_ranks, phases, ops):
    """A ChargeProgram bypassing construction-time validation."""
    program = object.__new__(ChargeProgram)
    program.num_ranks = num_ranks
    program.phases = list(phases)
    program.ops = list(ops)
    return program


def flops_op(ranks, payload=1.0, phase=0):
    return ChargeOp(OP_FLOPS, np.asarray(ranks, dtype=np.intp),
                    float(payload), phase)


def comm_op(groups, messages=1.0, words=8.0, phase=0):
    return ChargeOp(OP_COMM, np.asarray(groups, dtype=np.intp),
                    CollectiveCost(messages, words), phase)


def axis_op(shape=(2, 4), axis=1, phase=0):
    """A comm op over the lines along *axis* of the *shape* view, tagged."""
    lines = lines_along(np.arange(math.prod(shape), dtype=np.intp)
                        .reshape(shape), axis)
    return ChargeOp(OP_COMM, np.ascontiguousarray(lines),
                    CollectiveCost(1.0, 8.0), phase, axis=(shape, axis))


def small_program():
    """A minimal valid program touching all three op kinds."""
    return ChargeProgram(4, ["a", "b"], [
        flops_op([0, 1], 10.0, 0),
        comm_op([[0, 1], [2, 3]], 1.0, 16.0, 1),
        ChargeOp(OP_BARRIER, None, None, -1),
    ])


# -- clean-pass proofs --------------------------------------------------------------


CAPTURE_CONFIGS = [
    ("ca_cqr2", dict(c=2, d=8)),
    ("ca_cqr2", dict(c=1, d=16)),
    ("cqr2_1d", dict(procs=16)),
]


class TestCapturedProgramsVerifyClean:
    @pytest.mark.parametrize("algorithm,kw", CAPTURE_CONFIGS)
    def test_suite_captures_verify_clean(self, algorithm, kw):
        program, _ = capture_run(prepared(algorithm, **kw))
        assert verify_program(program) == []
        assert len(program) > 0

    def test_identity_binding_verifies_clean(self):
        program, _ = capture_run(prepared("cqr2_1d", procs=16))
        binding = RankFamilyMap.identity(program.num_ranks)
        assert verify_binding(program, binding,
                              machine_ranks=program.num_ranks) == []

    def test_subcube_binding_verifies_clean(self):
        vm, grid = make_tunable(2, 8)
        _, template = make_cubic(2)
        binding = RankFamilyMap.subcubes(grid, template)
        program = raw_program(template.size, [], [])
        assert verify_binding(program, binding,
                              machine_ranks=vm.num_ranks) == []

    def test_small_handbuilt_program_verifies_clean(self):
        assert verify_program(small_program()) == []


@st.composite
def valid_programs(draw):
    """Random structurally valid programs over a small template space."""
    num_ranks = draw(st.integers(min_value=2, max_value=8))
    phases = [f"p{i}" for i in range(draw(st.integers(1, 3)))]
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from([OP_FLOPS, OP_COMM, OP_BARRIER]))
        phase = draw(st.integers(0, len(phases) - 1))
        if kind == OP_FLOPS:
            ranks = draw(st.lists(st.integers(0, num_ranks - 1),
                                  min_size=1, max_size=num_ranks,
                                  unique=True))
            payload = draw(st.floats(0, 1e9, allow_nan=False,
                                     allow_infinity=False))
            ops.append(flops_op(ranks, payload, phase))
        elif kind == OP_COMM:
            # Disjoint groups: partition a sample of the rank space.
            members = draw(st.lists(st.integers(0, num_ranks - 1),
                                    min_size=2, max_size=num_ranks,
                                    unique=True))
            size = 2 if len(members) % 2 == 0 else 1
            groups = np.asarray(members[:len(members) - len(members) % size],
                                dtype=np.intp).reshape(-1, size)
            if groups.size == 0:
                continue
            ops.append(ChargeOp(OP_COMM, groups,
                                CollectiveCost(draw(st.floats(0, 100)),
                                               draw(st.floats(0, 1e6))),
                                phase))
        else:
            ops.append(ChargeOp(OP_BARRIER, None, None, -1))
    # Reference every phase so dead-phase warnings cannot fire.
    for i in range(len(phases)):
        ops.append(flops_op([0], 1.0, i))
    return ChargeProgram(num_ranks, phases, ops)


class TestPropertyValidPrograms:
    @settings(max_examples=40, deadline=None)
    @given(program=valid_programs())
    def test_generated_programs_verify_clean(self, program):
        assert verify_program(program) == []


# -- seeded mutations: one corrupted program per rule -------------------------------


def _mutations():
    """(rule, corrupted program) pairs -- each kills exactly one rule."""
    cases = []

    p = small_program()
    p.num_ranks = -1
    cases.append(("ir/program-ranks", p))

    cases.append(("ir/phase-table",
                  raw_program(4, ["a", "a"],
                              [flops_op([0], 1.0, 0), flops_op([0], 1.0, 1)])))

    p = small_program()
    p.ops[2].kind = "bogus"   # the barrier: no phase reference is lost
    cases.append(("ir/op-kind", p))

    p = small_program()
    p.ops[0].ranks = np.zeros((2, 2), dtype=np.intp)  # 2D flops family
    cases.append(("ir/rank-shape", p))

    p = small_program()
    p.ops[0].ranks = np.asarray([0, 4], dtype=np.intp)  # 4 == num_ranks
    cases.append(("ir/rank-bounds", p))

    p = small_program()
    p.ops[1].ranks = np.asarray([[0, 1], [1, 2]], dtype=np.intp)
    cases.append(("ir/comm-disjoint", p))

    p = small_program()
    p.ops[0].payload = float("nan")
    cases.append(("ir/flops-payload", p))

    p = small_program()
    p.ops[1].payload = CollectiveCost(-1.0, 8.0)
    cases.append(("ir/comm-payload", p))

    p = small_program()
    p.ops[2].payload = 1.0
    cases.append(("ir/barrier-payload", p))

    # A second op keeps phase "a" referenced once ops[1] is corrupted.
    p = ChargeProgram(4, ["a", "b"], [
        flops_op([0], 1.0, 0), flops_op([1], 2.0, 0),
        comm_op([[0, 1]], phase=1)])
    p.ops[1].phase = 9
    cases.append(("ir/phase-index", p))

    cases.append(("ir/dead-phase",
                  raw_program(4, ["a", "dead"], [flops_op([0], 1.0, 0)])))

    p = ChargeProgram(8, ["a"], [axis_op()])
    p.ops[0].axis = ((2, 4), 0)    # the tag no longer names ranks' lines
    cases.append(("ir/axis-form", p))
    return cases


class TestSeededMutations:
    @pytest.mark.parametrize("rule,program",
                             _mutations(), ids=[r for r, _ in _mutations()])
    def test_mutation_yields_exactly_that_rule(self, rule, program):
        findings = verify_program(program)
        assert {f.rule for f in findings} == {rule}
        expected = ("warning" if PROGRAM_RULES[rule].endswith("(warning)")
                    else "error")
        assert {f.severity for f in findings} == {expected}

    def test_every_program_rule_has_a_mutation(self):
        assert {r for r, _ in _mutations()} == set(PROGRAM_RULES)

    def test_require_verified_raises_with_findings(self):
        p = small_program()
        p.ops[0].payload = float("-inf")
        with pytest.raises(VerificationError) as exc:
            require_verified(p, "mutant")
        assert "mutant" in str(exc.value)
        assert any(f.rule == "ir/flops-payload" for f in exc.value.findings)

    def test_warnings_do_not_reject(self):
        dead = raw_program(4, ["a", "dead"], [flops_op([0], 1.0, 0)])
        assert require_verified(dead) is dead


class TestAxisFormRule:
    """One poisoned op per way an axis tag can disagree with its op."""

    def test_tagged_program_verifies_clean(self):
        assert verify_program(ChargeProgram(8, ["a"], [axis_op()])) == []
        recorder = ScheduleRecorder(8)
        recorder.charge_comm_axis((2, 2, 2), 0, CollectiveCost(1, 1), "a")
        assert verify_program(recorder.program()) == []

    @pytest.mark.parametrize("op", [
        raw_op(OP_FLOPS, np.arange(8, dtype=np.intp), 1.0, 0,
               axis=((8,), 0)),
        raw_op(OP_COMM, axis_op().ranks, CollectiveCost(1.0, 8.0), 0,
               axis=((2, 2), 1)),
        raw_op(OP_COMM, axis_op().ranks, CollectiveCost(1.0, 8.0), 0,
               axis=((2, 4), 2)),
        raw_op(OP_COMM, axis_op().ranks, CollectiveCost(1.0, 8.0), 0,
               axis=((4, 2), 0)),
        raw_op(OP_COMM, axis_op().ranks[::-1].copy(),
               CollectiveCost(1.0, 8.0), 0, axis=((2, 4), 1)),
        raw_op(OP_COMM, axis_op().ranks, CollectiveCost(1.0, 8.0), 0,
               axis="rows"),
        raw_op(OP_COMM, axis_op().ranks, CollectiveCost(1.0, 8.0), 0,
               axis=((True, 8), 1)),
        raw_op(OP_COMM, axis_op().ranks, CollectiveCost(1.0, 8.0), 0,
               axis=((-2, -4), 1)),
    ], ids=["not-comm", "view-size", "axis-range", "other-lines",
            "row-order", "malformed", "bool-extent", "negative-extents"])
    def test_poisoned_tag_yields_axis_form(self, op):
        findings = verify_program(raw_program(8, ["a"], [op]))
        assert [(f.rule, f.loc) for f in findings] == \
            [("ir/axis-form", "op[0]")]


class TestBindingMutations:
    def test_template_size_mismatch(self):
        findings = verify_binding(small_program(), RankFamilyMap.identity(8))
        assert {f.rule for f in findings} == {"bind/template-size"}

    def test_instance_overlap(self):
        binding = RankFamilyMap(
            np.asarray([[0, 1, 2, 3], [3, 4, 5, 6]], dtype=np.intp),
            validate=False)
        findings = verify_binding(small_program(), binding)
        assert {f.rule for f in findings} == {"bind/instance-disjoint"}

    def test_rank_bounds(self):
        binding = RankFamilyMap(
            np.asarray([[-1, 0, 1, 2]], dtype=np.intp), validate=False)
        findings = verify_binding(small_program(), binding)
        assert {f.rule for f in findings} == {"bind/rank-bounds"}

    def test_partial_coverage_is_a_warning(self):
        findings = verify_binding(small_program(), RankFamilyMap.identity(4),
                                  machine_ranks=8)
        assert [(f.rule, f.severity) for f in findings] == \
            [("bind/machine-coverage", "warning")]

    def test_every_binding_rule_is_exercised(self):
        assert set(BINDING_RULES) == {"bind/template-size",
                                      "bind/instance-disjoint",
                                      "bind/rank-bounds",
                                      "bind/machine-coverage"}


# -- capture-time gate --------------------------------------------------------------


class TestCaptureGate:
    def _poisoned_recorder(self):
        recorder = ScheduleRecorder(4)
        recorder.charge_flops_group(np.arange(4), 10.0, "phase")
        recorder._ops.append(raw_op(OP_FLOPS,
                                    np.asarray([0], dtype=np.intp),
                                    float("nan"), 0))
        return recorder

    def test_debug_true_rejects_invalid_capture(self):
        with pytest.raises(VerificationError):
            self._poisoned_recorder().program(debug=True)

    def test_debug_false_skips_the_gate(self):
        assert len(self._poisoned_recorder().program(debug=False)) == 2

    def test_env_flag_gates_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHED_VERIFY", "1")
        with pytest.raises(VerificationError):
            self._poisoned_recorder().program()
        monkeypatch.setenv("REPRO_SCHED_VERIFY", "0")
        assert len(self._poisoned_recorder().program()) == 2

    def test_capture_run_threads_debug(self):
        program, _ = capture_run(prepared("cqr2_1d", procs=8), debug=True)
        assert verify_program(program) == []


# -- construction-time structural validation ----------------------------------------


class TestConstructionValidation:
    def test_negative_num_ranks_rejected(self):
        with pytest.raises(ValueError):
            ChargeProgram(-1, [], [])

    def test_bool_num_ranks_rejected(self):
        with pytest.raises(ValueError):
            ChargeProgram(True, [], [])

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(ValueError):
            ChargeOp("warp", None, None, -1)

    def test_phase_outside_table_rejected(self):
        op = flops_op([0], 1.0, 2)
        with pytest.raises(ValueError):
            ChargeProgram(4, ["only-one"], [op])

    def test_phaseless_barrier_accepted(self):
        program = ChargeProgram(4, [], [ChargeOp(OP_BARRIER, None, None, -1)])
        assert len(program) == 1


# -- invalid cache entries read as misses (the bugfix) ------------------------------


class TestInvalidCacheEntriesAreMisses:
    def _store_raw(self, cache, key, value):
        with open(cache.path(key), "wb") as fh:
            pickle.dump(value, fh)

    def test_invalid_entry_is_a_miss_in_bulk(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        cache.store("good", PlanResult(
            problem=ProblemSpec(m=4096, n=64, procs=16), plans=[],
            num_candidates=0))
        self._store_raw(cache, "bad", {"not": "a plan result"})
        found = cache.load_many(["good", "bad", "absent"])
        assert set(found) == {"good"}

    def test_plan_cache_rejects_structural_garbage(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        self._store_raw(cache, "bad", {"not": "a plan result"})
        before = get_registry().counter("cache.plan.invalid").value
        assert cache.load("bad") is None
        assert get_registry().counter("cache.plan.invalid").value == \
            before + 1
        valid = PlanResult(problem=ProblemSpec(m=4096, n=64, procs=16),
                           plans=[], num_candidates=0)
        cache.store("good", valid)
        assert cache.load("good") == valid

    def test_plan_result_structure_rules(self):
        assert verify_plan_result({"nope": 1}) != []
        valid = PlanResult(problem=ProblemSpec(m=4096, n=64, procs=16),
                           plans=[], num_candidates=0)
        assert verify_plan_result(valid) == []
        skewed = PlanResult(problem=ProblemSpec(m=4096, n=64, procs=16),
                            plans=[], num_candidates=0)
        skewed.num_candidates = -2
        assert has_errors(verify_plan_result(skewed))

    def test_plan_sweep_flags_wrong_shapes(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        self._store_raw(cache, "bad", ["not", "a", "plan"])
        findings = check_plan_cache(str(tmp_path))
        assert [f.rule for f in findings] == ["plan/structure"]


# -- findings plumbing --------------------------------------------------------------


class TestFindings:
    def test_severity_validated(self):
        with pytest.raises(ValueError):
            Finding("r", "loc", "msg", severity="fatal")

    def test_sort_errors_first(self):
        w = Finding("b", "x", "m", severity="warning")
        e = Finding("a", "x", "m")
        assert sort_findings([w, e]) == [e, w]

    def test_table_and_json_round_trip(self):
        f = Finding("ir/op-kind", "op[3]", "unknown kind")
        assert "ir/op-kind" in findings_table([f])
        assert json.loads(json.dumps(f.to_dict()))["loc"] == "op[3]"
        assert findings_table([]) == "findings: none"


# -- the check CLI ------------------------------------------------------------------


class TestCheckCLI:
    def test_rules_listing(self, capsys):
        assert main(["check", "--rules"]) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines()
                if line and not line.startswith(" ")] == [
            "Schedule IR (verify_program):", "Bindings (verify_binding):",
            "Cache sweep (repro check):"]
        for rule in (list(PROGRAM_RULES) + list(BINDING_RULES)
                     + list(CACHE_RULES)):
            assert rule in out
        assert "lint/" not in out and "type/" not in out

    def test_clean_cache_sweep_exits_zero(self, tmp_path, capsys):
        PlanCache(str(tmp_path / "p")).store("k", PlanResult(
            problem=ProblemSpec(m=4096, n=64, procs=16), plans=[],
            num_candidates=0))
        assert main(["check",
                     "--result-dir", str(tmp_path / "r"),
                     "--plan-dir", str(tmp_path / "p")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_poisoned_cache_exits_nonzero(self, tmp_path, capsys):
        plans = tmp_path / "p"
        plans.mkdir()
        (plans / "torn.plan.pkl").write_bytes(b"\x80\x04 not a pickle")
        with open(plans / "bad.plan.pkl", "wb") as fh:
            pickle.dump(["not", "a", "plan"], fh)
        assert main(["check",
                     "--result-dir", str(tmp_path / "r"),
                     "--plan-dir", str(plans), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in report["findings"]}
        assert rules == {"cache/unreadable", "plan/structure"}
        assert report["count"] == 2

    @pytest.mark.parametrize("argv", [
        ["--source"], ["--typing"], ["--mypy-config", "mypy.ini"],
        ["--caches"]], ids=["source", "typing", "mypy-config", "caches"])
    def test_repository_tooling_options_are_gone(self, capsys, argv):
        # The source lint is a tier-1 test and mypy a CI step; neither
        # is a `repro check` option.
        with pytest.raises(SystemExit) as exc:
            main(["check", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
