"""The Schedule-IR verifier (``tests/oracles/verifier.py``) and its gate.

The proof obligations of the static-verification oracle:

* every program the suite's own algorithms capture verifies clean, and a
  property-sized family of randomly generated valid programs does too;
* one seeded mutation per rule yields exactly that rule's finding (the
  mutation-kill table -- a rule nothing can trigger is dead weight);
* the capture gate ``tests/conftest.py`` installs rejects an invalid
  capture, skips CFR3D's per-level captures, and leaves the unverified
  compile to tests that ask for it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cfr3d import _cfr3d_program
from repro.costmodel.collectives import CollectiveCost
from repro.engine import MatrixSpec, RunSpec
from repro.engine.registry import solver_for
from repro.sched.binding import RankFamilyMap
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
from tests.oracles import verifier
from tests.oracles.capture import capture_run
from tests.oracles.verifier import (
    BINDING_RULES,
    PROGRAM_RULES,
    VerificationError,
    require_verified,
    unverified_program,
    verify_binding,
    verify_program,
)


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

    def test_gate_rejects_invalid_capture(self):
        with pytest.raises(VerificationError):
            self._poisoned_recorder().program()

    def test_unverified_program_skips_the_gate(self):
        assert len(unverified_program(self._poisoned_recorder())) == 2

    def test_cfr3d_level_captures_are_not_verified_alone(self):
        before = verifier.verified_count
        level = _cfr3d_program.__wrapped__(2, 16, 4)
        assert verifier.verified_count == before
        # The same ops compiled anywhere else pass the gate.
        recorder = ScheduleRecorder(level.num_ranks)
        recorder.extend(level)
        recorder.program()
        assert verifier.verified_count == before + 1

    def test_capture_run_is_gated(self):
        before = verifier.verified_count
        program, _ = capture_run(prepared("cqr2_1d", procs=8))
        assert verifier.verified_count == before + 1
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
