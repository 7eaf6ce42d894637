"""Exact-equivalence suite for compiled charge programs (repro.sched).

Every assertion here is ``==`` / ``assert_array_equal``, never
approx-equal: the Schedule IR's contract is that capturing a symbolic
run, binding it to concrete ranks, and charging it as a template run
charges the machine **bit-identically** to executing the original Python
loop -- clocks, per-rank ledgers, cost reports and trace events
included.
"""

import contextlib
import hashlib
from typing import ClassVar

import numpy as np
import pytest

from tests.conftest import assert_alias_only_depth_replicas, make_tunable, rank_events
from tests.test_class_run import class_run, loop

from repro.analysis import verify_program
from repro.core.cacqr import _merge_program, _subcube_pass_program, ca_cqr, ca_cqr2
from repro.core.cfr3d import cfr3d, default_base_case
from repro.core.mm3d import mm3d
from repro.core.panels_dist import ca_panel_cqr2
from repro.costmodel.collectives import CollectiveCost
from repro.costmodel.params import ABSTRACT_MACHINE, STAMPEDE2
from repro.kernels import flops as fl
from repro.kernels.cholesky import CholeskyFailure
from repro import Session
from repro.engine.spec import MatrixSpec, RunSpec
from repro.plan import Planner, ProblemSpec
from repro.sched import (
    ProgramCache,
    RankFamilyMap,
    ScheduleRecorder,
    TemplateRun,
    compiled_replay_disabled,
    compiled_replay_enabled,
    program_key,
)
from repro.sched.capture import capture_run, replay_report
from repro.sched.program import OP_COMM, ChargeOp, ChargeProgram
from repro.vmpi.distmatrix import DistMatrix, dist_transpose
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine
from repro.vmpi.reference import RecordingMachine


def assert_machines_identical(vm_a: VirtualMachine, vm_b: VirtualMachine):
    """Bit-identical machine state: clocks, totals, reports, ledgers."""
    np.testing.assert_array_equal(vm_a.clocks(), vm_b.clocks())
    np.testing.assert_array_equal(vm_a.totals(), vm_b.totals())
    assert vm_a.report() == vm_b.report()
    for rank in range(vm_a.num_ranks):
        assert vm_a.ledger_of(rank).phases == vm_b.ledger_of(rank).phases


def run_both(solver, c, d, trace=False):
    """Run *solver(vm, grid)* compiled and uncompiled; return both machines."""
    vm_fast, g_fast = make_tunable(c, d)
    vm_slow, g_slow = make_tunable(c, d)
    if trace:
        vm_fast, vm_slow = (VirtualMachine(c * c * d, trace=True)
                            for _ in range(2))
        g_fast = Grid3D.tunable(vm_fast, c, d)
        g_slow = Grid3D.tunable(vm_slow, c, d)
    assert compiled_replay_enabled()
    solver(vm_fast, g_fast)
    with compiled_replay_disabled():
        solver(vm_slow, g_slow)
    return vm_fast, vm_slow


class TestCACQREquivalence:
    """Compiled CA-CQR / CA-CQR2 == the per-subcube Python loop, exactly."""

    @pytest.mark.parametrize("c,d,m,n", [
        (1, 4, 256, 8),     # c=1: degenerates to 1D
        (2, 2, 256, 8),     # d == c: cubic, a single subcube instance
        (2, 8, 256, 8),     # d != c: four subcube instances
        (4, 16, 1024, 16),  # wider grid, deeper merge tree
    ])
    def test_ca_cqr2_exact(self, c, d, m, n):
        def solver(vm, g):
            ca_cqr2(vm, DistMatrix.symbolic(g, m, n))
        vm_fast, vm_slow = run_both(solver, c, d)
        assert_machines_identical(vm_fast, vm_slow)

    @pytest.mark.parametrize("c,d,m,n", [(2, 8, 256, 8), (2, 2, 256, 8)])
    def test_ca_cqr_single_pass_exact(self, c, d, m, n):
        def solver(vm, g):
            ca_cqr(vm, DistMatrix.symbolic(g, m, n))
        vm_fast, vm_slow = run_both(solver, c, d)
        assert_machines_identical(vm_fast, vm_slow)

    @staticmethod
    def run_numeric(factor, c, d, a):
        """*factor* on numeric ``a``, compiled and looped, traced; returns
        ``(fast_result, slow_result, vm_fast, vm_slow)``."""
        results = []

        def solver(vm, g):
            results.append(factor(vm, DistMatrix.from_global(g, a)))
        vm_fast, vm_slow = run_both(solver, c, d, trace=True)
        return (*results, vm_fast, vm_slow)

    @staticmethod
    def assert_blocks_equal(fast: DistMatrix, slow: DistMatrix):
        """Same grid ranks and bit-identical blocks on every rank."""
        np.testing.assert_array_equal(fast.grid.ranks, slow.grid.ranks)
        assert (fast.m, fast.n) == (slow.m, slow.n)
        np.testing.assert_array_equal(fast.data, slow.data)

    @classmethod
    def assert_results_equal(cls, fast, slow, subcubes):
        """Bit-identical ``Q`` and per-subcube ``R`` copies."""
        cls.assert_blocks_equal(fast.q, slow.q)
        assert len(fast.r_subcubes) == len(slow.r_subcubes) == subcubes
        for r_fast, r_slow in zip(fast.r_subcubes, slow.r_subcubes):
            cls.assert_blocks_equal(r_fast, r_slow)

    @pytest.mark.parametrize("factor", [ca_cqr, ca_cqr2])
    @pytest.mark.parametrize("c,d,m,n", [
        (1, 4, 256, 8), (2, 2, 256, 8), (2, 8, 256, 8), (4, 16, 1024, 16),
    ])
    def test_numeric_exact(self, factor, c, d, m, n):
        a = np.random.default_rng(10 * c + d).standard_normal((m, n))
        fast, slow, vm_fast, vm_slow = self.run_numeric(factor, c, d, a)
        self.assert_results_equal(fast, slow, d // c)
        assert_machines_identical(vm_fast, vm_slow)
        assert (TestTraceComposition.events_by_rank(vm_fast)
                == TestTraceComposition.events_by_rank(vm_slow))
        for res in (fast, slow):
            assert_alias_only_depth_replicas(res.q)
            assert_alias_only_depth_replicas(*res.r_subcubes)

    def test_shifted_cqr3_failure_path_exact(self):
        # kappa = 1e15: the first shifted pass leaves Q1 too ill-conditioned
        # for plain CQR2, so cqr2.pass1's CFR3D raises CholeskyFailure and
        # sCQR3 retries.  The compiled path must fail from the same machine
        # state the loop leaves behind, or the retry's charges diverge.
        from repro.core.shifted import ca_shifted_cqr3
        from repro.utils.matgen import matrix_with_condition

        c, d, m, n = 2, 8, 1024, 32
        a = matrix_with_condition(m, n, 1e15, rng=0)
        fast, slow, vm_fast, vm_slow = self.run_numeric(ca_shifted_cqr3,
                                                        c, d, a)
        # One norm-local charge per shifted pass on slice-0 ranks.
        per_pass = 2.0 * (m // d) * (n // c)
        assert vm_slow.ledger_of(0).phases["sCQR3.norm-local"].flops \
            == 2 * per_pass
        self.assert_results_equal(fast, slow, d // c)
        assert_machines_identical(vm_fast, vm_slow)

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("c,d", [(1, 4), (2, 2), (2, 8)])
    def test_overflowing_gram_fails_alike(self, c, d, trace):
        # A finite input scaled by 1e200 overflows the Gram matrix, whose
        # Cholesky factor comes out inf/nan without LAPACK reporting a
        # breakdown.  Both routes must raise CholeskyFailure (not scipy's
        # bare ValueError on the non-finite factor), from one machine state.
        a = np.random.default_rng(c + d).standard_normal((256, 8)) * 1e200

        def solver(vm, g):
            with pytest.raises(CholeskyFailure), \
                    np.errstate(over="ignore", invalid="ignore"):
                ca_cqr2(vm, DistMatrix.from_global(g, a))
        vm_fast, vm_slow = run_both(solver, c, d, trace=trace)
        assert vm_slow.report().critical_path_time > 0
        assert_machines_identical(vm_fast, vm_slow)
        assert (TestTraceComposition.events_by_rank(vm_fast)
                == TestTraceComposition.events_by_rank(vm_slow))

    #: (max_cost, total_cost, critical path) after sCQR3's retry, as the
    #: per-rank numeric loops charged them (abstract machine).  Cost reports
    #: do not depend on BLAS; they pin the failed attempt's partial charges
    #: -- its CFR3D base case gathered on slice 0 only, then raised.
    FAILURE_REPORTS: ClassVar[dict] = {
        (2, 8): ((522.0, 82436.0, 341136.0), (14416.0, 2548800.0, 10677632.0),
                 424094.0),
        (2, 2): ((494.0, 239620.0, 1250448.0), (3760.0, 1904656.0, 9872384.0),
                 1490562.0),
    }

    @pytest.mark.parametrize("c,d", sorted(FAILURE_REPORTS))
    def test_shifted_cqr3_failure_report_is_pinned(self, c, d):
        from repro.core.shifted import ca_shifted_cqr3
        from repro.utils.matgen import matrix_with_condition

        m, n = 1024, 32
        a = matrix_with_condition(m, n, 1e15, rng=0)
        for mode in (contextlib.nullcontext(), compiled_replay_disabled()):
            vm, g = make_tunable(c, d)
            with mode:
                ca_shifted_cqr3(vm, DistMatrix.from_global(g, a))
            report = vm.report()
            # Two shifted passes: the first CQR2 attempt failed.
            assert vm.ledger_of(0).phases["sCQR3.norm-local"].flops \
                == 2 * 2.0 * (m // d) * (n // c)
            assert (report.max_cost.as_tuple(), report.total_cost.as_tuple(),
                    report.critical_path_time) == self.FAILURE_REPORTS[(c, d)]

    def test_n_below_c_boundary_rejected(self):
        # n = 2 < c = 4 cannot tile the grid's c columns: the layout
        # itself rejects, before either replay path is reachable.
        vm, g = make_tunable(4, 8)
        with pytest.raises(ValueError, match="not divisible by dim_x"):
            DistMatrix.symbolic(g, 256, 2)

    def test_wide_matrix_rejected_in_both_modes(self):
        # Solver-level validation (m >= n) fires before the compiled
        # gate, so both modes reject identically.
        vm, g = make_tunable(2, 4)
        a = DistMatrix.symbolic(g, 8, 16)
        with pytest.raises(ValueError):
            ca_cqr2(vm, a)
        with compiled_replay_disabled(), pytest.raises(ValueError):
            ca_cqr2(VirtualMachine(16), DistMatrix.symbolic(
                Grid3D.tunable(VirtualMachine(16), 2, 4), 8, 16))


class TestPanelsEquivalence:
    """Compiled panel factorization == the per-panel Python loop, exactly."""

    @pytest.mark.parametrize("c,d,m,n,b", [
        (2, 4, 512, 32, 8),    # four panels
        (2, 2, 512, 32, 8),    # d == c: single-subcube updates
        (2, 8, 1024, 64, 16),  # d != c, wider trailing matrix
        (4, 8, 1024, 32, 8),   # b == c * 2, deeper grid
    ])
    def test_panels_exact(self, c, d, m, n, b):
        def solver(vm, g):
            ca_panel_cqr2(vm, DistMatrix.symbolic(g, m, n), b)
        vm_fast, vm_slow = run_both(solver, c, d)
        assert_machines_identical(vm_fast, vm_slow)

    def test_single_panel_degenerates_to_plain_cqr2(self):
        # b == n: one panel, no trailing update -- both modes must equal a
        # direct CA-CQR2 call.
        vm_panel, g_panel = make_tunable(2, 4)
        ca_panel_cqr2(vm_panel, DistMatrix.symbolic(g_panel, 512, 16), 16,
                      phase="p")
        vm_direct, g_direct = make_tunable(2, 4)
        base = default_base_case(16, 2)
        ca_cqr2(vm_direct, DistMatrix.symbolic(g_direct, 512, 16), base,
                phase="p.panel0.cqr2")
        assert_machines_identical(vm_panel, vm_direct)


class TestTraceComposition:
    """Template runs compose with trace sinks: every rank's event stream
    equals the loop's, in order."""

    events_by_rank = staticmethod(rank_events)

    def test_ca_cqr2_traced_template_run_matches_loop_events(self):
        def solver(vm, g):
            ca_cqr2(vm, DistMatrix.symbolic(g, 256, 8))
        vm_fast, vm_slow = run_both(solver, 2, 8, trace=True)
        assert len(vm_fast.events) > 0 and vm_fast._virtual
        assert self.events_by_rank(vm_fast) == self.events_by_rank(vm_slow)
        assert_machines_identical(vm_fast, vm_slow)

    def test_panels_traced_template_runs_match_loop_events(self):
        def solver(vm, g):
            ca_panel_cqr2(vm, DistMatrix.symbolic(g, 512, 32), 8)
        vm_fast, vm_slow = run_both(solver, 2, 4, trace=True)
        assert len(vm_fast.events) > 0
        assert vm_fast._phase_ids["panel-cacqr2.panel0.update.sub"] \
            in vm_fast._virtual
        assert self.events_by_rank(vm_fast) == self.events_by_rank(vm_slow)
        assert_machines_identical(vm_fast, vm_slow)


class TestReplay:
    """Direct IR lifecycle: capture -> template run."""

    @staticmethod
    def record_mm3d(c, m):
        rec = ScheduleRecorder(c * c * c)
        g = Grid3D.build(rec, c, c, c)
        a = DistMatrix.symbolic(g, m, m)
        b = DistMatrix.symbolic(g, m, m)
        mm3d(rec, a, b, phase="@")
        return rec.program(), g

    def test_identity_class_run_matches_plain_run(self):
        # The recorder only records: its program, charged as a template
        # run, is compared with a plain machine running the same MM3D, and
        # the recorder stays at zero.
        rec = ScheduleRecorder(8)
        g = Grid3D.build(rec, 2, 2, 2)
        mm3d(rec, DistMatrix.symbolic(g, 32, 32),
             DistMatrix.symbolic(g, 32, 32), phase="@")
        program = rec.program()
        plain = VirtualMachine(8)
        pg = Grid3D.build(plain, 2, 2, 2)
        mm3d(plain, DistMatrix.symbolic(pg, 32, 32),
             DistMatrix.symbolic(pg, 32, 32), phase="@")
        vm = VirtualMachine(8)
        class_run(vm, program, RankFamilyMap.identity(8))
        assert_machines_identical(vm, plain)
        assert not rec.clocks().any() and not rec.totals().any()
        assert rec.elapsed == 0.0 and rec.report().phase_max == {}

    def test_subcube_class_run_matches_loop(self):
        c, d, m = 2, 8, 32
        program, tpl_grid = self.record_mm3d(c, m)
        names = program.phases_with_prefix("@", "mm")
        # Fresh symmetric machine, d/c = 4 disjoint instances: the
        # template run's guard must accept it.
        vm, g = make_tunable(c, d)
        class_run(vm, program, RankFamilyMap.subcubes(g, tpl_grid), names)

        vm_loop, g_loop = make_tunable(c, d)
        self.mm3d_loop(vm_loop, g_loop, c, d, m)
        assert_machines_identical(vm, vm_loop)

    @staticmethod
    def mm3d_loop(vm, g, c, d, m):
        """The per-subcube oracle for :meth:`record_mm3d`'s program."""
        for group in range(d // c):
            sub = g.subcube(group)
            mm3d(vm, DistMatrix.symbolic(sub, m, m),
                 DistMatrix.symbolic(sub, m, m), phase="mm")

    def test_subcubes_of_a_root_grid_bind_as_slabs(self):
        c, d = 2, 8
        _, tpl_grid = self.record_mm3d(c, 32)
        vm, g = make_tunable(c, d)
        slabs = RankFamilyMap.subcubes(g, tpl_grid)
        assert slabs.slabs == (c, d // c, c * c)
        # The same grid through the validated constructor is not marked
        # root, so it takes the explicit-maps binding.
        general = RankFamilyMap.subcubes(Grid3D(vm, g.ranks), tpl_grid)
        assert general.slabs is None
        np.testing.assert_array_equal(slabs.maps, general.maps)
        np.testing.assert_array_equal(slabs.template_index(),
                                      general.template_index())

    @pytest.mark.parametrize("perturb", ["clock", "total", "plane"])
    def test_view_guard_declines_asymmetric_state(self, perturb):
        """Break the symmetry of one subcube's state -- its clocks, one
        running total, one pre-existing program phase plane -- and the
        template run's guard must decline, leaving the machine untouched
        for the caller's loop."""
        c, d, m = 2, 8, 32
        program, tpl_grid = self.record_mm3d(c, m)

        def prepare(vm, g):
            # Unequal clocks inside every subcube, identical across them.
            for group in range(d // c):
                for t, rank in enumerate(g.subcube(group).all_ranks_array):
                    vm.charge_flops(int(rank), 1.0 + t, "prefix")
            victim = int(g.subcube(2).ranks[1, 0, 1])
            if perturb == "clock":
                vm.barrier(g.subcube(2).all_ranks_array)
            elif perturb == "total":
                vm.charge_flops(victim, 5.0, "other")
                vm.barrier()
            else:
                # Same totals and clocks everywhere; only the program
                # phase "mm.local-mm" differs, in subcube 2.
                for group in range(d // c):
                    rank = int(g.subcube(group).ranks[1, 0, 1])
                    vm.charge_flops(rank, 5.0, "mm.local-mm"
                                    if rank == victim else "other")

        vm, g = make_tunable(c, d)
        prepare(vm, g)
        names = program.phases_with_prefix("@", "mm")
        binding = RankFamilyMap.subcubes(g, tpl_grid)
        assert binding.slabs is not None
        assert TemplateRun.seed(vm, binding, names) is None

        untouched, g_untouched = make_tunable(c, d)
        prepare(untouched, g_untouched)
        assert_machines_identical(vm, untouched)
        assert vm.phase_names == untouched.phase_names

    def test_view_replay_lazy_phases_read_and_charge_exactly(self):
        """Per-rank reads of a view-path class run's virtual phases, and a
        later direct charge to one of them, match the loop."""
        c, d, m = 2, 8, 32
        program, tpl_grid = self.record_mm3d(c, m)
        vm, g = make_tunable(c, d)
        vm_loop, g_loop = make_tunable(c, d)
        class_run(vm, program, RankFamilyMap.subcubes(g, tpl_grid),
                  program.phases_with_prefix("@", "mm"))
        assert vm._virtual
        assert all(vm._planes[pid] is None for pid in vm._virtual)
        self.mm3d_loop(vm_loop, g_loop, c, d, m)

        rank = int(g.subcube(3).ranks[1, 1, 0])
        assert vm.ledger_of(rank).phases == vm_loop.ledger_of(rank).phases
        assert vm.clock_of(rank) == vm_loop.clock_of(rank)
        for machine in (vm, vm_loop):
            machine.charge_flops(rank, 7.0, "mm.local-mm")
        assert vm.ledger_of(rank).phases == vm_loop.ledger_of(rank).phases
        assert vm.clock_of(rank) == vm_loop.clock_of(rank)
        assert_machines_identical(vm, vm_loop)

    def test_traced_machine_takes_the_template_run(self):
        c, d, m = 2, 4, 32
        program, tpl_grid = self.record_mm3d(c, m)
        names = program.phases_with_prefix("@", "mm")
        vm = VirtualMachine(c * c * d, trace=True)
        binding = RankFamilyMap.subcubes(Grid3D.tunable(vm, c, d), tpl_grid)
        class_run(vm, program, binding, names)
        vm_loop = VirtualMachine(c * c * d, trace=True)
        self.mm3d_loop(vm_loop, Grid3D.tunable(vm_loop, c, d), c, d, m)
        assert vm._virtual and len(vm.events) > 0
        assert rank_events(vm) == rank_events(vm_loop)
        assert_machines_identical(vm, vm_loop)

    def test_template_run_interns_each_phase_once(self, monkeypatch):
        # A template run interns each distinct phase name once, at
        # install, so interning work scales with the phase table, never
        # with the ops.
        c, d, m, n, b = 2, 4, 1024, 64, 16
        rec = ScheduleRecorder(c * c * d)
        ca_panel_cqr2(rec, DistMatrix.symbolic(Grid3D.tunable(rec, c, d), m, n),
                      b)
        program = rec.program()
        assert len(program) > len(program.phases)
        interned = []
        phase_id = VirtualMachine._phase_id

        def counting_phase_id(vm, phase, concrete=True):
            interned.append(phase)
            return phase_id(vm, phase, concrete)

        monkeypatch.setattr(VirtualMachine, "_phase_id", counting_phase_id)
        class_run(VirtualMachine(program.num_ranks), program,
                  RankFamilyMap.identity(program.num_ranks))
        assert 0 < len(interned) <= len(program.phases)

    def test_phase_table_rebase_rejects_wrong_prefix(self):
        program, _ = self.record_mm3d(2, 32)
        with pytest.raises(ValueError):
            program.phases_with_prefix("nope", "mm")


class TestBindingRankBounds:
    """A binding names ranks of the machine it charges, and no others."""

    PAIR = ChargeProgram(2, ["x"], [ChargeOp(
        OP_COMM, np.array([[0, 1]]), CollectiveCost(1, 1), 0)])

    def test_negative_rank_is_rejected(self):
        # numpy would wrap -1 to rank 3 of a 4-rank machine, so both
        # instances would charge rank 3.
        with pytest.raises(ValueError, match="non-negative"):
            RankFamilyMap([[-1, 0], [3, 1]])

    @pytest.mark.parametrize("layout", ["maps", "slabs"])
    @pytest.mark.parametrize("charge", ["splice", "template-run"])
    def test_rank_past_the_end_is_rejected_before_charging(self, charge,
                                                           layout):
        machine = ScheduleRecorder if charge == "splice" else VirtualMachine
        if layout == "maps":
            vm, program = machine(4), self.PAIR
            binding = RankFamilyMap([[0, 1], [2, 4]])
        else:
            program, tpl_grid = TestReplay.record_mm3d(2, 8)
            vm = machine(16)
            _, g = make_tunable(2, 8)          # a 32-rank grid
            binding = RankFamilyMap.subcubes(g, tpl_grid)
            assert binding.slabs is not None
        with pytest.raises(ValueError, match="past the end"):
            if charge == "splice":
                vm.extend(program, binding)
            else:
                TemplateRun.seed(vm, binding, program.phases)
        assert not vm.clocks().any() and not vm.totals().any()
        assert vm.phase_names == []
        if charge == "splice":
            assert vm.num_ops == 0


def program_digest(program: ChargeProgram) -> str:
    """Digest of a program's phase table and every op's kind, rank bytes,
    payload and phase index."""
    h = hashlib.sha256(repr(program.phases).encode())
    for op in program.ops:
        shape = None if op.ranks is None else op.ranks.shape
        h.update(repr((op.kind, shape, op.payload, op.phase)).encode())
        if op.ranks is not None:
            h.update(op.ranks.tobytes())
    return h.hexdigest()[:16]


class TestRecorderRecordsOnly:
    """The recorder records what the machine would accept, and charges
    nothing; the subcube programs it records are pinned."""

    #: ``(c, n, rows_per_subcube, base_case_size)`` -> (subcube-pass digest,
    #: merge digest), recorded while the recorder still charged as it
    #: recorded.
    PINNED: ClassVar[dict] = {
        (16, 1024, 1024, 16): ("1c53dc265ff07fac", "54ae4ddb4f49657a"),
        (8, 512, 16384, 8): ("ee4bf57dcaa64a30", "eb5db22d46fe55fb"),
        (4, 128, 1024, 8): ("31f8750182f6ac13", "a2d85efd96abf4be"),
        (2, 64, 256, 16): ("868c6fcca84bb5d6", "e2486c26bfa35602"),
    }

    @pytest.mark.parametrize("key", list(PINNED))
    def test_subcube_and_merge_programs_are_pinned(self, key):
        program, _ = _subcube_pass_program(*key)
        merge, _ = _merge_program(*key[:2])
        assert (program_digest(program), program_digest(merge)) == \
            self.PINNED[key]
        assert any(op.axis is not None for op in program.ops)

    REJECTED: ClassVar[list] = [
        ("charge_flops", (-1, 5.0, "x")),
        ("charge_flops", (7, 5.0, "x")),
        ("charge_flops", (0, -5.0, "x")),
        ("charge_flops_group", ([0, 1], -1.0, "x")),
        ("charge_comm_groups", (np.array([0, 1]), CollectiveCost(1, 1), "x")),
        ("charge_comm_axis", ((3,), 0, CollectiveCost(1, 1), "x")),
        ("charge_comm_axis", ((2, 2), 2, CollectiveCost(1, 1), "x")),
    ]
    REJECTED_IDS: ClassVar[list] = [
        "negative-rank", "rank-past-end", "negative-flops",
        "negative-group-flops", "1d-group-matrix", "view-not-covering",
        "axis-out-of-range"]

    @pytest.mark.parametrize("method,args", REJECTED, ids=REJECTED_IDS)
    def test_schedule_recorder_keeps_no_rejected_op(self, method, args):
        rec = ScheduleRecorder(4)
        rec.charge_flops(0, 1.0, "ok")
        with pytest.raises(ValueError):
            getattr(rec, method)(*args)
        assert rec.num_ops == 1
        program = rec.program(debug=False)
        assert len(program) == 1 and program.phases == ["ok"]

    @pytest.mark.parametrize("method,args", REJECTED, ids=REJECTED_IDS)
    def test_recording_machine_keeps_no_rejected_entry(self, method, args):
        vm = RecordingMachine(4)
        vm.charge_flops(0, 1.0, "ok")
        with pytest.raises(ValueError):
            getattr(vm, method)(*args)
        assert len(vm.schedule) == 1

    def test_axis_ops_share_the_machines_cached_group_matrix(self):
        rec = ScheduleRecorder(8)
        for _ in range(2):
            rec.charge_comm_axis((2, 2, 2), 1, CollectiveCost(1, 1), "a")
        first, second = rec.program().ops
        assert first.axis == ((2, 2, 2), 1)
        assert first.ranks is second.ranks
        assert first.ranks is VirtualMachine(8).axis_groups((2, 2, 2), 1)
        assert not first.ranks.flags.writeable


class TestAxisTaggedReplay:
    """A template run lowers axis-tagged ops from their tag; it matches
    the subcube loop and the instance-by-instance loop over each op's rank
    matrix."""

    @staticmethod
    def prefix(vm, binding, names, seed):
        """Random charges that are identical across the subcube instances
        but uneven inside each, some under the program's own phases."""
        rng = np.random.default_rng(seed)
        maps = binding.maps
        size = maps.shape[1]
        for _ in range(3):
            pairs = rng.permutation(size).reshape(-1, 2)
            vm.charge_comm_groups(maps[:, pairs].reshape(-1, 2),
                                  CollectiveCost(*rng.integers(1, 9, 2)),
                                  str(rng.choice(names)))
        # Flops last, so the clocks enter the replay uneven.
        for t, flops in enumerate(rng.integers(1, 10 ** 6, size)):
            vm.charge_flops_group(maps[:, t], float(flops), "prefix")

    @staticmethod
    def subcube_loop(vm, g, c, d, n, rows, n0, phase):
        """The per-subcube oracle for :func:`_subcube_pass_program`."""
        with compiled_replay_disabled():
            for group in range(d // c):
                sub = g.subcube(group)
                l0, y0 = cfr3d(vm, DistMatrix.symbolic(sub, n, n), n0,
                               phase=f"{phase}.cfr3d")
                rinv0 = dist_transpose(vm, y0, f"{phase}.form-q.transpose")
                mm3d(vm, DistMatrix.symbolic(sub, rows, n), rinv0,
                     phase=f"{phase}.form-q.mm3d",
                     flop_fraction=fl.TRMM_FRACTION)
                dist_transpose(vm, l0, f"{phase}.form-r.transpose")

    @classmethod
    def charge_both(cls, program, tpl, c, d, seed):
        """A class run of *program* onto the subcubes of a ``c x d x c``
        grid and the loop over its ops' rank matrices, each on a traced
        machine after the same random prefix."""
        names = program.phases_with_prefix("@", "p")
        machines = []
        for charge in (class_run, loop):
            vm = VirtualMachine(c * c * d, STAMPEDE2, trace=True)
            binding = RankFamilyMap.subcubes(Grid3D.tunable(vm, c, d), tpl)
            cls.prefix(vm, binding, names, seed)
            charge(vm, program, binding, names)
            machines.append(vm)
        return machines

    @pytest.mark.parametrize("c,d,n,rows,n0,seed", [
        (2, 8, 32, 64, 8, 0),
        (2, 4, 16, 32, 4, 1),
        (4, 8, 64, 128, 8, 2),
    ])
    def test_class_run_and_loops_agree(self, c, d, n, rows, n0, seed):
        program, tpl = _subcube_pass_program(c, n, rows, n0)
        assert any(op.axis is not None for op in program.ops)
        class_vm, ops_vm = self.charge_both(program, tpl, c, d, seed)
        subcubes = VirtualMachine(c * c * d, STAMPEDE2, trace=True)
        g = Grid3D.tunable(subcubes, c, d)
        self.prefix(subcubes, RankFamilyMap.subcubes(g, tpl),
                    program.phases_with_prefix("@", "p"), seed)
        self.subcube_loop(subcubes, g, c, d, n, rows, n0, "p")
        for vm in (class_vm, ops_vm):
            assert_machines_identical(vm, subcubes)
            assert rank_events(vm) == rank_events(subcubes)
        assert len(class_vm.events) > 0

    @staticmethod
    def single_op(program, op):
        return ChargeProgram(program.num_ranks, program.phases, [op])

    @pytest.mark.parametrize("c,d", [(2, 4), (4, 8)])
    def test_every_tagged_op_replays_alike_from_uneven_clocks(self, c, d):
        # Later collectives resynchronize whole subcubes, which can hide a
        # wrong grouping from the end state; each tagged op alone, from
        # clocks that differ inside every subcube, cannot hide it.
        program, tpl = _subcube_pass_program(c, 4 * c, 8 * c, c)
        tagged = [op for op in program.ops if op.axis is not None]
        assert tagged
        for k, op in enumerate(tagged):
            class_vm, ops_vm = self.charge_both(self.single_op(program, op),
                                                tpl, c, d, k)
            assert_machines_identical(class_vm, ops_vm)
            assert rank_events(class_vm) == rank_events(ops_vm)

    def test_a_corrupted_tag_diverges_and_fails_verification(self):
        c, d = 2, 4
        program, tpl = _subcube_pass_program(c, 8, 16, c)
        ops = list(program.ops)
        k = next(i for i, op in enumerate(ops) if op.axis is not None)
        shape, axis = ops[k].axis
        ops[k] = ChargeOp(ops[k].kind, ops[k].ranks, ops[k].payload,
                          ops[k].phase, axis=(shape, (axis + 1) % len(shape)))
        findings = verify_program(ChargeProgram(program.num_ranks,
                                                program.phases, ops))
        assert [(f.rule, f.loc) for f in findings] == \
            [("ir/axis-form", f"op[{k}]")]
        class_vm, ops_vm = self.charge_both(self.single_op(program, ops[k]),
                                            tpl, c, d, 0)
        assert not np.array_equal(class_vm.clocks(), ops_vm.clocks())


class TestProgramCacheAndCapture:
    """Whole-run capture, machine independence, and the on-disk cache."""

    SPEC: ClassVar[dict] = dict(algorithm="ca_cqr2", matrix=MatrixSpec(2 ** 12, 32),
                c=2, d=8, mode="symbolic")

    def prepared(self, machine="abstract"):
        from repro.engine.registry import solver_for

        spec = RunSpec(machine=machine, **self.SPEC)
        return solver_for(spec.algorithm).prepare(spec)

    def test_capture_report_equals_plain_run(self):
        spec = self.prepared()
        program, report = capture_run(spec)
        assert report == Session().run(spec).report
        assert len(program) > 0

    def test_replay_report_is_machine_independent(self):
        # Capture under the abstract machine; replay under Stampede2 --
        # bit-identical to running under Stampede2 directly.
        program, _ = capture_run(self.prepared("abstract"))
        replayed = replay_report(program, STAMPEDE2)
        assert replayed == Session().run(self.prepared("stampede2")).report

    def test_program_key_excludes_machine(self):
        assert (program_key(self.prepared("abstract"), "ca_cqr2")
                == program_key(self.prepared("stampede2"), "ca_cqr2"))
        other = self.prepared().replace(matrix=MatrixSpec(2 ** 12, 64))
        assert (program_key(self.prepared(), "ca_cqr2")
                != program_key(other, "ca_cqr2"))

    def test_store_load_roundtrip_replays_identically(self, tmp_path):
        spec = self.prepared()
        program, report = capture_run(spec)
        cache = ProgramCache(str(tmp_path))
        key = program_key(spec, "ca_cqr2")
        cache.store(key, program)
        loaded = cache.load(key)
        assert loaded is not None
        assert replay_report(loaded, ABSTRACT_MACHINE) == report

    def test_load_missing_and_corrupt_entries(self, tmp_path):
        cache = ProgramCache(str(tmp_path))
        assert cache.load("deadbeef") is None
        with open(cache.path("bad"), "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.load("bad") is None

    def test_cache_clear_removes_programs(self, tmp_path):
        spec = self.prepared()
        program, _ = capture_run(spec)
        cache = ProgramCache(str(tmp_path))
        cache.store(program_key(spec, "ca_cqr2"), program)
        assert cache.info()["entries"] == 1
        assert cache.clear() == 1
        assert cache.info()["entries"] == 0

    def test_env_override_moves_default_dir(self, tmp_path, monkeypatch):
        from repro.utils.config import default_sched_cache_dir

        target = str(tmp_path / "programs")
        monkeypatch.setenv("REPRO_SCHED_CACHE_DIR", target)
        assert default_sched_cache_dir() == target


class TestPlannerRefinement:
    """Planner refinement is bit-identical to uncompiled symbolic runs."""

    PROBLEM: ClassVar[dict] = dict(m=2 ** 14, n=64, procs=256, machine="stampede2",
                   mode="symbolic", top_k=2)

    @staticmethod
    def assert_matches_uncompiled_runs(result):
        """Each refined plan equals one plain symbolic run on the loop path."""
        from repro import Session

        problem = result.problem
        session = Session(result_cache=None, plan_cache=None,
                          sched_cache=None)
        refined = [p for p in result.plans if p.refined]
        assert len(refined) == problem.top_k
        with compiled_replay_disabled():
            for plan in refined:
                report = session.run(plan.to_run_spec(
                    matrix=MatrixSpec(problem.m, problem.n), mode="symbolic",
                    machine=problem.machine)).report
                assert plan.refined_seconds == float(report.critical_path_time)
                assert (plan.messages, plan.words, plan.flops) == (
                    float(report.max_cost.messages),
                    float(report.max_cost.words),
                    float(report.max_cost.flops))

    def test_refined_plans_identical_with_and_without_programs(self):
        # Refinement's plain runs replay compiled subcube programs; the
        # oracle runs the uncompiled loop.
        self.assert_matches_uncompiled_runs(
            Planner(refine="symbolic").plan(ProblemSpec(**self.PROBLEM)))

    def test_warm_cache_replays_identically(self, tmp_path):
        problem = ProblemSpec(**self.PROBLEM)
        cold = Planner(refine="symbolic", cache_dir=str(tmp_path)).plan(problem)
        # A fresh planner over the same directory answers from disk.
        warm = Planner(refine="symbolic", cache_dir=str(tmp_path)).plan(problem)
        assert not cold.from_cache and warm.from_cache
        assert ([p.to_dict() for p in warm.plans]
                == [p.to_dict() for p in cold.plans])

    def test_programs_reused_across_machines(self):
        # Compiled subcube programs are machine-independent: planning the
        # same shape for a different machine replays the programs the
        # first plan compiled and still matches plain runs bit-for-bit.
        a = ProblemSpec(**self.PROBLEM)
        b = a.replace(machine="blue-waters")
        planner = Planner(refine="symbolic")
        planner.plan(a)
        self.assert_matches_uncompiled_runs(planner.plan(b))
