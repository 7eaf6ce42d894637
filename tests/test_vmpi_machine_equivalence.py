"""Machine equivalence: the vectorized VM must match the per-rank semantics.

The original ``VirtualMachine`` kept one Python object per rank (a dict
ledger + a float clock) and charged groups with Python loops.  The
vectorized machine replaces all of that with numpy arrays and bulk slice
updates.  These tests pin the refactor's core contract: a recorded
schedule of mixed charges (bcast / reduce / allreduce / allgather / p2p /
barrier / local flops), replayed through the **old semantics** (the
executable specification in :mod:`repro.vmpi.reference`), must produce
*exactly* equal per-rank clocks, per-phase ledger triples, and
:class:`CostReport` values -- not approximately equal, bit-for-bit equal
-- for both numeric and symbolic blocks.
"""

import contextlib

import numpy as np
import pytest

from repro.costmodel.collectives import CollectiveCost
from repro.costmodel.params import STAMPEDE2
from repro.core.cacqr import ca_cqr2
from repro.costmodel import collectives as cc
from repro.kernels.blas import local_mm_tn
from repro.vmpi.datatypes import SymbolicBlock
from repro.vmpi.distmatrix import DistMatrix, dist_transpose
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine
from repro.vmpi.reference import RecordingMachine, replay


def assert_machines_identical(vm, ref):
    """Exact (not approximate) equality of clocks, ledgers, and reports."""
    for r in range(vm.num_ranks):
        assert vm.clock_of(r) == ref.clock_of(r)
        view = vm.ledger_of(r)
        led = ref.ledger_of(r)
        assert view.total.as_tuple() == led.total.as_tuple()
        assert ({k: v.as_tuple() for k, v in view.phases.items()}
                == {k: v.as_tuple() for k, v in led.phases.items()})
    got, want = vm.report(), ref.report()
    assert got.num_ranks == want.num_ranks
    assert got.max_cost == want.max_cost
    assert got.mean_cost == want.mean_cost
    assert got.total_cost == want.total_cost
    assert got.critical_path_time == want.critical_path_time
    assert got.phase_max == want.phase_max


class TestSyntheticSchedules:
    def test_mixed_schedule_exact(self):
        """Random mixed charges: group collectives, p2p, flops, barriers."""
        rng = np.random.default_rng(7)
        vm = RecordingMachine(24, STAMPEDE2)
        for _step in range(200):
            op = rng.integers(0, 4)
            phase = f"phase{int(rng.integers(0, 9))}.sub{int(rng.integers(0, 3))}"
            if op == 0:
                vm.charge_flops(int(rng.integers(0, 24)),
                                float(rng.integers(0, 1000)), phase)
            elif op == 1:
                size = int(rng.integers(1, 9))
                group = rng.choice(24, size=size, replace=False)
                cost = CollectiveCost(float(rng.integers(0, 5)),
                                      float(rng.integers(0, 500)))
                vm.charge_comm_group(group, cost, phase)
            elif op == 2:
                a, b = rng.choice(24, size=2, replace=False)
                vm.charge_comm_groups(np.array([[a, b]]), CollectiveCost(1, 64),
                                      phase)
            else:
                vm.barrier(rng.choice(24, size=6, replace=False)
                           if rng.integers(0, 2) else None)
        ref = replay(vm.schedule, 24, STAMPEDE2)
        assert_machines_identical(vm, ref)

    def test_batched_groups_match_sequential(self):
        """charge_comm_groups == per-group charge_comm_group, exactly."""
        groups = np.arange(24).reshape(6, 4)
        cost = CollectiveCost(3, 17)
        batched = VirtualMachine(24, STAMPEDE2)
        batched.charge_flops(5, 123, "warmup")
        batched.charge_comm_groups(groups, cost, "c")
        sequential = VirtualMachine(24, STAMPEDE2)
        sequential.charge_flops(5, 123, "warmup")
        for row in groups:
            sequential.charge_comm_group(row, cost, "c")
        for r in range(24):
            assert batched.clock_of(r) == sequential.clock_of(r)
        assert batched.report() == sequential.report()

    def test_flops_group_matches_scalar(self):
        grouped = VirtualMachine(8)
        grouped.charge_flops_group(np.arange(8), 321.5, "w")
        scalar = VirtualMachine(8)
        for r in range(8):
            scalar.charge_flops(r, 321.5, "w")
        assert [grouped.clock_of(r) for r in range(8)] \
            == [scalar.clock_of(r) for r in range(8)]
        assert grouped.report() == scalar.report()


def _record_ca_cqr2(mode, machine=STAMPEDE2, trace=False, c=2, d=8,
                    factory=RecordingMachine):
    vm = factory(c * c * d, machine, trace=trace)
    grid = Grid3D.tunable(vm, c, d)
    if mode == "symbolic":
        a = DistMatrix.symbolic(grid, 256, 16)
    else:
        rng = np.random.default_rng(3)
        a = DistMatrix.from_global(grid, rng.standard_normal((256, 16)))
    ca_cqr2(vm, a)
    return vm


class TestAlgorithmSchedules:
    """Replay real algorithm schedules (all collective kinds) exactly."""

    @pytest.mark.parametrize("mode", ["symbolic", "numeric"])
    def test_ca_cqr2_schedule_exact(self, mode):
        vm = _record_ca_cqr2(mode)
        ref = replay(vm.schedule, vm.num_ranks, STAMPEDE2)
        assert_machines_identical(vm, ref)

    def test_symbolic_equals_numeric_schedule_costs(self):
        """Numeric and symbolic runs charge one schedule: same costs, clocks
        and per-rank trace events -- through the template run of a plain
        machine (d > c, and d == c's one subcube) and through direct
        charging (the loop oracle, which a recording machine takes)."""
        from repro.sched import compiled_replay_disabled
        from tests.test_sched_program import TestTraceComposition

        for c, d, factory, mode in [
                (2, 8, VirtualMachine, contextlib.nullcontext()),
                (2, 2, VirtualMachine, contextlib.nullcontext()),
                (2, 8, RecordingMachine, compiled_replay_disabled())]:
            with mode:
                sym = _record_ca_cqr2("symbolic", trace=True, c=c, d=d,
                                      factory=factory)
                num = _record_ca_cqr2("numeric", trace=True, c=c, d=d,
                                      factory=factory)
            assert sym.report() == num.report()
            assert [sym.clock_of(r) for r in range(sym.num_ranks)] \
                == [num.clock_of(r) for r in range(num.num_ranks)]
            assert len(num.events) > 0
            assert (TestTraceComposition.events_by_rank(sym)
                    == TestTraceComposition.events_by_rank(num))

    def test_collective_mix_through_communicator(self):
        """bcast/reduce/allreduce/allgather/p2p over communicator families."""
        vm = RecordingMachine(8)
        ranks = Grid3D.cubic(vm, 2).ranks
        vm.charge_flops(3, 50, "skew")    # desynchronize one rank first
        vm.charge_comm_groups(ranks.transpose(1, 2, 0).reshape(-1, 2),
                              cc.bcast_cost(4, 2), "s.bcast")
        vm.charge_comm_groups(ranks.transpose(0, 2, 1).reshape(-1, 2),
                              cc.reduce_cost(4, 2), "s.reduce")
        vm.charge_comm_groups(ranks.reshape(-1, 2), cc.allreduce_cost(4, 2),
                              "s.allreduce")
        vm.charge_comm_groups(ranks[:, :, 0].T.reshape(1, -1),
                              cc.allgather_cost(16, 4), "s.allgather")
        vm.charge_comm_groups(np.array([[1, 5]]), cc.transpose_cost(4, 2),
                              "s.p2p")
        vm.barrier()
        ref = replay(vm.schedule, 8)
        assert_machines_identical(vm, ref)

    def test_dist_transpose_pairs_exact(self):
        """The batched transpose charge equals per-pair p2p exchanges."""
        vm = RecordingMachine(27)
        grid = Grid3D.cubic(vm, 3)
        a = DistMatrix.symbolic(grid, 9, 9)
        vm.charge_flops(13, 50, "skew")   # desynchronize one rank first
        dist_transpose(vm, a, "t")
        ref = replay(vm.schedule, 27)
        assert_machines_identical(vm, ref)


#: (c, d) grids for the Gram-dance families: the 1D degenerate grid, a
#: cube, several tunable shapes, and a 256-rank grid.
GRAM_GRIDS = [(1, 4), (2, 2), (2, 8), (3, 6), (4, 16)]


def _gram_dance_matrices(c, d):
    """Algorithm 8 lines 1/3/4/5 as explicit ``(G, s)`` rank matrices,
    built from the grid's ``[x, y, z]`` rank array (the group-matrix form
    the axis form replaces)."""
    ranks = Grid3D.tunable(VirtualMachine(c * c * d), c, d).ranks
    by_xzy = ranks.transpose(0, 2, 1)
    return [
        ranks.transpose(1, 2, 0).reshape(-1, c),                 # rows
        by_xzy.reshape(-1, c),                                   # y-groups
        (by_xzy.reshape(c, c, d // c, c)
         .transpose(0, 1, 3, 2).reshape(-1, d // c)),            # strided
        ranks.reshape(-1, c),                                    # depth
    ]


def _skewed(vm, rng):
    """Charge every rank a different amount of local work."""
    for rank, flops in enumerate(rng.integers(0, 10_000, vm.num_ranks)):
        vm.charge_flops(rank, float(flops), "skew")


class TestAxisFormExactness:
    """The gather-free forms with unequal clocks across every family.

    Every ladder point enters the Gram dance with equal clocks inside each
    family, so there a wrong axis would still reproduce the critical
    path; a random prefix makes every group's maximum matter.
    """

    @pytest.mark.parametrize("c, d", GRAM_GRIDS)
    def test_gram_dance_matches_group_matrices(self, c, d):
        from repro.core.cacqr import _gram_replicated

        p = c * c * d
        m, n = 8 * d, 2 * c
        fast = VirtualMachine(p, STAMPEDE2)
        slow = RecordingMachine(p, STAMPEDE2)
        _skewed(fast, np.random.default_rng(p))
        _skewed(slow, np.random.default_rng(p))

        # Max-plus steps along orthogonal axes commute, so the end state
        # alone cannot tell line 3's family from line 4's: compare the
        # clocks after every collective.  An instance attribute keeps
        # `fast` a plain VirtualMachine, on the axis form.
        fast_steps, slow_steps = [], []

        def axis_then_snapshot(*args):
            VirtualMachine.charge_comm_axis(fast, *args)
            fast_steps.append(fast.clocks())

        def groups_then_snapshot(*args):
            RecordingMachine.charge_comm_groups(slow, *args)
            slow_steps.append(slow.clocks())

        fast.charge_comm_axis = axis_then_snapshot
        slow.charge_comm_groups = groups_then_snapshot

        a = DistMatrix.symbolic(Grid3D.tunable(fast, c, d), m, n)
        assert a.grid.is_root
        _gram_replicated(fast, a, "g")

        block = SymbolicBlock((a.local_rows, a.local_cols))
        partial, flops = local_mm_tn(block, block)
        words = partial.words
        rows, groups, strided, fibers = _gram_dance_matrices(c, d)
        slow.charge_comm_groups(rows, cc.bcast_cost(block.words, c),
                                "g.bcast-w")
        slow.charge_flops_group(np.arange(p), flops / 2.0, "g.local-gram")
        slow.charge_comm_groups(groups, cc.reduce_cost(words, c),
                                "g.reduce-group")
        slow.charge_comm_groups(strided, cc.allreduce_cost(words, d // c),
                                "g.allreduce-roots")
        slow.charge_comm_groups(fibers, cc.bcast_cost(words, c),
                                "g.bcast-depth")

        assert len(fast_steps) == len(slow_steps) == 4
        for got, want in zip(fast_steps, slow_steps):
            np.testing.assert_array_equal(got, want)
        assert_machines_identical(fast, slow)
        assert_machines_identical(fast, replay(slow.schedule, p, STAMPEDE2))

    @pytest.mark.parametrize("c, d", GRAM_GRIDS)
    def test_axis_form_matches_its_group_matrix(self, c, d):
        p = c * c * d
        fast = VirtualMachine(p, STAMPEDE2)
        slow = VirtualMachine(p, STAMPEDE2)
        _skewed(fast, np.random.default_rng(p + 1))
        _skewed(slow, np.random.default_rng(p + 1))
        for k, (shape, axis) in enumerate([((c, d, c), 2), ((c, d, c), 1),
                                           ((c, d, c), 0),
                                           ((c, d // c, c, c), 1),
                                           ((c, d // c, c, c), 2)]):
            cost = CollectiveCost(k + 1, 10 * k + 3)
            fast.charge_comm_axis(shape, axis, cost, f"a{k}")
            slow.charge_comm_groups(slow.axis_groups(shape, axis), cost,
                                    f"a{k}")
        np.testing.assert_array_equal(fast.clocks(), slow.clocks())
        assert_machines_identical(fast, slow)

    @pytest.mark.parametrize("c, d", [(1, 4), (2, 8), (3, 6)])
    @pytest.mark.parametrize("prefix", ["random", "per-subcube"])
    def test_ca_cqr2_after_prefix_matches_reference_loop(self, c, d, prefix):
        """A whole symbolic CA-CQR2 on a plain machine (axis form,
        whole-cover updates, the compiled template run) against the loop
        oracle recorded and replayed through :class:`ReferenceMachine`.
        A random prefix forces the loop; a prefix repeated in every
        subcube keeps the template run engaged with unequal clocks."""
        from repro.sched import compiled_replay_disabled

        p = c * c * d
        rng = np.random.default_rng(p)
        if prefix == "random":
            work = rng.integers(0, 10_000, p).astype(float)
        else:
            work = np.broadcast_to(
                rng.integers(0, 10_000, (c, 1, c * c)),
                (c, d // c, c * c)).reshape(-1).astype(float)

        def run(vm):
            for rank, flops in enumerate(work):
                vm.charge_flops(rank, flops, "prefix")
            ca_cqr2(vm, DistMatrix.symbolic(Grid3D.tunable(vm, c, d),
                                            24 * d, 4 * c))
            return vm

        fast = run(VirtualMachine(p, STAMPEDE2))
        with compiled_replay_disabled():
            loop = run(RecordingMachine(p, STAMPEDE2))
        assert_machines_identical(fast, loop)
        assert_machines_identical(fast, replay(loop.schedule, p, STAMPEDE2))

    def test_traced_axis_form_emits_every_rank(self):
        """With a sink attached the axis form expands to its groups, so
        each rank's events equal the group-matrix charge's."""
        c, d = 2, 4
        fast = VirtualMachine(c * c * d, trace=True)
        slow = VirtualMachine(c * c * d, trace=True)
        for vm in (fast, slow):
            vm.charge_flops(3, 50, "skew")
        fast.charge_comm_axis((c, d // c, c, c), 1, CollectiveCost(2, 8), "s")
        slow.charge_comm_groups(slow.axis_groups((c, d // c, c, c), 1),
                                CollectiveCost(2, 8), "s")
        assert ([(e.rank, e.phase, e.kind, e.start, e.end)
                 for e in fast.events]
                == [(e.rank, e.phase, e.kind, e.start, e.end)
                    for e in slow.events])
        assert_machines_identical(fast, slow)
