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


def _record_ca_cqr2(mode, machine=STAMPEDE2, trace=False, c=2, d=8):
    vm = RecordingMachine(c * c * d, machine, trace=trace)
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
        and per-rank trace events -- through subcube replay (d > c) and
        through direct charging (d == c, and the loop oracle)."""
        from repro.sched import compiled_replay_disabled
        from tests.test_sched_program import TestTraceComposition

        for c, d, mode in [(2, 8, contextlib.nullcontext()), (2, 2, contextlib.nullcontext()),
                           (2, 8, compiled_replay_disabled())]:
            with mode:
                sym = _record_ca_cqr2("symbolic", trace=True, c=c, d=d)
                num = _record_ca_cqr2("numeric", trace=True, c=c, d=d)
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
