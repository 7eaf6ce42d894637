"""Collectives on stacked blocks: family charges and rank-order reductions.

A collective is one ``charge_comm_groups`` call over its communicator
family (the rows of a ``(groups, size)`` slice of a grid's rank array)
and, for a reduction, ``ordered_sum`` along one axis of a stacked array.
"""

import numpy as np
import pytest

from repro.costmodel import collectives as cc
from repro.vmpi.comm import ordered_sum
from repro.vmpi.distmatrix import DistMatrix, dist_transpose
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine


class TestBcast:
    def test_charges_butterfly_cost(self):
        vm = VirtualMachine(4)
        vm.charge_comm_groups(np.arange(4)[None], cc.bcast_cost(16, 4), "p")
        led = vm.ledger_of(2)
        assert led.total.messages == 2 * 2   # 2 log2(4)
        assert led.total.words == 2 * 16

    def test_family_charge_equals_group_by_group(self):
        # Every row communicator Pi[:, y, z] of a 2 x 4 x 2 grid at once,
        # from skewed clocks, against one charge per communicator.
        machines = [VirtualMachine(16), VirtualMachine(16)]
        for vm in machines:
            vm.charge_flops_group(np.arange(16), 1.0, "skew")
            vm.charge_flops_group(np.arange(0, 16, 3), 5.0, "skew")
        rows = Grid3D.tunable(machines[0], 2, 4).ranks.transpose(1, 2, 0).reshape(-1, 2)
        cost = cc.bcast_cost(8, 2)
        machines[0].charge_comm_groups(rows, cost, "bcast")
        for group in rows:
            machines[1].charge_comm_group(group, cost, "bcast")
        assert machines[0].report() == machines[1].report()
        for rank in range(16):
            assert machines[0].clock_of(rank) == machines[1].clock_of(rank)


class TestReduceAllreduce:
    def test_reduce_sums_to_root(self):
        stack = np.stack([np.full((2, 2), v) for v in (1.0, 2.0, 3.0)])
        np.testing.assert_array_equal(ordered_sum(stack, axis=0), 6.0)

    def test_allreduce_delivers_everywhere(self):
        # Column communicators Pi[x, :, 0] of a stacked (x, y, ., .) array:
        # each x sums its own y members and nothing else.
        stack = np.arange(24.0).reshape(2, 3, 2, 2)
        total = ordered_sum(stack.copy(), axis=1)
        np.testing.assert_array_equal(total, stack.sum(axis=1))

    def test_symbolic_allreduce(self):
        vm = VirtualMachine(2)
        vm.charge_comm_groups(np.array([[0, 1]]), cc.allreduce_cost(9, 2), "p")
        assert vm.ledger_of(0).total.words == 2 * 9


class TestAllgather:
    def test_charges_result_volume(self):
        vm = VirtualMachine(4)
        vm.charge_comm_groups(np.arange(4)[None], cc.allgather_cost(4 * 4, 4), "p")
        assert vm.ledger_of(0).total.messages == 2  # log2(4)
        assert vm.ledger_of(0).total.words == 16    # 4 blocks of 4 words


class TestPairwiseSwap:
    def test_swaps(self):
        vm = VirtualMachine(4)
        g = Grid3D.build(vm, 2, 2, 1)
        a = DistMatrix.from_global(g, np.arange(16.0).reshape(4, 4))
        t = dist_transpose(vm, a, "t")
        np.testing.assert_array_equal(t.to_global(), a.to_global().T)
        off_diagonal = g.ranks[0, 1, 0]
        assert vm.ledger_of(off_diagonal).total.messages == 1
        assert vm.ledger_of(off_diagonal).total.words == 4

    def test_self_swap_free(self):
        vm = VirtualMachine(4)
        g = Grid3D.build(vm, 2, 2, 1)
        dist_transpose(vm, DistMatrix.symbolic(g, 4, 4), "t")
        for x in range(2):
            assert vm.ledger_of(g.ranks[x, x, 0]).total.messages == 0

    def test_unequal_volumes_rejected(self):
        # Partners exchange equal volumes only on a square face and a
        # square matrix; anything else is rejected before charging.
        vm = VirtualMachine(8)
        with pytest.raises(ValueError, match="square grid face"):
            dist_transpose(vm, DistMatrix.symbolic(Grid3D.build(vm, 1, 8, 1), 8, 8), "t")
        with pytest.raises(ValueError, match="square matrices"):
            dist_transpose(vm, DistMatrix.symbolic(Grid3D.cubic(vm, 2), 8, 4), "t")
        assert vm.report().max_cost.messages == 0
