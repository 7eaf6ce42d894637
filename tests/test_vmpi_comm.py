"""Unit tests for communicators: data movement + cost charging together."""

import numpy as np
import pytest

from repro.vmpi.comm import Communicator, pairwise_swap
from repro.vmpi.datatypes import NumericBlock, SymbolicBlock
from repro.vmpi.machine import VirtualMachine


def _blocks(values):
    return {r: NumericBlock(np.full((2, 2), float(v))) for r, v in values.items()}


class TestConstruction:
    def test_rejects_duplicates(self):
        vm = VirtualMachine(4)
        with pytest.raises(ValueError, match="distinct"):
            Communicator(vm, [0, 1, 1])

    def test_rejects_out_of_range(self):
        vm = VirtualMachine(2)
        with pytest.raises(ValueError):
            Communicator(vm, [0, 5])

    @pytest.mark.parametrize("ranks,match", [
        (np.array([2, 0, 2]), "distinct"),
        (np.array([-1, 0]), "rank -1 out of range"),
        (np.array([0, 1, 2]), "rank 2 out of range"),
    ])
    def test_public_constructor_validates_arrays(self, ranks, match):
        # Grid slices skip these checks (Communicator._trusted); the
        # public constructor must keep them for caller-supplied groups.
        with pytest.raises(ValueError, match=match):
            Communicator(VirtualMachine(2), ranks)

    def test_grid_communicators_match_validated_constructor(self):
        from repro.vmpi.grid import Grid3D

        vm = VirtualMachine(2 * 8 * 2)
        g = Grid3D.tunable(vm, 2, 8)
        for comm in (g.comm_x(3, 1), g.comm_y(1, 0), g.comm_z(0, 5),
                     g.comm_slice(1), g.comm_y_group(1, 1, 2, 2),
                     g.comm_y_strided(0, 1, 1, 2)):
            ref = Communicator(vm, comm.ranks_array)
            assert comm.ranks == ref.ranks
            assert comm.ranks_array.dtype == np.intp
            assert comm.ranks_array.flags.c_contiguous

    def test_index_of(self):
        vm = VirtualMachine(4)
        comm = Communicator(vm, [3, 1, 2])
        assert comm.index_of(1) == 1
        assert comm.index_of(3) == 0

    def test_index_of_uses_cached_mapping(self):
        # Satellite fix: index_of used to linear-scan a tuple (O(p) per
        # call); it now answers from a rank->index map computed once.
        vm = VirtualMachine(1024)
        comm = Communicator(vm, list(range(1023, -1, -1)))
        assert comm._index is None                 # built lazily...
        assert comm.index_of(1023) == 0
        assert comm._index is not None             # ...cached after first use
        cached = comm._index
        for rank in (0, 1, 512, 1023):
            assert comm.index_of(rank) == 1023 - rank
        assert comm._index is cached               # no rebuild per call

    def test_index_of_rejects_non_member(self):
        vm = VirtualMachine(8)
        comm = Communicator(vm, [1, 3, 5])
        with pytest.raises(ValueError, match="not a member"):
            comm.index_of(2)

    def test_ranks_tuple_and_array_agree(self):
        import numpy as np

        vm = VirtualMachine(8)
        comm = Communicator(vm, np.array([6, 0, 3]))
        assert comm.ranks == (6, 0, 3)
        assert comm.ranks_array.tolist() == [6, 0, 3]


class TestBcast:
    def test_delivers_copies(self):
        vm = VirtualMachine(3)
        comm = Communicator(vm, [0, 1, 2])
        root = NumericBlock(np.full((2, 2), 7.0))
        out = comm.bcast(root, root_index=0, phase="p")
        assert set(out) == {0, 1, 2}
        for blk in out.values():
            np.testing.assert_array_equal(blk.data, 7.0)
        # Copies, not aliases.
        out[1].data[0, 0] = -1
        assert out[2].data[0, 0] == 7.0

    def test_charges_butterfly_cost(self):
        vm = VirtualMachine(4)
        comm = Communicator(vm, [0, 1, 2, 3])
        comm.bcast(NumericBlock(np.zeros((4, 4))), 0, "p")
        led = vm.ledger_of(2)
        assert led.total.messages == 2 * 2   # 2 log2(4)
        assert led.total.words == 2 * 16

    def test_invalid_root(self):
        vm = VirtualMachine(2)
        comm = Communicator(vm, [0, 1])
        with pytest.raises(ValueError):
            comm.bcast(NumericBlock(np.zeros((1, 1))), 5, "p")


class TestReduceAllreduce:
    def test_reduce_sums_to_root(self):
        vm = VirtualMachine(3)
        comm = Communicator(vm, [0, 1, 2])
        total = comm.reduce(_blocks({0: 1, 1: 2, 2: 3}), root_index=1, phase="p")
        np.testing.assert_array_equal(total.data, 6.0)

    def test_allreduce_delivers_everywhere(self):
        vm = VirtualMachine(3)
        comm = Communicator(vm, [0, 1, 2])
        out = comm.allreduce(_blocks({0: 1, 1: 2, 2: 4}), phase="p")
        for blk in out.values():
            np.testing.assert_array_equal(blk.data, 7.0)

    def test_symbolic_allreduce(self):
        vm = VirtualMachine(2)
        comm = Communicator(vm, [0, 1])
        out = comm.allreduce({0: SymbolicBlock((3, 3)), 1: SymbolicBlock((3, 3))}, "p")
        assert out[0].shape == (3, 3)
        assert vm.ledger_of(0).total.words == 2 * 9

    def test_requires_all_members(self):
        vm = VirtualMachine(3)
        comm = Communicator(vm, [0, 1, 2])
        with pytest.raises(ValueError, match="every communicator member"):
            comm.allreduce(_blocks({0: 1, 1: 2}), "p")

    def test_requires_matching_shapes(self):
        vm = VirtualMachine(2)
        comm = Communicator(vm, [0, 1])
        bad = {0: NumericBlock(np.zeros((2, 2))), 1: NumericBlock(np.zeros((3, 3)))}
        with pytest.raises(ValueError, match="share a shape"):
            comm.allreduce(bad, "p")


class TestAllgather:
    def test_orders_by_group(self):
        vm = VirtualMachine(3)
        comm = Communicator(vm, [2, 0, 1])
        out = comm.allgather(_blocks({0: 0, 1: 1, 2: 2}), "p")
        assert [b.data[0, 0] for b in out] == [2.0, 0.0, 1.0]

    def test_charges_result_volume(self):
        vm = VirtualMachine(4)
        comm = Communicator(vm, [0, 1, 2, 3])
        comm.allgather({r: NumericBlock(np.zeros((2, 2))) for r in range(4)}, "p")
        assert vm.ledger_of(0).total.messages == 2  # log2(4)
        assert vm.ledger_of(0).total.words == 16    # 4 blocks of 4 words


class TestPairwiseSwap:
    def test_swaps(self):
        vm = VirtualMachine(2)
        a = NumericBlock(np.full((2, 2), 1.0))
        b = NumericBlock(np.full((2, 2), 2.0))
        ra, rb = pairwise_swap(vm, 0, 1, a, b, "t")
        np.testing.assert_array_equal(ra.data, 2.0)
        np.testing.assert_array_equal(rb.data, 1.0)
        assert vm.ledger_of(0).total.messages == 1
        assert vm.ledger_of(0).total.words == 4

    def test_self_swap_free(self):
        vm = VirtualMachine(1)
        a = NumericBlock(np.zeros((2, 2)))
        ra, rb = pairwise_swap(vm, 0, 0, a, a, "t")
        assert ra is a and rb is a
        assert vm.ledger_of(0).total.messages == 0

    def test_unequal_volumes_rejected(self):
        vm = VirtualMachine(2)
        with pytest.raises(ValueError, match="equal volumes"):
            pairwise_swap(vm, 0, 1, NumericBlock(np.zeros((2, 2))),
                          NumericBlock(np.zeros((3, 3))), "t")


class TestSumBlocksDtype:
    def test_integer_blocks_accumulate_in_float64(self):
        # Pins the contract that the collective sum accumulates in float64,
        # so integer contributions come back as exact doubles even if the
        # accumulator's construction ever stops relying on numpy defaults.
        vm = VirtualMachine(4)
        comm = Communicator(vm, [0, 1, 2, 3])
        contributions = {
            r: NumericBlock(np.full((2, 2), 2 ** 30 + r, dtype=np.int64))
            for r in range(4)
        }
        out = comm.allreduce(contributions, "p")
        expected = float(sum(2 ** 30 + r for r in range(4)))
        for blk in out.values():
            assert blk.data.dtype == np.float64
            np.testing.assert_array_equal(blk.data, expected)

    def test_reduce_integer_blocks(self):
        vm = VirtualMachine(2)
        comm = Communicator(vm, [0, 1])
        out = comm.reduce(
            {r: NumericBlock(np.full((2, 2), r + 1, dtype=np.int32))
             for r in range(2)},
            root_index=0, phase="p")
        assert out.data.dtype == np.float64
        np.testing.assert_array_equal(out.data, 3.0)
