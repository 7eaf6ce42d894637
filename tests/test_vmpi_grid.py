"""Unit tests for 3D processor grids and their communicator families."""

import numpy as np
import pytest

from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine


class TestConstruction:
    def test_build_covers_all_ranks(self):
        vm = VirtualMachine(24)
        g = Grid3D.build(vm, 2, 3, 4)
        assert g.dims == (2, 3, 4)
        assert sorted(g.all_ranks_array.tolist()) == list(range(24))

    def test_tunable_grid(self):
        vm = VirtualMachine(2 * 2 * 8)
        g = Grid3D.tunable(vm, c=2, d=8)
        assert g.dims == (2, 8, 2)

    def test_cubic(self):
        vm = VirtualMachine(27)
        g = Grid3D.cubic(vm, 3)
        assert g.is_cubic

    def test_offset(self):
        vm = VirtualMachine(16)
        g = Grid3D.build(vm, 2, 2, 2, offset=8)
        assert sorted(g.all_ranks_array.tolist()) == list(range(8, 16))

    def test_too_large_rejected(self):
        vm = VirtualMachine(7)
        with pytest.raises(ValueError):
            Grid3D.build(vm, 2, 2, 2)

    def test_duplicate_ranks_rejected(self):
        vm = VirtualMachine(8)
        with pytest.raises(ValueError, match="duplicate"):
            Grid3D(vm, np.zeros((2, 2, 2), dtype=int))


class TestSubgroupAlgebra:
    def setup_method(self):
        # c x d x c = 2 x 8 x 2 grid: 4 subcubes.
        self.vm = VirtualMachine(32)
        self.g = Grid3D.tunable(self.vm, c=2, d=8)

    def test_subcube_is_cubic(self):
        sub = self.g.subcube(1)
        assert sub.dims == (2, 2, 2)
        assert sub.ranks[0, 0, 0] == self.g.ranks[0, 2, 0]

    def test_subcubes_partition_grid(self):
        seen = set()
        for grp in range(4):
            seen.update(self.g.subcube(grp).all_ranks_array.tolist())
        assert seen == set(range(32))

    def test_subcube_bad_group(self):
        with pytest.raises(ValueError):
            self.g.subcube(4)


class TestMatches:
    def test_structural_equality(self):
        vm = VirtualMachine(32)
        g = Grid3D.tunable(vm, 2, 8)
        assert g.subcube(1).matches(g.subcube(1))
        assert not g.subcube(0).matches(g.subcube(1))


class TestLazyRootGrid:
    """A root grid keeps its dims and builds its rank array on first use;
    what it answers equals a grid over the same rank array, built eagerly."""

    @pytest.mark.parametrize("c, d", [(1, 4), (2, 2), (2, 8), (3, 6)])
    def test_ranks_subcubes_and_matches_equal_an_eager_grid(self, c, d):
        vm = VirtualMachine(c * c * d)
        lazy = Grid3D.tunable(vm, c, d)
        assert lazy._ranks is None
        assert lazy.matches(Grid3D.tunable(vm, c, d))   # dims alone
        assert lazy._ranks is None
        assert not lazy.matches(Grid3D.tunable(VirtualMachine(c * c * d),
                                               c, d))
        eager = Grid3D(vm, np.arange(c * c * d).reshape(c, d, c, order="F"))
        assert not eager.is_root
        assert lazy.matches(eager) and eager.matches(lazy)
        np.testing.assert_array_equal(lazy.ranks, eager.ranks)
        assert lazy.ranks.flags.c_contiguous
        for group in range(d // c):
            sub = lazy.subcube(group)
            assert sub.dims == eager.subcube(group).dims
            np.testing.assert_array_equal(sub.ranks, eager.subcube(group).ranks)
            assert sub.matches(eager.subcube(group))
            assert sub.is_root == (d == c)
        np.testing.assert_array_equal(lazy.all_ranks_array,
                                      eager.all_ranks_array)

    def test_other_layouts_do_not_match_a_root_grid(self):
        vm = VirtualMachine(16)
        root = Grid3D.build(vm, 2, 4, 2)
        assert not root.matches(Grid3D.build(vm, 4, 2, 2))
        permuted = Grid3D(vm, root.ranks[::-1].copy())
        assert not root.matches(permuted) and not permuted.matches(root)


class TestRootGridLines:
    def test_root_marking(self):
        vm = VirtualMachine(2 * 2 * 8 + 4)
        assert not Grid3D.tunable(vm, 2, 8).is_root       # machine is larger
        assert not Grid3D.tunable(vm, 2, 8, offset=4).is_root
        vm = VirtualMachine(2 * 2 * 8)
        g = Grid3D.tunable(vm, 2, 8)
        assert g.is_root
        assert not g.subcube(1).is_root
        assert not Grid3D(vm, g.ranks).is_root            # validated, unmarked
        cube = Grid3D.cubic(VirtualMachine(8), 2)
        assert cube.subcube(0).is_root                    # the whole grid

    @pytest.mark.parametrize("shape, axis", [((2, 8, 2), 0), ((2, 8, 2), 1),
                                             ((2, 8, 2), 2),
                                             ((2, 4, 2, 2), 1),
                                             ((2, 4, 2, 2), 2)])
    def test_root_axis_form_equals_rank_matrix_form(self, shape, axis):
        from repro.costmodel.collectives import CollectiveCost

        machines = []
        for root in (True, False):
            vm = VirtualMachine(32)
            g = Grid3D.tunable(vm, 2, 8)
            if not root:
                g = Grid3D(vm, g.ranks)
            for rank in range(32):
                vm.charge_flops(rank, float((7 * rank) % 11), "skew")
            g.charge_lines(vm, shape, axis, CollectiveCost(2, 5), "lines")
            machines.append(vm)
        fast, slow = machines
        np.testing.assert_array_equal(fast.clocks(), slow.clocks())
        assert fast.report() == slow.report()
        for rank in range(32):
            assert fast.ledger_of(rank).phases == slow.ledger_of(rank).phases
