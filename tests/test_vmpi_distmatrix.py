"""Unit tests for distributed matrices: layouts, quadrants, transpose."""

import numpy as np
import pytest

from tests.conftest import (assert_alias_only_depth_replicas,
                            assert_depth_replicated, make_cubic, make_tunable)

from repro.utils.validation import ValidationError
from repro.vmpi.datatypes import NumericBlock
from repro.vmpi.distmatrix import DistMatrix, Replicated, dist_transpose


class TestDistribution:
    def test_roundtrip(self, rng):
        vm, g = make_cubic(2)
        a = rng.standard_normal((8, 8))
        d = DistMatrix.from_global(g, a)
        np.testing.assert_array_equal(d.to_global(), a)

    def test_replicated_over_depth(self, rng):
        vm, g = make_cubic(2)
        a = rng.standard_normal((8, 8))
        d = DistMatrix.from_global(g, a)
        assert_depth_replicated(d, a)

    def test_cyclic_block_content(self):
        vm, g = make_cubic(2)
        a = np.arange(16.0).reshape(4, 4)
        d = DistMatrix.from_global(g, a)
        # Block at (x=1, y=0) holds rows 0::2, cols 1::2.
        np.testing.assert_array_equal(d.data[1, 0, 0], [[1, 3], [9, 11]])

    @pytest.mark.parametrize("c,d", [(1, 1), (1, 4), (2, 2), (2, 4), (2, 8),
                                     (3, 3), (3, 6), (4, 4)])
    def test_every_block_is_its_cyclic_submatrix(self, c, d):
        vm, g = make_tunable(c, d)
        m, n = 3 * d, 2 * c
        a = np.arange(float(m * n)).reshape(m, n)
        dm = DistMatrix.from_global(g, a)
        # Rank (x, y, z) holds rows y::d and cols x::c on every slice z.
        for x, y, z in np.ndindex(*g.dims):
            np.testing.assert_array_equal(dm.data[x, y, z], a[y::d, x::c])
        for z in range(c):
            np.testing.assert_array_equal(dm.to_global(z), a)
        assert DistMatrix.symbolic(g, m, n).shared_block.shape == (3, 2)

    def test_tunable_grid_shapes(self, rng):
        vm, g = make_tunable(2, 4)
        d = DistMatrix.from_global(g, rng.standard_normal((16, 6)))
        assert d.local_rows == 4
        assert d.local_cols == 3

    def test_rejects_indivisible(self):
        vm, g = make_cubic(2)
        with pytest.raises(ValueError, match="not divisible"):
            DistMatrix.from_global(g, np.zeros((7, 8)))

    def test_symbolic(self):
        vm, g = make_cubic(2)
        d = DistMatrix.symbolic(g, 16, 8)
        assert not d.is_numeric
        assert d.shared_block.shape == (8, 4)

    def test_blocks_are_read_only_views_aliased_only_across_depth(self, rng):
        vm, g = make_tunable(2, 4)
        d = DistMatrix.from_global(g, rng.standard_normal((16, 8)))
        views = [d.data[idx] for idx in np.ndindex(*g.dims)]
        assert len(views) == g.size
        for view in views:
            assert np.shares_memory(view, d.data) and not view.flags.writeable
        # Depth replicas (same x, y) are one stored block; distinct (x, y)
        # never alias.
        assert_alias_only_depth_replicas(d)
        with pytest.raises(ValueError):
            views[0][0, 0] = 1.0
        with pytest.raises(ValueError):
            d.plane[0, 0, 0, 0, 0] = 1.0

    def test_stacked_rejects_full_depth_copies(self):
        # dim_z copies of one plane are the memory over-depth views avoid.
        vm, g = make_cubic(2)
        with pytest.raises(ValueError, match="depth copies"):
            DistMatrix.stacked(g, 8, 8, np.zeros((2, 2, 2, 4, 4)))
        plane = np.zeros((2, 2, 1, 4, 4))
        d = DistMatrix.from_plane(g, 8, 8, plane)
        assert d.data.strides[2] == 0 and np.shares_memory(d.data, plane)
        assert DistMatrix.stacked(g, 8, 8, d.data).data is d.data

    @pytest.mark.parametrize("z", [-1, 2])
    def test_to_global_rejects_out_of_range_slice(self, rng, z):
        # -1 used to return the last slice through negative indexing, and
        # dim_z raised a bare IndexError.
        vm, g = make_cubic(2)
        d = DistMatrix.from_global(g, rng.standard_normal((8, 8)))
        with pytest.raises(ValidationError, match=rf"z={z} out of range \[0, 2\)"):
            d.to_global(z)

    def test_missing_block_rejected(self):
        # A stack without one depth slice's blocks does not cover the grid.
        vm, g = make_cubic(2)
        data = np.zeros((2, 2, 1, 4, 4))
        with pytest.raises(ValueError, match="stacked blocks have shape"):
            DistMatrix.stacked(g, 8, 8, data)


class TestQuadrants:
    def test_quadrant_matches_global(self, rng):
        vm, g = make_cubic(2)
        a = rng.standard_normal((8, 8))
        d = DistMatrix.from_global(g, a)
        np.testing.assert_array_equal(d.quadrant(0, 0).to_global(), a[:4, :4])
        np.testing.assert_array_equal(d.quadrant(1, 0).to_global(), a[4:, :4])
        np.testing.assert_array_equal(d.quadrant(1, 1).to_global(), a[4:, 4:])

    def test_assemble_roundtrip(self, rng):
        vm, g = make_cubic(2)
        a = rng.standard_normal((8, 8))
        d = DistMatrix.from_global(g, a)
        q = [d.quadrant(i, j) for i in (0, 1) for j in (0, 1)]
        re = DistMatrix.assemble_quadrants(q[0], q[1], q[2], q[3])
        np.testing.assert_array_equal(re.to_global(), a)

    def test_too_small_to_quarter(self):
        vm, g = make_cubic(2)
        d = DistMatrix.symbolic(g, 2, 2)
        with pytest.raises(ValueError):
            d.quadrant(0, 0)


class TestSubcube:
    def test_subcube_view_shares_memory(self, rng):
        vm, g = make_tunable(2, 4)
        a = rng.standard_normal((16, 4))
        d = DistMatrix.from_global(g, a)
        sub = g.subcube(1)
        view = d.subcube(1)
        # The same buffers, just rebooked on the subgrid: no copy.
        assert view.grid.matches(sub)
        np.testing.assert_array_equal(view.data[1, 0, 1], d.data[1, 2, 1])
        assert np.shares_memory(view.data, d.data)
        assert view.m == 8 and view.n == 4
        # Subcube 1 holds global rows y = 2, 3 (mod 4) of every 4.
        rows = [i for i in range(16) if i % 4 in (2, 3)]
        np.testing.assert_array_equal(view.to_global(), a[rows])


class TestDistTranspose:
    def test_transpose_correct(self, rng):
        vm, g = make_cubic(2)
        a = rng.standard_normal((8, 8))
        d = DistMatrix.from_global(g, a)
        t = dist_transpose(vm, d, "t")
        np.testing.assert_array_equal(t.to_global(), a.T)

    def test_transpose_charges_offdiagonal_only(self, rng):
        vm, g = make_cubic(2)
        d = DistMatrix.from_global(g, rng.standard_normal((8, 8)))
        dist_transpose(vm, d, "t")
        diag_rank = g.ranks[0, 0, 0]
        off_rank = g.ranks[0, 1, 0]
        assert vm.ledger_of(diag_rank).total.messages == 0
        assert vm.ledger_of(off_rank).total.messages == 1
        assert vm.ledger_of(off_rank).total.words == 16  # (8/2)^2

    def test_transpose_requires_square(self, rng):
        vm, g = make_cubic(2)
        d = DistMatrix.from_global(g, rng.standard_normal((8, 4)))
        with pytest.raises(ValueError):
            dist_transpose(vm, d, "t")

    def test_double_transpose_identity(self, rng):
        vm, g = make_cubic(3)
        a = rng.standard_normal((9, 9))
        d = DistMatrix.from_global(g, a)
        tt = dist_transpose(vm, dist_transpose(vm, d, "t"), "t")
        np.testing.assert_array_equal(tt.to_global(), a)


class TestReplicated:
    def test_to_global_checks_consistency(self):
        r = Replicated.stacked(np.arange(2), np.stack([np.eye(2), np.eye(2)]))
        np.testing.assert_array_equal(r.to_global(), np.eye(2))

    def test_divergence_detected(self):
        r = Replicated.stacked(np.arange(2), np.stack([np.eye(2), np.zeros((2, 2))]))
        with pytest.raises(ValueError, match="diverged"):
            r.to_global()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="stack"):
            Replicated.stacked(np.arange(1), np.zeros((3, 3)))

    def test_shared_block_on_every_rank(self):
        r = Replicated.shared(np.arange(1000), NumericBlock(np.eye(2)))
        assert r.ranks.size == 1000 and r.copies is None
        assert not r.shared_block.data.flags.writeable
        np.testing.assert_array_equal(r.to_global(), np.eye(2))
        assert Replicated.stacked(np.arange(1), np.eye(2)[None]).shared_block is None
