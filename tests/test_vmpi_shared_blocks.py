"""Shared-block symbolic matrices: O(1) Python objects per DistMatrix.

A symbolic :class:`DistMatrix` holds one shape-only block that every
rank of its grid shares (:meth:`DistMatrix.shared`), and a compiled
symbolic CA-CQR2 returns its ``d/c`` per-subcube ``R`` copies as a lazy
sequence.  These tests pin the object counts, the laziness, and that the
lazy results agree with the eager per-subcube loop
(:func:`repro.sched.compiled_replay_disabled`).
"""

import contextlib

import numpy as np
import pytest

from tests.conftest import make_tunable

from repro.core.cacqr import (
    SubcubeResults,
    _gram_program,
    _merge_program,
    _subcube_pass_program,
    ca_cqr,
    ca_cqr2,
)
from repro.core.cfr3d import _cfr3d_program
from repro.core.shifted import ca_shifted_cqr3
from repro.sched import compiled_replay_disabled
from repro.vmpi.datatypes import NumericBlock, SymbolicBlock
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D

#: (c, d, m, n): the degenerate c=1 grid with 4096 subcubes, and c=2 with 512.
LARGE_GRIDS = [(1, 4096, 8192, 2), (2, 1024, 4096, 4)]


def local_shape(dm: DistMatrix):
    return dm.shared_block.shape


@pytest.fixture(scope="module", params=LARGE_GRIDS,
                ids=lambda p: f"c{p[0]}-d{p[1]}")
def replay_and_loop(request):
    """Symbolic CA-CQR2 results from compiled replay and from the loop."""
    c, d, m, n = request.param
    results = []
    for mode in (contextlib.nullcontext(), compiled_replay_disabled()):
        vm, g = make_tunable(c, d)
        with mode:
            results.append((g, ca_cqr2(vm, DistMatrix.symbolic(g, m, n))))
    return request.param, results


class TestLazySubcubeResults:
    def test_length_is_number_of_subcubes(self, replay_and_loop):
        (c, d, _, _), [(_, fast), (_, slow)] = replay_and_loop
        assert isinstance(fast.r_subcubes, SubcubeResults)
        assert len(fast.r_subcubes) == len(slow.r_subcubes) == d // c

    def test_subcube_grids_and_shapes_match_the_loop(self, replay_and_loop):
        (c, d, m, n), [(g, fast), (_, slow)] = replay_and_loop
        for k in range(d // c):
            lazy, eager = fast.r_subcubes[k], slow.r_subcubes[k]
            assert lazy.grid.matches(g.subcube(k))
            np.testing.assert_array_equal(lazy.grid.ranks, eager.grid.ranks)
            assert (lazy.m, lazy.n) == (eager.m, eager.n) == (n, n)
            assert local_shape(lazy) == local_shape(eager)
        assert (fast.q.m, fast.q.n) == (slow.q.m, slow.q.n) == (m, n)
        assert fast.q.grid is g
        assert local_shape(fast.q) == local_shape(slow.q)
        assert fast.r.grid.matches(g.subcube(0))

    def test_negative_index_and_bounds(self, replay_and_loop):
        (c, d, _, _), [(g, fast), _] = replay_and_loop
        assert fast.r_subcubes[-1].grid.matches(g.subcube(d // c - 1))
        with pytest.raises(IndexError):
            _ = fast.r_subcubes[d // c]

    @pytest.mark.parametrize("c,d,m,n", LARGE_GRIDS)
    def test_no_subcube_built_until_indexed(self, c, d, m, n, monkeypatch):
        built = []
        subcube = Grid3D.subcube
        monkeypatch.setattr(Grid3D, "subcube",
                            lambda grid, *a: built.append(a) or subcube(grid, *a))
        vm, g = make_tunable(c, d)
        res = ca_cqr2(vm, DistMatrix.symbolic(g, m, n))
        assert len(res.r_subcubes) == d // c
        assert built == []
        _ = res.r_subcubes[7]
        assert built == [(7,)]
        _ = res.r
        assert built == [(7,), (0,)]


class TestObjectCounts:
    @staticmethod
    def constructed(monkeypatch, c, d, m, n):
        """``(data, block)`` of every DistMatrix one cold symbolic CA-CQR2 builds."""
        for memo in (_gram_program, _cfr3d_program, _subcube_pass_program,
                     _merge_program):
            memo.cache_clear()
        contents = []
        init = DistMatrix._init

        def recording(self, grid, m, n, data, block):
            contents.append((data, block))
            init(self, grid, m, n, data, block)

        vm, g = make_tunable(c, d)
        with monkeypatch.context() as patch:
            patch.setattr(DistMatrix, "_init", recording)
            ca_cqr2(vm, DistMatrix.symbolic(g, m, n))
        return contents

    def test_matrices_built_do_not_scale_with_subcubes(self, monkeypatch):
        small = self.constructed(monkeypatch, 2, 8, 256, 8)
        large = self.constructed(monkeypatch, 2, 1024, 32768, 8)
        assert len(small) == len(large)
        assert all(data is None and isinstance(block, SymbolicBlock)
                   for data, block in small + large)


class TestSharedConstructor:
    def test_misshaped_block_rejected(self):
        vm, g = make_tunable(2, 4)
        with pytest.raises(ValueError,
                           match=r"shared block has shape \(3, 4\), expected \(4, 4\)"):
            DistMatrix.shared(g, 16, 8, SymbolicBlock((3, 4)))

    def test_indivisible_shape_rejected(self):
        vm, g = make_tunable(2, 4)
        with pytest.raises(ValueError, match="not divisible"):
            DistMatrix.shared(g, 15, 8, SymbolicBlock((4, 4)))

    def test_numeric_blocks_are_never_shared(self):
        vm, g = make_tunable(2, 4)
        with pytest.raises(ValueError, match="symbolic"):
            DistMatrix.shared(g, 16, 8, NumericBlock(np.zeros((4, 4))))

    def test_shared_matrix_is_one_block_over_the_grid_ranks(self):
        vm, g = make_tunable(2, 4)
        a = DistMatrix.symbolic(g, 16, 8)
        assert a.data is None and a.shared_block.shape == (4, 4)
        assert not a.is_numeric

    def test_structural_ops_stay_shared(self):
        vm, g = make_tunable(2, 2)
        a = DistMatrix.symbolic(g, 8, 8)
        quads = [a.quadrant(i, j) for i in (0, 1) for j in (0, 1)]
        assert all(q.shared_block is not None for q in quads)
        whole = DistMatrix.assemble_quadrants(*quads)
        assert whole.shared_block.shape == (4, 4)
        assert a.column_panel(0, 4).shared_block.shape == (4, 2)
        view = a.subcube(0)
        assert view.shared_block is a.shared_block


class TestGridTrust:
    def test_build_and_subcube_keep_their_layout(self):
        vm, g = make_tunable(2, 8)
        checked = Grid3D(vm, g.ranks.copy())
        assert checked.matches(g) and g.matches(g)
        sub = g.subcube(2)
        assert sub.matches(Grid3D(vm, g.ranks[:, 4:6, :]))
        assert sub.all_ranks_array.dtype == np.intp


class TestShiftedSubcubeZip:
    """sCQR3 zips the per-subcube R copies: lazy and eager agree exactly."""

    @pytest.mark.parametrize("c,d,m,n", [(2, 8, 256, 8), (1, 16, 128, 4)])
    def test_replay_and_loop_reports_identical(self, c, d, m, n):
        vm_fast, g_fast = make_tunable(c, d)
        fast = ca_shifted_cqr3(vm_fast, DistMatrix.symbolic(g_fast, m, n),
                               phase="s")
        vm_slow, g_slow = make_tunable(c, d)
        with compiled_replay_disabled():
            slow = ca_shifted_cqr3(vm_slow, DistMatrix.symbolic(g_slow, m, n),
                                   phase="s")
        assert vm_fast.report() == vm_slow.report()
        np.testing.assert_array_equal(vm_fast.clocks(), vm_slow.clocks())
        assert len(fast.r_subcubes) == len(slow.r_subcubes) == d // c
        for lazy, eager in zip(fast.r_subcubes, slow.r_subcubes):
            np.testing.assert_array_equal(lazy.grid.ranks, eager.grid.ranks)
            assert local_shape(lazy) == local_shape(eager)

    def test_single_pass_results_are_lazy(self):
        vm, g = make_tunable(2, 8)
        res = ca_cqr(vm, DistMatrix.symbolic(g, 256, 8))
        assert isinstance(res.r_subcubes, SubcubeResults)
        assert [r.grid.dims for r in res.r_subcubes] == [(2, 2, 2)] * 4
