"""Unit tests for MM3D (Algorithm 1)."""

import numpy as np
import pytest

from tests.conftest import assert_depth_replicated, make_cubic

from repro.core.mm3d import mm3d
from repro.costmodel.tables import lane_cost, mm3d_lines, total
from repro.vmpi.distmatrix import DistMatrix


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_square_product(self, rng, p):
        vm, g = make_cubic(p)
        n = 4 * p
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = mm3d(vm, DistMatrix.from_global(g, a), DistMatrix.from_global(g, b))
        np.testing.assert_allclose(c.to_global(), a @ b, atol=1e-12)

    def test_rectangular_product(self, rng):
        vm, g = make_cubic(2)
        a = rng.standard_normal((12, 4))
        b = rng.standard_normal((4, 6))
        c = mm3d(vm, DistMatrix.from_global(g, a), DistMatrix.from_global(g, b))
        np.testing.assert_allclose(c.to_global(), a @ b, atol=1e-12)

    def test_result_replicated_on_every_slice(self, rng):
        vm, g = make_cubic(2)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        c = mm3d(vm, DistMatrix.from_global(g, a), DistMatrix.from_global(g, b))
        assert_depth_replicated(c)
        for z in range(2):
            np.testing.assert_allclose(c.to_global(z=z), a @ b, atol=1e-12)

    def test_inner_dim_mismatch(self, rng):
        vm, g = make_cubic(2)
        a = DistMatrix.symbolic(g, 8, 8)
        b = DistMatrix.symbolic(g, 4, 8)
        with pytest.raises(ValueError, match="inner dimensions"):
            mm3d(vm, a, b)

    def test_requires_cubic_grid(self):
        from tests.conftest import make_tunable

        vm, g = make_tunable(2, 8)
        a = DistMatrix.symbolic(g, 16, 4)
        with pytest.raises(ValueError, match="cubic"):
            mm3d(vm, a, a)


class TestCosts:
    @pytest.mark.parametrize("p,m,k,n", [(2, 8, 8, 8), (2, 16, 8, 4), (4, 16, 16, 16)])
    def test_ledger_matches_closed_form(self, p, m, k, n):
        vm, g = make_cubic(p)
        a = DistMatrix.symbolic(g, m, k)
        b = DistMatrix.symbolic(g, k, n)
        mm3d(vm, a, b)
        rep = vm.report()
        assert rep.max_cost == lane_cost(total(mm3d_lines(m, k, n, p)))

    def test_flop_fraction(self):
        vm, g = make_cubic(2)
        a = DistMatrix.symbolic(g, 8, 8)
        mm3d(vm, a, a, flop_fraction=0.5)
        rep = vm.report()
        assert rep.max_cost == lane_cost(total(mm3d_lines(8, 8, 8, 2, flop_fraction=0.5)))
        # Half the flops of the dense charge.
        dense = lane_cost(total(mm3d_lines(8, 8, 8, 2)))
        assert rep.max_cost.flops == dense.flops / 2

    def test_cost_uniform_across_ranks(self):
        vm, g = make_cubic(2)
        a = DistMatrix.symbolic(g, 8, 8)
        mm3d(vm, a, a)
        rep = vm.report()
        assert rep.max_cost.isclose(rep.mean_cost)

    def test_phase_attribution(self):
        vm, g = make_cubic(2)
        a = DistMatrix.symbolic(g, 8, 8)
        mm3d(vm, a, a, phase="mul")
        rep = vm.report()
        assert rep.phase_total("mul.bcast-a").words > 0
        assert rep.phase_total("mul.local-mm").flops > 0
        assert rep.phase_total("mul.allreduce").messages > 0
        assert rep.phase_total("nonexistent").flops == 0

    def test_single_rank_no_communication(self, rng):
        vm, g = make_cubic(1)
        a = rng.standard_normal((4, 4))
        c = mm3d(vm, DistMatrix.from_global(g, a), DistMatrix.from_global(g, a))
        np.testing.assert_allclose(c.to_global(), a @ a, atol=1e-13)
        assert vm.report().max_cost.messages == 0
        assert vm.report().max_cost.words == 0
