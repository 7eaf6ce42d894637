"""Unit tests for CA-CQR / CA-CQR2 (Algorithms 8-9) and 3D-CQR2."""

import tracemalloc

import numpy as np
import pytest

from tests.conftest import assert_depth_replicated, make_cubic, make_tunable

from repro.core.cacqr import ca_cqr, ca_cqr2, cqr2_3d
from repro.core.cfr3d import default_base_case
from repro.core.cqr import cqr2_sequential
from repro.costmodel.tables import ca_cqr2_lines, ca_cqr_lines, lane_cost, total
from repro.vmpi.distmatrix import DistMatrix


def check_qr(a, q, r, orth_tol=1e-10, resid_tol=1e-11):
    n = a.shape[1]
    assert np.linalg.norm(q.T @ q - np.eye(n), 2) < orth_tol
    assert np.linalg.norm(a - q @ np.triu(r), "fro") / np.linalg.norm(a, "fro") < resid_tol


class TestCACQRCorrectness:
    @pytest.mark.parametrize("c,d,m,n", [
        (1, 4, 32, 4),     # degenerates to 1D
        (2, 2, 32, 8),     # cubic (3D-CQR)
        (2, 4, 32, 8),     # two subcubes
        (2, 8, 64, 8),     # four subcubes
        (3, 3, 54, 9),     # non-power-of-two cubic
    ])
    def test_single_pass(self, rng, c, d, m, n):
        vm, g = make_tunable(c, d)
        a = rng.standard_normal((m, n))
        res = ca_cqr(vm, DistMatrix.from_global(g, a))
        q = res.q.to_global()
        r = np.triu(res.r.to_global())
        # One CholeskyQR pass on a Gaussian matrix: modest orthogonality.
        check_qr(a, q, r, orth_tol=1e-8, resid_tol=1e-11)

    @pytest.mark.parametrize("c,d,m,n", [(1, 4, 32, 4), (2, 4, 32, 8), (2, 8, 64, 8)])
    def test_cqr2(self, rng, c, d, m, n):
        vm, g = make_tunable(c, d)
        a = rng.standard_normal((m, n))
        res = ca_cqr2(vm, DistMatrix.from_global(g, a))
        check_qr(a, res.q.to_global(), res.r.to_global(),
                 orth_tol=1e-13, resid_tol=1e-12)

    def test_all_subcubes_agree_on_r(self, rng):
        vm, g = make_tunable(2, 8)
        a = rng.standard_normal((64, 8))
        res = ca_cqr2(vm, DistMatrix.from_global(g, a))
        ref = res.r_subcubes[0].to_global()
        for r_sub in res.r_subcubes[1:]:
            np.testing.assert_allclose(r_sub.to_global(), ref, atol=1e-12)

    def test_matches_sequential_cqr2(self, rng):
        vm, g = make_tunable(2, 4)
        a = rng.standard_normal((32, 8))
        res = ca_cqr2(vm, DistMatrix.from_global(g, a))
        q_seq, r_seq = cqr2_sequential(a)
        np.testing.assert_allclose(res.q.to_global(), q_seq, atol=1e-10)
        np.testing.assert_allclose(np.triu(res.r.to_global()), r_seq, atol=1e-10)

    def test_q_distributed_like_a(self, rng):
        vm, g = make_tunable(2, 4)
        a = rng.standard_normal((32, 8))
        res = ca_cqr2(vm, DistMatrix.from_global(g, a))
        assert res.q.m == 32 and res.q.n == 8
        assert res.q.grid is g
        assert_depth_replicated(res.q)

    def test_explicit_base_case(self, rng):
        vm, g = make_tunable(2, 4)
        a = rng.standard_normal((64, 16))
        res = ca_cqr2(vm, DistMatrix.from_global(g, a), base_case_size=4)
        check_qr(a, res.q.to_global(), res.r.to_global(),
                 orth_tol=1e-13, resid_tol=1e-12)


class TestMemory:
    @pytest.mark.parametrize("c,d,m,n", [(4, 16, 4096, 64), (2, 8, 4096, 32)])
    def test_numeric_peak_holds_depth_replicas_once(self, c, d, m, n):
        # Storing each of the c depth replicas of A and Q took the traced
        # peak to 13.4x and 7.2x the input's m*n*8 bytes; one plane per
        # depth fiber keeps it near 4x.
        a = np.random.default_rng(0).standard_normal((m, n))
        vm, g = make_tunable(c, d)
        ca_cqr2(vm, DistMatrix.symbolic(g, m, n))   # capture the programs
        vm, g = make_tunable(c, d)
        tracemalloc.start()
        try:
            ca_cqr2(vm, DistMatrix.from_global(g, a))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * a.nbytes, f"peak {peak / a.nbytes:.1f}x m*n*8"


class TestCQR23D:
    def test_cubic_special_case(self, rng):
        vm, g = make_cubic(2)
        a = rng.standard_normal((16, 8))
        res = cqr2_3d(vm, DistMatrix.from_global(g, a))
        check_qr(a, res.q.to_global(), res.r.to_global(),
                 orth_tol=1e-13, resid_tol=1e-12)

    def test_rejects_non_cubic(self, rng):
        vm, g = make_tunable(2, 8)
        with pytest.raises(ValueError, match="cubic"):
            cqr2_3d(vm, DistMatrix.symbolic(g, 16, 8))


class TestValidation:
    def test_rejects_wide_matrix(self):
        vm, g = make_tunable(2, 4)
        with pytest.raises(ValueError, match="tall"):
            ca_cqr(vm, DistMatrix.symbolic(g, 8, 16))

    def test_rejects_grid_with_x_z_mismatch(self):
        from repro.vmpi.grid import Grid3D
        from repro.vmpi.machine import VirtualMachine

        vm = VirtualMachine(8)
        g = Grid3D.build(vm, 2, 2, 2)  # cubic is fine...
        bad = Grid3D.build(VirtualMachine(4), 2, 1, 2)  # d=1 < c=2
        with pytest.raises(ValueError):
            ca_cqr(bad.vm, DistMatrix.symbolic(bad, 8, 4))

    def test_rejects_n_not_divisible_by_c(self):
        vm, g = make_tunable(2, 4)
        with pytest.raises(ValueError):
            DistMatrix.symbolic(g, 16, 7)


class TestCosts:
    @pytest.mark.parametrize("m,n,c,d", [
        (64, 8, 2, 4), (128, 16, 2, 8), (256, 16, 1, 4), (64, 8, 2, 2),
    ])
    def test_ca_cqr_ledger_matches_closed_form(self, m, n, c, d):
        vm, g = make_tunable(c, d)
        ca_cqr(vm, DistMatrix.symbolic(g, m, n))
        n0 = default_base_case(n, c)
        assert vm.report().max_cost == lane_cost(total(ca_cqr_lines(m, n, c, d, n0)))

    @pytest.mark.parametrize("m,n,c,d", [(64, 8, 2, 4), (512, 32, 2, 8), (128, 8, 1, 8)])
    def test_ca_cqr2_ledger_matches_closed_form(self, m, n, c, d):
        vm, g = make_tunable(c, d)
        ca_cqr2(vm, DistMatrix.symbolic(g, m, n))
        n0 = default_base_case(n, c)
        assert vm.report().max_cost == lane_cost(total(ca_cqr2_lines(m, n, c, d, n0)))

    def test_c_equals_1_matches_1d_communication_shape(self):
        # CA-CQR with c=1 degenerates to 1D-CQR: only the strided allreduce
        # communicates (the two bcasts and the group reduce are singleton).
        vm, g = make_tunable(1, 8)
        ca_cqr(vm, DistMatrix.symbolic(g, 64, 8), phase="ca")
        rep = vm.report()
        assert rep.phase_total("ca.bcast-w").messages == 0
        assert rep.phase_total("ca.reduce-group").messages == 0
        assert rep.phase_total("ca.bcast-depth").messages == 0
        assert rep.phase_total("ca.allreduce-roots").messages > 0
        # One allreduce of the full n x n Gram over all 8 ranks.
        assert rep.phase_total("ca.allreduce-roots").words == 2 * 64

    def test_gram_charged_at_syrk_rate(self):
        vm, g = make_tunable(2, 4)
        ca_cqr(vm, DistMatrix.symbolic(g, 64, 8), phase="ca")
        rep = vm.report()
        mloc, nloc = 64 // 4, 8 // 2
        assert rep.phase_total("ca.local-gram").flops == pytest.approx(mloc * nloc * nloc)

    def test_bigger_c_less_bandwidth_more_latency(self):
        # The Table I interpolation on a fixed P: raising c trades messages
        # up for words down.  The bandwidth win needs the n^2/c^2 Gram term
        # to matter, i.e. a near-square matrix.
        m = n = 256
        low_c, high_c = (lane_cost(total(ca_cqr2_lines(
            m, n, c, d, default_base_case(n, c)))) for c, d in ((1, 64), (4, 4)))
        assert high_c.messages > low_c.messages
        assert high_c.words < low_c.words

    def test_bigger_c_less_flops_for_square(self):
        # The redundant n^3 CholInv of small c dominates near m = n.
        m = n = 256
        low_c, high_c = (lane_cost(total(ca_cqr2_lines(
            m, n, c, d, default_base_case(n, c)))) for c, d in ((1, 64), (4, 4)))
        assert high_c.flops < low_c.flops
