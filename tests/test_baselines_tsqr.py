"""Unit tests for the TSQR baseline."""

import numpy as np
import pytest

from tests.conftest import make_1d

from repro.baselines.tsqr import tsqr_1d, tsqr_cost
from repro.kernels.flops import householder_flops
from repro.utils.matgen import matrix_with_condition
from repro.vmpi.distmatrix import DistMatrix


class TestExecuted:
    @pytest.mark.parametrize("procs", [1, 2, 4, 8])
    def test_factorization(self, rng, procs):
        vm, g = make_1d(procs)
        a = rng.standard_normal((16 * procs, 8))
        q, r = tsqr_1d(vm, DistMatrix.from_global(g, a))
        q_g, r_g = q.to_global(), r.to_global()
        np.testing.assert_allclose(q_g @ r_g, a, atol=1e-12)
        np.testing.assert_allclose(q_g.T @ q_g, np.eye(8), atol=1e-13)

    def test_unconditionally_stable(self, rng):
        # TSQR keeps Householder-level orthogonality at any condition number
        # (the property CholeskyQR-family algorithms lack).
        vm, g = make_1d(4)
        a = matrix_with_condition(128, 8, 1e14, rng=rng)
        q, r = tsqr_1d(vm, DistMatrix.from_global(g, a))
        q_g = q.to_global()
        assert np.linalg.norm(q_g.T @ q_g - np.eye(8), 2) < 1e-12

    def test_charges_allgather(self, rng):
        vm, g = make_1d(4)
        a = rng.standard_normal((64, 8))
        tsqr_1d(vm, DistMatrix.from_global(g, a))
        rep = vm.report()
        assert rep.phase_total("tsqr.r-allgather").messages == 2  # log2(4)
        assert rep.phase_total("tsqr.local-qr").flops == pytest.approx(
            householder_flops(16, 8))

    def test_validation(self, rng):
        vm, g = make_1d(4)
        with pytest.raises(ValueError, match="numeric-only"):
            tsqr_1d(vm, DistMatrix.symbolic(g, 64, 8))
        short = DistMatrix.from_global(g, rng.standard_normal((16, 8)))
        with pytest.raises(ValueError, match="at least n"):
            tsqr_1d(vm, short)


class TestCostModel:
    def test_log_latency(self):
        c4 = tsqr_cost(1024, 16, 4)
        c16 = tsqr_cost(4096, 16, 16)
        assert c16.messages == pytest.approx(2 * c4.messages)

    def test_bandwidth_independent_of_m(self):
        assert tsqr_cost(2 ** 16, 16, 8).words == tsqr_cost(2 ** 20, 16, 8).words

    def test_words_are_triangles(self):
        n, p = 16, 8
        c = tsqr_cost(2 ** 12, n, p)
        assert c.words == pytest.approx(3 * n * (n + 1) / 2)  # log2(8) levels

    def test_single_proc(self):
        c = tsqr_cost(256, 16, 1)
        assert c.messages == 0
        assert c.flops > householder_flops(256, 16)

    def test_requires_tall_local(self):
        with pytest.raises(ValueError):
            tsqr_cost(64, 16, 8)  # m/P = 8 < n


class TestVsCholeskyQR2Costs:
    def test_tsqr_moves_less_data_than_cqr2_in_1d(self):
        # n^2/2-word triangles per level vs full 2n^2-word allreduces:
        # TSQR's 1D bandwidth is lower; CQR2's advantage is BLAS-3 compute,
        # not volume (the paper's practicality argument).
        from repro.costmodel.tables import cqr2_1d_lines, lane_cost, total

        m, n, p = 2 ** 16, 64, 64
        cqr2 = lane_cost(total(cqr2_1d_lines(m, n, p)))
        assert tsqr_cost(m, n, p).words < cqr2.words
