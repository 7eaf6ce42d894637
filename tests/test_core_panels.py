"""Unit tests for panel-blocked CQR2 (the Section V future-work feature)."""

import numpy as np
import pytest

from repro.core.panels import panel_cqr2, panel_cqr2_flops, panel_overhead_ratio
from repro.utils.matgen import matrix_with_condition, random_matrix


def orth_err(q):
    return np.linalg.norm(q.T @ q - np.eye(q.shape[1]), 2)


class TestCorrectness:
    @pytest.mark.parametrize("b", [4, 8, 16, 32])
    def test_factorization(self, b):
        a = random_matrix(128, 32, rng=0)
        q, r = panel_cqr2(a, panel_width=b)
        np.testing.assert_allclose(q @ r, a, atol=1e-11)
        assert orth_err(q) < 1e-12
        assert np.allclose(r, np.triu(r))

    def test_full_width_recovers_cqr2(self):
        from repro.core.cqr import cqr2_sequential

        a = random_matrix(64, 16, rng=1)
        q_p, r_p = panel_cqr2(a, panel_width=16)
        q_c, r_c = cqr2_sequential(a)
        np.testing.assert_allclose(q_p, q_c, atol=1e-12)
        np.testing.assert_allclose(r_p, r_c, atol=1e-12)

    def test_near_square_matrix(self):
        a = random_matrix(40, 32, rng=2)
        q, r = panel_cqr2(a, panel_width=8)
        np.testing.assert_allclose(q @ r, a, atol=1e-11)
        assert orth_err(q) < 1e-12

    def test_moderate_conditioning(self):
        a = matrix_with_condition(256, 32, 1e4, rng=3)
        q, r = panel_cqr2(a, panel_width=8)
        assert orth_err(q) < 1e-11

    def test_without_reorthogonalization_degrades(self):
        a = matrix_with_condition(256, 32, 1e4, rng=4)
        q1, _ = panel_cqr2(a, panel_width=8, reorthogonalize=True)
        q0, _ = panel_cqr2(a, panel_width=8, reorthogonalize=False)
        assert orth_err(q1) <= orth_err(q0)

    def test_validation(self):
        with pytest.raises(ValueError, match="divide"):
            panel_cqr2(random_matrix(64, 16, rng=0), panel_width=5)
        with pytest.raises(ValueError, match="tall"):
            panel_cqr2(np.zeros((8, 16)), panel_width=4)


class TestFlopModel:
    def test_full_width_is_cqr2_count(self):
        # b = n: 4 m n^2, the plain CQR2 leading term.
        assert panel_cqr2_flops(1024, 64, 64) == pytest.approx(4 * 1024 * 64 * 64)

    def test_narrow_panels_approach_householder(self):
        # The Section V goal: overhead -> 1 as b/n -> 0 for near-square.
        m = n = 1024
        wide = panel_overhead_ratio(m, n, n)
        narrow = panel_overhead_ratio(m, n, 16)
        assert wide > 2.5
        assert narrow < 1.8
        assert narrow < wide

    def test_square_overhead_falls_to_the_gemm_floor(self):
        # For a square matrix the floor is 2mn^2 / (2mn^2 - 2n^3/3) = 1.5
        # (the GEMM updates).
        n = 2 ** 12
        ratios = [panel_overhead_ratio(n, n, b)
                  for b in (n, n // 4, n // 16, n // 64)]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[0] > 2.5 and ratios[-1] < 1.6

    def test_monotone_in_panel_width(self):
        m, n = 4096, 256
        ratios = [panel_overhead_ratio(m, n, b) for b in (16, 64, 256)]
        assert ratios == sorted(ratios)

    def test_closed_form(self):
        # F(b) = 4mnb + 2mn(n-b) exactly.
        m, n, b = 512, 64, 8
        assert panel_cqr2_flops(m, n, b) == pytest.approx(
            4 * m * n * b + 2 * m * n * (n - b))
