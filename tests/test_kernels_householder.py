"""Unit tests for the sequential Householder QR kernel."""

import numpy as np
import pytest

from repro.kernels.householder import signed_qr


class TestLocalQR:
    def test_factorization(self, rng):
        a = rng.standard_normal((32, 6))
        q, r = signed_qr(a)
        np.testing.assert_allclose(q @ r, a, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(6), atol=1e-13)

    def test_r_upper_triangular_nonneg_diag(self, rng):
        a = rng.standard_normal((16, 5))
        _, r = signed_qr(a)
        assert np.array_equal(r, np.triu(r))
        assert (np.diag(r) >= 0).all()

    def test_sign_convention_unique(self, rng):
        # QR of the same matrix twice gives bitwise identical factors.
        a = rng.standard_normal((16, 4))
        q1, r1 = signed_qr(a)
        q2, r2 = signed_qr(a.copy())
        np.testing.assert_array_equal(q1, q2)
        np.testing.assert_array_equal(r1, r2)

    def test_rejects_wide(self):
        with pytest.raises(ValueError, match="m >= n"):
            signed_qr(np.zeros((4, 8)))
        with pytest.raises(ValueError, match="m >= n"):
            signed_qr(np.zeros((3, 4, 8)))

    def test_stack_is_factored_matrix_by_matrix(self, rng):
        stack = rng.standard_normal((5, 24, 6))
        q, r = signed_qr(stack)
        assert (np.diagonal(r, axis1=-2, axis2=-1) >= 0).all()
        for i, a in enumerate(stack):
            q_i, r_i = signed_qr(a)
            np.testing.assert_array_equal(q[i], q_i)
            np.testing.assert_array_equal(r[i], r_i)
