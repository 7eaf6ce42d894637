"""Unit tests for Cholesky kernels, including the Algorithm-2 recursion."""

import numpy as np
import pytest
import scipy.linalg

from tests.conftest import spd_matrix

from repro.kernels.cholesky import (
    CholeskyFailure,
    _trinv_lower,
    cholinv_recursive,
    local_chol,
    local_cholinv,
    local_trinv,
)
from repro.vmpi.datatypes import NumericBlock, SymbolicBlock


class TestLocalChol:
    def test_factorization(self, rng):
        a = spd_matrix(8, rng)
        l, flops = local_chol(NumericBlock(a))
        np.testing.assert_allclose(l.data @ l.data.T, a, atol=1e-12)
        assert np.allclose(l.data, np.tril(l.data))
        assert flops == pytest.approx((2 / 3) * 8 ** 3)

    def test_failure_raises_domain_error(self):
        indefinite = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(CholeskyFailure, match="shifted"):
            local_chol(NumericBlock(indefinite))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            local_chol(SymbolicBlock((3, 4)))

    def test_symbolic(self):
        l, flops = local_chol(SymbolicBlock((8, 8)))
        assert l.shape == (8, 8)
        assert flops == pytest.approx((2 / 3) * 512)


class TestLocalTrinv:
    def test_inverse(self, rng):
        a = spd_matrix(6, rng)
        l, _ = local_chol(NumericBlock(a))
        y, flops = local_trinv(l)
        np.testing.assert_allclose(y.data @ l.data, np.eye(6), atol=1e-10)
        assert flops == pytest.approx(6 ** 3 / 3)


class TestTrinvLower:
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_bits_match_solve_triangular(self, n, rng):
        l = np.linalg.cholesky(spd_matrix(n, rng))
        assert np.array_equal(
            _trinv_lower(l),
            scipy.linalg.solve_triangular(l, np.eye(n), lower=True))

    def test_non_contiguous_view(self, rng):
        l = np.linalg.cholesky(spd_matrix(14, rng))[::2, ::2]
        assert not l.flags.c_contiguous and not l.flags.f_contiguous
        assert np.array_equal(
            _trinv_lower(l),
            scipy.linalg.solve_triangular(l, np.eye(7), lower=True))


class TestLocalCholinv:
    def test_both_factors(self, rng):
        a = spd_matrix(8, rng)
        l, y, flops = local_cholinv(NumericBlock(a))
        np.testing.assert_allclose(l.data @ l.data.T, a, atol=1e-12)
        np.testing.assert_allclose(y.data, np.linalg.inv(l.data), atol=1e-9)
        assert flops == pytest.approx(8 ** 3)  # 2n^3/3 + n^3/3


class TestCholinvRecursive:
    @pytest.mark.parametrize("n,base", [(2, 1), (8, 1), (8, 2), (16, 4)])
    def test_matches_direct(self, rng, n, base):
        a = spd_matrix(n, rng)
        l_rec, y_rec = cholinv_recursive(a, base=base)
        l_ref = np.linalg.cholesky(a)
        np.testing.assert_allclose(l_rec, l_ref, atol=1e-9)
        np.testing.assert_allclose(y_rec, np.linalg.inv(l_ref), atol=1e-8)

    def test_triangular_structure(self, rng):
        a = spd_matrix(8, rng)
        l, y = cholinv_recursive(a)
        assert np.allclose(l, np.tril(l))
        assert np.allclose(y, np.tril(y))

    def test_inverse_identity(self, rng):
        a = spd_matrix(16, rng)
        l, y = cholinv_recursive(a, base=2)
        np.testing.assert_allclose(l @ y, np.eye(16), atol=1e-9)
