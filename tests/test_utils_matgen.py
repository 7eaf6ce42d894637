"""Unit tests for repro.utils.matgen (workload generators)."""

import numpy as np
import pytest

from tests.conftest import random_spd

from repro.utils.matgen import (
    matrix_with_condition,
    random_matrix,
    random_orthonormal,
    tall_skinny_least_squares_problem,
    vandermonde_matrix,
)


class TestRandomMatrix:
    def test_shape_and_dtype(self):
        a = random_matrix(10, 4, rng=0)
        assert a.shape == (10, 4)
        assert a.dtype == np.float64

    def test_reproducible(self):
        np.testing.assert_array_equal(random_matrix(8, 3, rng=42),
                                      random_matrix(8, 3, rng=42))

    def test_different_seeds_differ(self):
        assert not np.array_equal(random_matrix(8, 3, rng=1),
                                  random_matrix(8, 3, rng=2))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            random_matrix(0, 4)


class TestRandomOrthonormal:
    def test_columns_orthonormal(self):
        q = random_orthonormal(64, 8, rng=0)
        np.testing.assert_allclose(q.T @ q, np.eye(8), atol=1e-13)

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            random_orthonormal(4, 8)


class TestMatrixWithCondition:
    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e6, 1e10])
    def test_condition_number_exact(self, cond):
        a = matrix_with_condition(128, 16, cond, rng=0)
        s = np.linalg.svd(a, compute_uv=False)
        # Round-off in forming U diag(s) V.T perturbs the smallest singular
        # value by ~eps*||A||, i.e. a relative error of ~eps*cond.
        rel = max(1e-10, 100 * np.finfo(float).eps * cond)
        assert s[0] / s[-1] == pytest.approx(cond, rel=rel)

    @pytest.mark.parametrize("mode", ["geometric", "arithmetic", "cluster"])
    def test_modes(self, mode):
        a = matrix_with_condition(64, 8, 1e4, rng=0, mode=mode)
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(1e4, rel=1e-8)

    def test_cluster_mode_isolated_direction(self):
        a = matrix_with_condition(64, 8, 1e6, rng=0, mode="cluster")
        s = np.linalg.svd(a, compute_uv=False)
        # All but the last singular value cluster at 1.
        np.testing.assert_allclose(s[:-1], 1.0, rtol=1e-10)

    def test_rejects_condition_below_one(self):
        with pytest.raises(ValueError):
            matrix_with_condition(16, 4, 0.5)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            matrix_with_condition(16, 4, 10.0, mode="bogus")

    def test_single_column(self):
        a = matrix_with_condition(16, 1, 100.0, rng=0)
        assert a.shape == (16, 1)


class TestRandomSPD:
    def test_symmetric(self):
        a = random_spd(16, rng=0)
        np.testing.assert_array_equal(a, a.T)

    def test_positive_definite(self):
        a = random_spd(16, condition=1e3, rng=0)
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() > 0

    def test_condition(self):
        a = random_spd(16, condition=1e3, rng=0)
        eigs = np.linalg.eigvalsh(a)
        assert eigs.max() / eigs.min() == pytest.approx(1e3, rel=1e-6)

    def test_cholesky_succeeds(self):
        np.linalg.cholesky(random_spd(32, condition=1e8, rng=1))


class TestLeastSquaresProblem:
    def test_solution_recoverable(self):
        a, b, x_true = tall_skinny_least_squares_problem(256, 8, noise=0.0, rng=0)
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        np.testing.assert_allclose(x, x_true, rtol=1e-8)

    def test_noise_perturbs(self):
        a, b, x_true = tall_skinny_least_squares_problem(256, 8, noise=1e-2, rng=0)
        assert np.linalg.norm(a @ x_true - b) > 0


class TestStructuredFamilies:
    def test_vandermonde_shape_and_growth(self):
        v = vandermonde_matrix(64, 12)
        assert v.shape == (64, 12)
        # Condition number grows rapidly with column count.
        c_small = np.linalg.cond(vandermonde_matrix(64, 6))
        c_large = np.linalg.cond(vandermonde_matrix(64, 12))
        assert c_large > 10 * c_small
