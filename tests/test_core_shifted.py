"""Unit tests for shifted CholeskyQR (the Section V / reference [3] extension)."""

import numpy as np
import pytest

from repro.core.cqr import cqr2_sequential
from repro.core.shifted import (
    recommended_shift,
    shifted_cqr3_sequential,
    shifted_cqr_sequential,
)
from repro.kernels.cholesky import CholeskyFailure
from repro.utils.matgen import matrix_with_condition, random_matrix


def orth_err(q):
    return np.linalg.norm(q.T @ q - np.eye(q.shape[1]), 2)


def resid(a, q, r):
    return np.linalg.norm(a - q @ np.triu(r), "fro") / np.linalg.norm(a, "fro")


class TestRecommendedShift:
    def test_formula(self):
        u = np.finfo(np.float64).eps / 2
        s = recommended_shift(100, 10, 4.0, unit_roundoff=u)
        assert s == pytest.approx(11 * (1000 + 110) * u * 4.0)

    def test_scales_with_norm(self):
        assert recommended_shift(64, 8, 10.0) == pytest.approx(
            10 * recommended_shift(64, 8, 1.0))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            recommended_shift(0, 8, 1.0)
        with pytest.raises(ValueError):
            recommended_shift(8, 8, -1.0)


class TestShiftedCQR:
    def test_succeeds_where_plain_cqr_fails(self):
        a = matrix_with_condition(256, 16, 1e14, rng=0)
        with pytest.raises(CholeskyFailure):
            cqr2_sequential(a)
        q1, r1 = shifted_cqr_sequential(a)  # must not raise
        assert q1.shape == (256, 16)

    def test_bounded_q_condition(self):
        # The point of the shift: Q1 is not orthogonal but has a tame
        # condition number, safe for the CQR2 passes that follow.
        a = matrix_with_condition(256, 16, 1e13, rng=1)
        q1, _ = shifted_cqr_sequential(a)
        assert np.linalg.cond(q1) < 1e9

    def test_factorization_residual(self):
        a = matrix_with_condition(256, 16, 1e10, rng=2)
        q1, r1 = shifted_cqr_sequential(a)
        assert resid(a, q1, r1) < 1e-8


class TestShiftedCQR3:
    @pytest.mark.parametrize("cond", [1e2, 1e8, 1e12, 1e14])
    def test_unconditional_stability(self, cond):
        a = matrix_with_condition(512, 16, cond, rng=3)
        q, r = shifted_cqr3_sequential(a)
        assert orth_err(q) < 1e-12, f"cond={cond}"
        assert resid(a, q, r) < 1e-9

    def test_well_conditioned_matches_cqr2(self):
        a = random_matrix(128, 8, rng=4)
        q_s, r_s = shifted_cqr3_sequential(a)
        q_2, r_2 = cqr2_sequential(a)
        np.testing.assert_allclose(np.abs(q_s), np.abs(q_2), atol=1e-10)

