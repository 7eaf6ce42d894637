"""Tests for the QR verification module."""

import numpy as np
import pytest

from repro import Session
from repro.core.cqr import cqr2_sequential, cqr_sequential
from repro.utils.matgen import matrix_with_condition, random_matrix
from repro.verify import cross_check, verify_qr


class TestVerifyQR:
    def test_passes_on_good_factorization(self):
        a = random_matrix(128, 8, rng=0)
        q, r = cqr2_sequential(a)
        verdict = verify_qr(a, q, r)
        assert verdict.passed
        assert verdict.reconstruction_error < 1e-13
        assert verdict.is_upper_triangular

    @pytest.mark.parametrize("m,n,kappa", [(128, 8, 1.0), (4096, 64, 1e6),
                                           (1000, 30, 1e3)])
    def test_reconstruction_error_is_the_plain_formula_bitwise(self, m, n, kappa):
        # The residual is built in QR's buffer; the number must be the one
        # the two-temporary expression gives, to the last bit.
        a = matrix_with_condition(m, n, kappa, rng=m + n)
        q, r = cqr2_sequential(a)
        want = float(np.linalg.norm(a - q @ r, "fro") / np.linalg.norm(a, "fro"))
        got = verify_qr(a, q, r).reconstruction_error
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert got > 0.0

    def test_fails_on_bad_orthogonality(self):
        # One CholeskyQR pass at kappa ~ 1e6: residual fine, Q broken.
        a = matrix_with_condition(256, 8, 1e6, rng=1)
        q, r = cqr_sequential(a)
        verdict = verify_qr(a, q, r)
        assert not verdict.passed
        assert any("orthogonality" in f for f in verdict.failures)
        # Reconstruction alone would pass (backward stability).
        assert verdict.reconstruction_error < 1e-10

    def test_fails_on_wrong_factors(self):
        a = random_matrix(64, 4, rng=2)
        q, r = cqr2_sequential(a)
        verdict = verify_qr(a, q, 2 * r)
        assert not verdict.passed
        assert any("reconstruction" in f for f in verdict.failures)

    def test_detects_non_triangular(self):
        a = random_matrix(64, 4, rng=3)
        q, r = cqr2_sequential(a)
        r_bad = r.copy()
        r_bad[2, 0] = 1.0
        q_fix = q.copy()
        verdict = verify_qr(a, q_fix, r_bad,
                            reconstruction_tol=1.0, orthogonality_tol=1.0)
        assert not verdict.passed
        assert "R is not upper triangular" in verdict.failures

    def test_sign_convention(self):
        a = random_matrix(64, 4, rng=4)
        q, r = cqr2_sequential(a)
        q_neg, r_neg = q.copy(), r.copy()
        q_neg[:, 0] *= -1
        r_neg[0, :] *= -1
        ok = verify_qr(a, q_neg, r_neg)
        assert ok.passed  # reconstruction/orthogonality unaffected
        strict = verify_qr(a, q_neg, r_neg, require_sign_convention=True)
        assert not strict.passed

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            verify_qr(np.zeros((8, 4)), np.zeros((8, 3)), np.zeros((4, 4)))

    def test_str_rendering(self):
        a = random_matrix(64, 4, rng=5)
        q, r = cqr2_sequential(a)
        assert "PASS" in str(verify_qr(a, q, r))


class TestCrossCheck:
    def test_consistent_algorithms(self):
        a = random_matrix(64, 8, rng=6)
        ca = Session().factor(a, algorithm="ca_cqr2", c=2, d=4)
        ts = Session().factor(a, algorithm="tsqr", procs=8)
        runs = [
            ("cacqr2", ca.q, ca.r),
            ("tsqr", ts.q, ts.r),
            ("seq", *cqr2_sequential(a)),
        ]
        assert cross_check(a, runs) == []

    def test_detects_divergence(self):
        a = random_matrix(64, 8, rng=7)
        q, r = cqr2_sequential(a)
        runs = [("good", q, r), ("bad", q, r * 1.001)]
        problems = cross_check(a, runs)
        assert len(problems) == 1
        assert "bad" in problems[0]

    def test_needs_two(self):
        a = random_matrix(64, 8, rng=8)
        q, r = cqr2_sequential(a)
        with pytest.raises(ValueError):
            cross_check(a, [("only", q, r)])
