"""Unit tests for the one-call factorization API, ``Session.factor``."""

import numpy as np
import pytest

from repro import Session
from repro.costmodel.params import STAMPEDE2
from repro.utils.matgen import random_matrix


def factor(a, algorithm, **fields):
    return Session().factor(a, algorithm=algorithm, **fields)


class TestCACQR2Factorize:
    def test_explicit_grid(self, rng):
        a = rng.standard_normal((64, 8))
        run = factor(a, "ca_cqr2", c=2, d=4)
        assert run.orthogonality_error() < 1e-13
        assert run.residual_error(a) < 1e-12
        assert run.grid.c == 2 and run.grid.d == 4
        assert run.report.num_ranks == 16

    def test_auto_grid_from_procs(self, rng):
        a = rng.standard_normal((64, 8))
        run = factor(a, "ca_cqr2", procs=16)
        assert run.grid.procs == 16
        assert run.orthogonality_error() < 1e-13

    def test_r_upper_triangular(self, rng):
        a = rng.standard_normal((64, 8))
        run = factor(a, "ca_cqr2", c=2, d=4)
        assert np.allclose(run.r, np.triu(run.r))

    def test_machine_affects_critical_path_not_result(self, rng):
        a = rng.standard_normal((64, 8))
        abstract = factor(a, "ca_cqr2", c=2, d=4)
        timed = factor(a, "ca_cqr2", c=2, d=4, machine=STAMPEDE2)
        np.testing.assert_array_equal(abstract.q, timed.q)
        assert abstract.report.critical_path_time != \
            timed.report.critical_path_time

    def test_requires_grid_or_procs(self, rng):
        with pytest.raises(ValueError, match="explicit"):
            factor(rng.standard_normal((64, 8)), "ca_cqr2")

    def test_rejects_wide(self, rng):
        with pytest.raises(ValueError, match="tall"):
            factor(rng.standard_normal((8, 64)), "ca_cqr2", c=1, d=1)


class TestOtherFactorizers:
    def test_cqr2_1d(self, rng):
        a = rng.standard_normal((64, 8))
        run = factor(a, "cqr2_1d", procs=4)
        assert run.orthogonality_error() < 1e-13
        assert run.residual_error(a) < 1e-12
        assert run.grid.c == 1

    def test_tsqr(self, rng):
        a = rng.standard_normal((64, 8))
        run = factor(a, "tsqr", procs=4)
        assert run.orthogonality_error() < 1e-13
        assert run.residual_error(a) < 1e-13

    def test_scalapack(self, rng):
        a = rng.standard_normal((64, 8))
        run = factor(a, "scalapack", pr=4, pc=2, block_size=4)
        assert run.orthogonality_error() < 1e-12
        assert run.residual_error(a) < 1e-12

    def test_scalapack_populates_grid(self, rng):
        # Regression: the 2D baseline used to return grid=None, unlike
        # the other algorithms.
        a = rng.standard_normal((64, 8))
        run = factor(a, "scalapack", pr=4, pc=2, block_size=4)
        assert run.grid is not None
        assert (run.grid.pr, run.grid.pc) == (4, 2)
        assert run.grid.procs == 8


class TestAllAlgorithmsAgree:
    def test_same_r_up_to_signs(self, rng):
        # All four produce the (unique, positive-diagonal) R of A.
        a = random_matrix(64, 8, rng=rng)
        runs = [
            factor(a, "ca_cqr2", c=2, d=4),
            factor(a, "cqr2_1d", procs=4),
            factor(a, "tsqr", procs=4),
            factor(a, "scalapack", pr=4, pc=2, block_size=4),
        ]
        ref = np.abs(runs[0].r)
        for run in runs[1:]:
            np.testing.assert_allclose(np.abs(run.r), ref, atol=1e-9)

    def test_reconstruction_consistency(self, rng):
        a = random_matrix(64, 8, rng=rng)
        for run in (factor(a, "ca_cqr2", c=2, d=4),
                    factor(a, "tsqr", procs=8)):
            np.testing.assert_allclose(run.q @ run.r, a, atol=1e-10)
