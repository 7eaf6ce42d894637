"""Integration tests: cross-module, end-to-end scenarios."""

import numpy as np
import pytest

from tests.conftest import graded_matrix, make_cubic, make_tunable

from repro import Session
from repro.core.cacqr import ca_cqr2
from repro.core.cfr3d import cfr3d
from repro.core.mm3d import mm3d
from repro.core.tuning import feasible_grids
from repro.costmodel.params import BLUE_WATERS, STAMPEDE2
from repro.costmodel.performance import ExecutionModel
from repro.utils.matgen import (
    matrix_with_condition,
    tall_skinny_least_squares_problem,
)
from repro.vmpi.distmatrix import DistMatrix


class TestLeastSquaresScenario:
    """The paper's motivating workload: overdetermined least squares."""

    def test_solve_via_cacqr2(self, rng):
        a, b, x_true = tall_skinny_least_squares_problem(256, 8, noise=0.0,
                                                         condition=100.0, rng=rng)
        run = Session().factor(a, algorithm="ca_cqr2", c=2, d=8)
        # Solve R x = Q^T b.
        import scipy.linalg

        x = scipy.linalg.solve_triangular(run.r, run.q.T @ b, lower=False)
        np.testing.assert_allclose(x, x_true, rtol=1e-8)

    def test_normal_equations_worse_than_cqr2(self, rng):
        # CQR2 is more accurate than the normal equations it superficially
        # resembles: the second pass repairs the squaring.
        a, b, _ = tall_skinny_least_squares_problem(512, 16, noise=1e-4,
                                                    condition=1e6, rng=rng)
        import scipy.linalg

        run = Session().factor(a, algorithm="ca_cqr2", c=2, d=8)
        x_cqr2 = scipy.linalg.solve_triangular(run.r, run.q.T @ b, lower=False)
        gram = a.T @ a
        x_normal = np.linalg.solve(gram, a.T @ b)
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        err_cqr2 = np.linalg.norm(x_cqr2 - x_ref)
        err_normal = np.linalg.norm(x_normal - x_ref)
        assert err_cqr2 <= err_normal * 1.5


class TestCompositionOfSubstrates:
    def test_cfr3d_feeds_mm3d(self, rng):
        # L from CFR3D times its inverse is the identity, via MM3D.
        from tests.conftest import spd_matrix

        vm, g = make_cubic(2)
        a = spd_matrix(16, rng)
        l, y = cfr3d(vm, DistMatrix.from_global(g, a), 4)
        ident = mm3d(vm, l, y)
        np.testing.assert_allclose(ident.to_global(), np.eye(16), atol=1e-9)

    def test_two_pass_structure_visible_in_phases(self, rng):
        vm, g = make_tunable(2, 4)
        a = rng.standard_normal((32, 8))
        ca_cqr2(vm, DistMatrix.from_global(g, a), phase="run")
        rep = vm.report()
        p1 = rep.phase_total("run.pass1")
        p2 = rep.phase_total("run.pass2")
        merge = rep.phase_total("run.merge-r")
        # Both passes do the same communication; the merge adds a bit.
        assert p1.words == pytest.approx(p2.words)
        assert merge.flops > 0
        total = p1 + p2 + merge
        assert total.isclose(rep.max_cost)


def planned_ca_cqr2(m, n, procs, machine):
    """The planner's best CA-CQR2 configuration (its spec fields)."""
    return Session().plan(m=m, n=n, procs=procs, machine=machine,
                          algorithms=("ca_cqr2",), inverse_depths=(0,),
                          refine=None).best().spec_fields


class TestAutotunedEndToEnd:
    def test_autotuned_grid_runs_numerically(self, rng):
        m, n, procs = 128, 8, 32
        best = planned_ca_cqr2(m, n, procs, STAMPEDE2)
        a = rng.standard_normal((m, n))
        run = Session().factor(a, algorithm="ca_cqr2", c=best["c"],
                               d=best["d"])
        assert run.orthogonality_error() < 1e-13

    def test_model_choice_consistency_across_machines(self):
        # A near-square problem: the low-latency machine tolerates a larger
        # c than the high-latency one, or picks the same.
        m, n, procs = 2 ** 11, 2 ** 10, 512
        c_bw = planned_ca_cqr2(m, n, procs, BLUE_WATERS)["c"]
        c_s2 = planned_ca_cqr2(m, n, procs, STAMPEDE2)["c"]
        assert c_bw >= c_s2


class TestAllParallelizationsAgree:
    def test_three_algorithms_same_factors(self, rng):
        a = rng.standard_normal((64, 8))
        runs = [
            Session().factor(a, algorithm="ca_cqr2", c=2, d=4),
            Session().factor(a, algorithm="ca_cqr2", c=1, d=16),   # 1D special case of CA
            Session().factor(a, algorithm="cqr2_1d", procs=16),   # explicit Algorithm 7
        ]
        for run in runs[1:]:
            np.testing.assert_allclose(run.q, runs[0].q, atol=1e-10)
            np.testing.assert_allclose(run.r, runs[0].r, atol=1e-10)

    def test_tsqr_agrees_on_r_magnitudes(self, rng):
        a = rng.standard_normal((64, 8))
        r_ca = Session().factor(a, algorithm="ca_cqr2", c=2, d=4).r
        r_ts = Session().factor(a, algorithm="tsqr", procs=8).r
        np.testing.assert_allclose(np.abs(r_ts), np.abs(r_ca), atol=1e-10)


class TestFailureInjection:
    def test_rotationally_mixed_ill_conditioning_breaks_cacqr2_cleanly(self, rng):
        from repro.kernels.cholesky import CholeskyFailure

        a = matrix_with_condition(64, 8, 1e14, rng=rng)
        with pytest.raises(CholeskyFailure, match="shifted"):
            Session().factor(a, algorithm="ca_cqr2", c=2, d=4)

    def test_shifted_sequential_rescues_breakdown(self, rng):
        from repro.core.shifted import shifted_cqr3_sequential

        a = matrix_with_condition(64, 8, 1e14, rng=rng)
        q, r = shifted_cqr3_sequential(a)
        assert np.linalg.norm(q.T @ q - np.eye(8), 2) < 1e-12

    def test_graded_columns_are_benign_for_choleskyqr(self, rng):
        # Column scaling inflates kappa(A) but not the difficulty of the
        # Gram factorization -- CholeskyQR2 sails through at kappa ~ 1e12.
        a = graded_matrix(64, 8, grade=1e12, rng=rng)
        assert np.linalg.cond(a) > 1e10
        run = Session().factor(a, algorithm="ca_cqr2", c=2, d=4)
        assert run.orthogonality_error() < 1e-13

    def test_moderately_ill_conditioned_fine(self, rng):
        a = matrix_with_condition(128, 8, 1e6, rng=rng)
        run = Session().factor(a, algorithm="ca_cqr2", c=2, d=4)
        assert run.orthogonality_error() < 1e-12


class TestScalingSanity:
    def test_modeled_time_decreases_with_procs(self):
        # Strong scaling at model level: more processors, less time,
        # for a compute-heavy problem on a latency-free machine.
        from repro.core.cfr3d import default_base_case
        from repro.costmodel.tables import ca_cqr2_lines, lane_cost, total
        from repro.costmodel.params import ABSTRACT_MACHINE

        model = ExecutionModel(ABSTRACT_MACHINE)
        m, n = 2 ** 16, 2 ** 6
        times = []
        for c, d in ((1, 16), (2, 16), (2, 64)):
            t = model.seconds(lane_cost(total(ca_cqr2_lines(
                m, n, c, d, default_base_case(n, c)))))
            times.append(t)
        assert times[2] < times[0]

    def test_feasible_grid_count_grows_with_p(self):
        few = feasible_grids(2 ** 16, 2 ** 6, 64)
        many = feasible_grids(2 ** 16, 2 ** 6, 4096)
        assert len(many) >= len(few)
