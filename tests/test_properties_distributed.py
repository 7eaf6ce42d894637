"""Property-based tests of the distributed algorithms over random grids.

These strengthen the reproduction's core claim -- that the virtual-MPI
algorithms are faithful implementations -- by checking, over randomized
feasible (grid, matrix) combinations:

* CA-CQR2 always produces a valid QR (verified by :mod:`repro.verify`);
* the executed ledger always equals the closed-form line tables, bit for bit;
* MM3D distributes over multiplication chains;
* CFR3D matches LAPACK's Cholesky for any SPD input;
* depth replication is restored on every output.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tests.conftest import (assert_depth_replicated, make_cubic, make_tunable,
                            random_spd)

from repro.core.cacqr import ca_cqr2
from repro.core.cfr3d import cfr3d, default_base_case
from repro.core.mm3d import mm3d
from repro.costmodel.tables import ca_cqr2_lines, lane_cost, mm3d_lines, total
from repro.verify import verify_qr
from repro.vmpi.distmatrix import DistMatrix


@st.composite
def tunable_grid_problem(draw):
    """A random feasible (c, d, m, n, seed) for CA-CQR2 at laptop scale."""
    c = draw(st.sampled_from([1, 2]))
    d = c * draw(st.integers(1, 4))
    n = c * draw(st.sampled_from([2, 4, 8]))
    m = d * draw(st.integers(1, 6)) * max(1, (n + d - 1) // d) * 4
    m = max(m, n)
    m = ((m + d - 1) // d) * d
    seed = draw(st.integers(0, 2 ** 31 - 1))
    return c, d, m, n, seed


class TestCACQR2Properties:
    @given(tunable_grid_problem())
    @settings(max_examples=20, deadline=None)
    def test_valid_qr_on_any_feasible_grid(self, prob):
        c, d, m, n, seed = prob
        vm, g = make_tunable(c, d)
        a = np.random.default_rng(seed).standard_normal((m, n))
        res = ca_cqr2(vm, DistMatrix.from_global(g, a))
        verdict = verify_qr(a, res.q.to_global(), np.triu(res.r.to_global()))
        assert verdict.passed, str(verdict)
        assert_depth_replicated(res.q)

    @given(tunable_grid_problem())
    @settings(max_examples=20, deadline=None)
    def test_ledger_equals_closed_form_on_any_feasible_grid(self, prob):
        c, d, m, n, _ = prob
        vm, g = make_tunable(c, d)
        ca_cqr2(vm, DistMatrix.symbolic(g, m, n))
        pred = lane_cost(total(ca_cqr2_lines(m, n, c, d, default_base_case(n, c))))
        assert vm.report().max_cost == pred


class TestMM3DProperties:
    @given(st.sampled_from([1, 2, 3]), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_chain_associativity(self, p, mi, ki, ni, seed):
        # (A B) C == A (B C) through two different MM3D schedules.
        vm, g = make_cubic(p)
        rng = np.random.default_rng(seed)
        m, k, n = mi * p, ki * p, ni * p
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, k))
        c = rng.standard_normal((k, n))
        da, db, dc = (DistMatrix.from_global(g, x) for x in (a, b, c))
        left = mm3d(vm, mm3d(vm, da, db), dc)
        right = mm3d(vm, da, mm3d(vm, db, dc))
        np.testing.assert_allclose(left.to_global(), right.to_global(),
                                   atol=1e-9)
        np.testing.assert_allclose(left.to_global(), a @ b @ c, atol=1e-9)

    @given(st.sampled_from([1, 2, 4]), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_identity_neutral(self, p, ni):
        vm, g = make_cubic(p)
        n = ni * p
        rng = np.random.default_rng(ni)
        a = rng.standard_normal((n, n))
        da = DistMatrix.from_global(g, a)
        ident = DistMatrix.from_global(g, np.eye(n))
        np.testing.assert_allclose(mm3d(vm, da, ident).to_global(), a, atol=1e-12)
        np.testing.assert_allclose(mm3d(vm, ident, da).to_global(), a, atol=1e-12)

    @given(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_cost_independent_of_content(self, p, mi, ni):
        m, k, n = mi * p, p, ni * p
        vm, g = make_cubic(p)
        mm3d(vm, DistMatrix.symbolic(g, m, k), DistMatrix.symbolic(g, k, n))
        assert vm.report().max_cost == lane_cost(total(mm3d_lines(m, k, n, p)))


class TestCFR3DProperties:
    @given(st.sampled_from([1, 2]), st.sampled_from([1, 2, 4]),
           st.integers(0, 2 ** 31 - 1), st.floats(1.0, 1e6))
    @settings(max_examples=20, deadline=None)
    def test_matches_lapack_for_any_spd(self, p, blocks, seed, cond):
        n = 4 * p * blocks
        a = random_spd(n, condition=cond, rng=seed)
        vm, g = make_cubic(p)
        n0 = default_base_case(n, p)
        l, y = cfr3d(vm, DistMatrix.from_global(g, a), n0)
        l_g = l.to_global()
        np.testing.assert_allclose(l_g, np.linalg.cholesky(a),
                                   atol=1e-8 * max(1.0, cond ** 0.5))
        # Y really is the inverse of L.
        np.testing.assert_allclose(y.to_global() @ l_g, np.eye(n),
                                   atol=1e-7 * max(1.0, cond ** 0.5))
        assert_depth_replicated(l, l_g)
