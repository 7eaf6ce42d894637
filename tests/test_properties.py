"""Property-based tests (hypothesis) for core invariants.

Three families:

* collective cost formulas (monotonicity, degenerate-group freeness),
* distributed-matrix structure (round-trips for arbitrary shapes/grids),
* end-to-end QR invariants (CQR2 orthogonality/residual on arbitrary
  well-conditioned inputs; cost-model consistency on arbitrary grids).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cqr import cqr2_sequential
from repro.costmodel import collectives as cc
from repro.costmodel.tables import ca_cqr2_lines, lane_cost, mm3d_lines, total
from repro.core.cfr3d import default_base_case
from repro.utils.matgen import matrix_with_condition


class TestCollectiveCostProperties:
    @given(st.integers(0, 10 ** 6), st.integers(1, 2 ** 16))
    def test_nonnegative_and_free_singleton(self, words, procs):
        for fn in (cc.bcast_cost, cc.reduce_cost, cc.allreduce_cost,
                   cc.allgather_cost, cc.transpose_cost):
            c = fn(words, procs)
            assert c.messages >= 0 and c.words >= 0
            if procs == 1:
                assert c.messages == 0 and c.words == 0

    @given(st.integers(1, 10 ** 6), st.integers(2, 2 ** 10))
    def test_words_linear_in_volume(self, words, procs):
        c1 = cc.bcast_cost(words, procs)
        c2 = cc.bcast_cost(2 * words, procs)
        assert c2.words == pytest.approx(2 * c1.words)
        assert c2.messages == c1.messages

    @given(st.integers(1, 10 ** 4), st.integers(1, 12))
    def test_latency_monotone_in_group(self, words, logp):
        small = cc.allreduce_cost(words, 2 ** logp)
        large = cc.allreduce_cost(words, 2 ** (logp + 1))
        assert large.messages >= small.messages


@st.composite
def grid_and_matrix(draw):
    """A feasible (c, d, m, n) tuple for CA-CQR2."""
    c = draw(st.sampled_from([1, 2]))
    groups = draw(st.integers(1, 3))
    d = c * groups
    n_factor = draw(st.integers(1, 4))
    n = c * (2 ** n_factor)
    rows_per = draw(st.integers(1, 4)) * n
    m = max(d, rows_per) * d
    # Ensure m divisible by d and m >= n.
    m = ((m + d - 1) // d) * d
    if m < n:
        m = n * d
    return c, d, m, n


class TestCostModelProperties:
    @given(grid_and_matrix())
    @settings(max_examples=40, deadline=None)
    def test_ca_cqr2_cost_positive_and_monotone_in_m(self, gm):
        c, d, m, n = gm
        n0 = default_base_case(n, c)
        cost = lane_cost(total(ca_cqr2_lines(m, n, c, d, n0)))
        assert cost.flops > 0
        bigger = lane_cost(total(ca_cqr2_lines(2 * m, n, c, d, n0)))
        assert bigger.flops > cost.flops
        assert bigger.words >= cost.words

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_mm3d_cost_symmetry(self, p, mi, ki, ni):
        # C = A B and the "transposed" problem have equal cost by symmetry
        # of the schedule in m and n.
        m, k, n = mi * p, ki * p, ni * p
        a = lane_cost(total(mm3d_lines(m, k, n, p)))
        b = lane_cost(total(mm3d_lines(n, k, m, p)))
        assert a.words == pytest.approx(b.words)
        assert a.flops == pytest.approx(b.flops)


class TestQRInvariants:
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from([4, 8, 16]),
           st.floats(1.0, 1e5))
    @settings(max_examples=25, deadline=None)
    def test_cqr2_orthogonality_and_residual(self, seed, n, cond):
        a = matrix_with_condition(8 * n, n, cond, rng=seed)
        q, r = cqr2_sequential(a)
        assert np.linalg.norm(q.T @ q - np.eye(n), 2) < 1e-12
        assert np.linalg.norm(a - q @ r, "fro") / np.linalg.norm(a, "fro") < 1e-11
        assert np.allclose(r, np.triu(r))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_distributed_equals_sequential(self, seed):
        # The virtual-MPI CA-CQR2 and the sequential CQR2 compute the same
        # factors for any input (lock-step determinism).
        from repro import Session

        rng = np.random.default_rng(seed)
        a = rng.standard_normal((32, 8))
        run = Session().factor(a, algorithm="ca_cqr2", c=2, d=4)
        q_seq, r_seq = cqr2_sequential(a)
        np.testing.assert_allclose(run.q, q_seq, atol=1e-9)
        np.testing.assert_allclose(run.r, r_seq, atol=1e-9)


class TestDistMatrixProperties:
    @given(st.sampled_from([1, 2, 3]), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_arbitrary_grid(self, p, mi, ni, seed):
        from repro.vmpi.distmatrix import DistMatrix
        from repro.vmpi.grid import Grid3D
        from repro.vmpi.machine import VirtualMachine
        from tests.conftest import assert_depth_replicated

        vm = VirtualMachine(p ** 3)
        g = Grid3D.cubic(vm, p)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((mi * p, ni * p))
        d = DistMatrix.from_global(g, a)
        np.testing.assert_array_equal(d.to_global(), a)
        assert_depth_replicated(d, a)
