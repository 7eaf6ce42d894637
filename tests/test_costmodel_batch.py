"""The baseline screens must be *bit-identical* to their scalar cost functions.

The planner's screen ranks hundreds of candidates with
:mod:`repro.costmodel.batch`; these tests assert exact (not approximate)
equality of the TSQR, PGEQRF and CAQR screens against the baselines'
scalar cost functions, lane by lane -- the batch implementations
replicate the scalar accumulation order, so IEEE-754 determinism makes
the match exact.  The CholeskyQR family has one closed form, the line
tables, tested against execution in ``test_costmodel_tables.py``; here
its screens, over the planner's whole candidate sets, must equal each
candidate's batch of one lane for lane.
"""

import numpy as np
import pytest

from repro.baselines.caqr import caqr_cost
from repro.baselines.scalapack_qr import pgeqrf_cost
from repro.baselines.tsqr import tsqr_cost
from repro.core.cfr3d import cfr3d
from repro.core.tuning import feasible_grids, inverse_depth_to_base_case
from repro.costmodel import batch, tables
from repro.vmpi.distmatrix import DistMatrix
from tests.conftest import make_cubic

PROBLEMS = [(2 ** 16, 2 ** 8, 512), (2 ** 18, 2 ** 9, 4096),
            (4096, 64, 64), (2 ** 14, 2 ** 4, 256)]


def ca_candidates(m, n, procs):
    cands = set()
    for g in feasible_grids(m, n, procs):
        for depth in (0, 1, 2, 3):
            cands.add((g.c, g.d, inverse_depth_to_base_case(n, g.c, depth)))
    return sorted(cands)


def grid_2d_candidates(m, n, procs):
    out = []
    pr = 1
    while pr <= procs:
        pc = procs // pr
        if pr * pc == procs and pr <= m and pc <= n:
            for b in (8, 16, 32, 64, 128, 256):
                if b <= n:
                    out.append((pr, pc, b))
        pr *= 2
    return out


class TestCACQR2Batch:
    @pytest.mark.parametrize("m,n,procs", PROBLEMS)
    def test_bit_identical_to_scalar(self, m, n, procs):
        cands = ca_candidates(m, n, procs)
        c = np.array([x[0] for x in cands])
        d = np.array([x[1] for x in cands])
        n0 = np.array([x[2] for x in cands])
        got = tables.total(tables.ca_cqr2_lines(m, n, c, d, n0))
        for i, (ci, di, ni) in enumerate(cands):
            want = tables.total(tables.ca_cqr2_lines(m, n, ci, di, ni))
            assert got[:, i].tolist() == want[:, 0].tolist(), (ci, di, ni)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match=r"c \| d"):
            tables.ca_cqr2_lines(64, 8, np.array([2, 2]), np.array([4, 3]),
                                 np.array([4, 4]))

    def test_scalar_inputs_broadcast(self):
        # Scalar m, n, c and n0 broadcast against a vector of depths.
        d = np.array([4, 8, 16])
        got = tables.total(tables.ca_cqr2_lines(4096, 64, 2, d, 16))
        assert got.shape == (3, 3)
        for i, di in enumerate(d.tolist()):
            want = tables.total(tables.ca_cqr2_lines(4096, 64, 2, di, 16))
            assert got[:, i].tolist() == want[:, 0].tolist()


class TestBaselineBatches:
    @pytest.mark.parametrize("m,n,procs", PROBLEMS)
    def test_pgeqrf_and_caqr(self, m, n, procs):
        cands = grid_2d_candidates(m, n, procs)
        if not cands:
            pytest.skip("no 2D grids at this point")
        pr = np.array([x[0] for x in cands])
        pc = np.array([x[1] for x in cands])
        b = np.array([x[2] for x in cands])
        got_p = batch.pgeqrf_cost_batch(m, n, pr, pc, b, kernel_efficiency=0.47)
        got_c = batch.caqr_cost_batch(m, n, pr, pc, b)
        for i, (pri, pci, bi) in enumerate(cands):
            want_p = pgeqrf_cost(m, n, pri, pci, bi, kernel_efficiency=0.47)
            want_c = caqr_cost(m, n, pri, pci, bi)
            assert got_p[:, i].tolist() == list(want_p.as_tuple())
            assert got_c[:, i].tolist() == list(want_c.as_tuple())

    @pytest.mark.parametrize("m,n,procs", PROBLEMS)
    def test_cqr2_1d(self, m, n, procs):
        # Every power-of-two processor count up to procs, in one screen.
        lanes = 2 ** np.arange(int(np.log2(procs)) + 1)
        lanes = lanes[m % lanes == 0]
        got = tables.total(tables.cqr2_1d_lines(m, n, lanes))
        for i, p in enumerate(lanes.tolist()):
            want = tables.total(tables.cqr2_1d_lines(m, n, p))
            assert got[:, i].tolist() == want[:, 0].tolist(), p

    @pytest.mark.parametrize("m,n,procs", PROBLEMS)
    def test_tsqr(self, m, n, procs):
        if m % procs or m // procs < n:
            pytest.skip("TSQR infeasible")
        got = batch.tsqr_cost_batch(m, n, procs)
        want = tsqr_cost(m, n, procs)
        assert got[:, 0].tolist() == list(want.as_tuple())

    def test_tsqr_mixed_proc_counts(self):
        procs = np.array([4, 16, 64])      # differing level counts per lane
        got = batch.tsqr_cost_batch(2 ** 14, 16, procs)
        for i, p in enumerate(procs):
            assert got[:, i].tolist() == list(
                tsqr_cost(2 ** 14, 16, int(p)).as_tuple())


class TestHelpers:
    def test_log2ceil_matches_scalar(self):
        import math

        ps = np.array([1, 2, 3, 4, 7, 8, 12, 1024, 4095])
        got = batch.log2ceil(ps)
        for p, g in zip(ps.tolist(), got.tolist()):
            want = math.ceil(math.log2(p)) if p > 1 else 0.0
            assert g == want

    def test_cfr3d_depth_varies_per_lane(self):
        n = 256
        p = np.array([2, 2, 2])
        n0 = np.array([256, 64, 16])       # 0, 2, and 4 recursion levels
        got = tables.total(tables.cfr3d_lines(n, p, n0))
        for i in range(3):
            vm, g = make_cubic(2)
            cfr3d(vm, DistMatrix.symbolic(g, n, n), int(n0[i]))
            want = vm.report().max_cost
            assert got[:, i].tolist() == list(want.as_tuple())

    def test_int_lanes_broadcasts_scalars(self):
        m, procs = batch.int_lanes(m=64, procs=np.array([2, 4, 8]))
        assert m.tolist() == [64, 64, 64] and procs.tolist() == [2, 4, 8]
        assert m.dtype == np.int64

    def test_int_lanes_rejects_non_integral(self):
        with pytest.raises(ValueError, match="procs must be integral"):
            batch.tsqr_cost_batch(4096, 16, 4.5)

    def test_int_lanes_rejects_non_positive(self):
        with pytest.raises(ValueError, match="block_size must be >= 1"):
            batch.caqr_cost_batch(4096, 16, 4, 4, 0)

    def test_int_lanes_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            batch.int_lanes(m=np.ones((2, 2), dtype=np.int64))
