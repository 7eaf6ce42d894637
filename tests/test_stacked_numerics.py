"""Bit-identity guard: stacked numerics equal per-block ``NumericBlock`` loops.

A numeric :class:`DistMatrix` is one stacked array, and CA-CQR2's steps
are whole-array operations on it: MM3D's broadcasts are stride-0 views
and its local products one stacked ``np.matmul``, the Gram dance's local
products one stacked ``W.T @ A``, every reduction a sequential float64
sum along a grid axis.  This file re-derives each step rank by rank with
``NumericBlock`` operations -- broadcast copies, one 2D ``@`` per rank,
collectives summing a float64 zero plus each member in rank order -- and
requires bytewise equal results at the ``factor`` workload's block shapes
for ``c`` in {1, 2, 4}, 1D-CQR's Gram and form-Q against its per-rank
``local_syrk`` / ``local_mm``, TSQR's stacked QRs against one 2D QR per
rank, and sCQR3's ``||A||_F**2`` against a per-rank ``np.sum`` summed in
rank order.  It also pins the property all of that rests on:
a stacked ``np.matmul`` computes every slice exactly like a 2D ``@``,
including stride-0 and swapped-axes operands.  If a numpy or BLAS build
ever breaks that, these tests fail instead of ``Q`` and ``R`` silently
changing.  CI reruns this file with two BLAS threads.
"""

import numpy as np
import pytest

from repro.core.cacqr import _apply_gram_shift, _cross_product_replicated
from repro.core.cfr3d import cfr3d, default_base_case
from repro.baselines.tsqr import tsqr_1d
from repro.core.cqr_1d import _gram_stacked, cqr_1d
from repro.core.mm3d import mm3d, mm3d_stacked
from repro.core.shifted import _frobenius_sq
from repro.kernels.blas import local_mm, local_mm_tn
from repro.kernels.cholesky import local_cholinv
from repro.vmpi.comm import ordered_sum
from repro.vmpi.datatypes import NumericBlock, join_blocks
from repro.vmpi.distmatrix import DistMatrix, dist_transpose
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine
from tests.oracles.blas import local_syrk

#: (c, d, m, n): grids and shapes of the ``factor`` workload.
FACTOR_CASES = [(1, 4, 4096, 32), (1, 64, 8192, 256), (2, 8, 4096, 64),
                (2, 16, 8192, 128), (4, 8, 4096, 128)]


def assert_bytes_equal(got, want, what=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


# -- per-block references over {(x, y, z): NumericBlock} ----------------------


def blocks_of(dm):
    return {idx: NumericBlock(dm.data[idx].copy())
            for idx in np.ndindex(*dm.grid.dims)}


def assert_matches(dm, ref):
    assert len(ref) == dm.grid.size
    for idx, blk in ref.items():
        assert_bytes_equal(dm.data[idx], blk.data)


def collective_sum(parts):
    """A reduction as the collectives compute it: zero plus each part in order."""
    acc = np.zeros(parts[0].shape)
    for part in parts:
        acc = acc + part.data
    return NumericBlock(acc)


def ref_mm3d(a, b, p, dy):
    """Algorithm 1 rank by rank (``b`` is read at its subcube-local ``y``)."""
    out = {}
    for x, y in np.ndindex(p, dy):
        prods = [a[(z, y, z)].copy().matmul(b[(x, z, z)].copy()) for z in range(p)]
        total = collective_sum(prods)
        for z in range(p):
            out[(x, y, z)] = total.copy()
    return out


def ref_transpose(a):
    return {(x, y, z): a[(y, x, z)].transpose() for (x, y, z) in a}


def ref_base_case(a, p, n):
    l, y = {}, {}
    for z in range(p):
        full = np.empty((n, n))
        for x, yy in np.ndindex(p, p):
            full[yy::p, x::p] = a[(x, yy, z)].data
        l_full, y_full, _ = local_cholinv(NumericBlock(full))
        for x, yy in np.ndindex(p, p):
            l[(x, yy, z)] = NumericBlock(np.ascontiguousarray(l_full.data[yy::p, x::p]))
            y[(x, yy, z)] = NumericBlock(np.ascontiguousarray(y_full.data[yy::p, x::p]))
    return l, y


def ref_cfr3d(a, p, n, n0):
    """Algorithm 3 rank by rank."""
    if n <= n0:
        return ref_base_case(a, p, n)

    def quad(blocks, i, j):
        return {k: b.quadrant(i, j) for k, b in blocks.items()}

    a11, a21, a22 = quad(a, 0, 0), quad(a, 1, 0), quad(a, 1, 1)
    l11, y11 = ref_cfr3d(a11, p, n // 2, n0)
    l21 = ref_mm3d(a21, ref_transpose(y11), p, p)
    u = ref_mm3d(l21, ref_transpose(l21), p, p)
    l22, y22 = ref_cfr3d({k: a22[k].sub(u[k]) for k in a22}, p, n // 2, n0)
    y21 = ref_mm3d({k: b.neg() for k, b in y22.items()},
                   ref_mm3d(l21, y11, p, p), p, p)
    zero = {k: NumericBlock(np.zeros(b.shape)) for k, b in a11.items()}

    def join(q11, q21, q22):
        return {k: join_blocks(q11[k], zero[k], q21[k], q22[k]) for k in q11}

    return join(l11, l21, l22), join(y11, y21, y22)


def ref_gram(a, c, d):
    """Algorithm 8 lines 1-5 rank by rank: subcube 0's blocks."""
    partial = {(x, y, z): local_mm_tn(a[(z, y, z)].copy(), a[(x, y, z)])[0]
               for x, y, z in np.ndindex(c, d, c)}
    group = {(x, g, z): collective_sum([partial[(x, g * c + yl, z)]
                                        for yl in range(c)])
             for x, g, z in np.ndindex(c, d // c, c)}
    roots = {(x, z): collective_sum([group[(x, j, z)] for j in range(d // c)])
             for x, z in np.ndindex(c, c)}
    return {(x, yl, z): roots[(x, yl)].copy() for x, yl, z in np.ndindex(c, c, c)}


def ref_shift(gram, nb, shift):
    out = {}
    for (x, yl, z), blk in gram.items():
        out[(x, yl, z)] = blk.copy()
        if x == yl:
            out[(x, yl, z)].data[np.diag_indices(nb)] += shift
    return out


# -- the guard ------------------------------------------------------------------


@pytest.fixture(scope="module", params=FACTOR_CASES,
                ids=lambda case: "c{}-d{}-{}x{}".format(*case))
def factor_case(request):
    """A conditioned input on its grid, and its stacked Gram matrix."""
    c, d, m, n = request.param
    rng = np.random.default_rng(m + n + c + d)
    a = rng.standard_normal((m, n)) * np.geomspace(1.0, 1e-3, n)
    vm = VirtualMachine(c * c * d)
    g = Grid3D.tunable(vm, c, d)
    dist = DistMatrix.from_global(g, a)
    gram = _cross_product_replicated(vm, dist, dist, "gram", symmetric=True)
    return request.param, vm, dist, gram


class TestStackedStepsMatchPerBlockLoops:
    def test_gram_dance(self, factor_case):
        (c, d, _, _), _, dist, gram = factor_case
        ref = ref_gram(blocks_of(dist), c, d)
        assert_matches(gram[0], ref)
        assert_matches(gram[len(gram) - 1], ref)

    def test_gram_shift(self, factor_case):
        (c, _, _, n), vm, dist, gram = factor_case
        shifted = _apply_gram_shift(vm, dist.grid, gram, n, 0.375, "shift")
        assert_matches(shifted[0], ref_shift(blocks_of(gram[0]), n // c, 0.375))
        assert_matches(gram[0], blocks_of(gram[0]))   # the input is untouched

    def test_cfr3d_transpose_and_mm3d(self, factor_case):
        (c, _, _, n), _, dist, gram = factor_case
        z = gram[0]
        n0 = default_base_case(n, c)
        l, y = cfr3d(None, z, n0)
        ref_l, ref_y = ref_cfr3d(blocks_of(z), c, n, n0)
        assert_matches(l, ref_l)
        assert_matches(y, ref_y)

        rinv = dist_transpose(None, y, "t")
        assert_matches(rinv, ref_transpose(ref_y))
        # The R2 R1-style merge on the cubic grid.
        assert_matches(mm3d(None, rinv, l), ref_mm3d(ref_transpose(ref_y),
                                                     ref_l, c, c))
        # Form-Q: every subcube's rows times the one R**-1 at once.
        q = mm3d_stacked(dist.data, rinv.data)
        assert_matches(DistMatrix.stacked(dist.grid, dist.m, dist.n, q),
                       ref_mm3d(blocks_of(dist), ref_transpose(ref_y), c,
                                dist.grid.dim_y))


#: (P, m, n): 1D-CQR grids, including block shapes where syrk and gemm
#: round differently (512 x 32, 1024 x 16).
ONE_D_CASES = [(4, 2048, 32), (8, 8192, 16), (64, 1024, 32), (64, 8192, 256)]


class TestOneDimensionalStepsMatchPerBlockLoops:
    """1D-CQR's stacked Gram and form-Q against its per-rank kernels."""

    @pytest.mark.parametrize("procs,m,n", ONE_D_CASES)
    def test_gram_and_form_q(self, procs, m, n):
        rng = np.random.default_rng(procs + m + n)
        a = rng.standard_normal((m, n)) * np.geomspace(1.0, 1e-3, n)
        vm = VirtualMachine(procs)
        dist = DistMatrix.from_global(Grid3D.build(vm, 1, procs, 1), a)
        blocks = [NumericBlock(dist.data[0, y, 0]) for y in range(procs)]
        # Each per-block Syrk reads one buffer twice (numpy's syrk path,
        # not gemm's): the stacked product must take it slice by slice.
        want = collective_sum([local_syrk(b)[0] for b in blocks])
        assert_bytes_equal(_gram_stacked(dist.data), want.data)

        q, _ = cqr_1d(vm, dist)
        _, y_inv, _ = local_cholinv(want)
        for y, block in enumerate(blocks):
            assert_bytes_equal(q.data[0, y, 0],
                               local_mm(block, y_inv.transpose())[0].data)


def ref_qr(block):
    """One rank's Householder QR with non-negative R diagonal, in 2D."""
    q, r = np.linalg.qr(block)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[np.newaxis, :], np.triu(r * signs[:, np.newaxis])


class TestBaselineStepsMatchPerBlockLoops:
    """TSQR and sCQR3's norm step against their rank-by-rank derivations."""

    @pytest.mark.parametrize("procs,m,n", [(1, 64, 8), (4, 256, 16),
                                           (16, 1024, 16), (8, 4096, 64)])
    def test_tsqr_stack_qr(self, procs, m, n):
        rng = np.random.default_rng(procs + m + n)
        a = rng.standard_normal((m, n)) * np.geomspace(1.0, 1e-3, n)
        vm = VirtualMachine(procs)
        dist = DistMatrix.from_global(Grid3D.build(vm, 1, procs, 1), a)
        q, r = tsqr_1d(vm, dist)
        # Every rank's local QR, the allgathered R stack's QR, and each
        # rank's correction of its local Q -- one 2D call per rank.
        local = [ref_qr(dist.data[0, y, 0]) for y in range(procs)]
        qs, r_stack = ref_qr(np.vstack([rb for _, rb in local]))
        assert_bytes_equal(r.to_global(), r_stack)
        for y, (qb, _) in enumerate(local):
            assert_bytes_equal(q.data[0, y, 0], qb @ qs[y * n:(y + 1) * n])

    @pytest.mark.parametrize("c,d,m,n", [(1, 64, 4096, 16), (2, 8, 1024, 32),
                                         (4, 16, 4096, 64)])
    def test_scqr3_norm(self, c, d, m, n):
        # Rank y's rows scaled by 10**(-y/2): partials spanning many
        # magnitudes make the Allreduce's summation order visible.
        rng = np.random.default_rng(c + d + m + n)
        scale = 10.0 ** (-(np.arange(m) % d) / 2.0)
        a = rng.standard_normal((m, n)) * scale[:, None]
        dist = DistMatrix.from_global(Grid3D.tunable(VirtualMachine(c * c * d), c, d), a)
        total = 0.0                 # slice z=0's Allreduce, in y-major rank order
        for y in range(d):
            for x in range(c):
                total += float(np.sum(dist.data[x, y, 0] ** 2))
        assert_bytes_equal(_frobenius_sq(dist.data), total)


#: (batch, rows, inner, cols) of stacked products the steps issue.
MATMUL_SHAPES = [(4, 1024, 32, 32), (64, 128, 256, 256), (16, 512, 32, 32),
                 (32, 512, 64, 64), (128, 128, 32, 32), (64, 8, 8, 8),
                 (8, 1, 3, 5), (8, 7, 1, 4)]


class TestStackedMatmulMatches2D:
    @pytest.mark.parametrize("batch,m,k,n", MATMUL_SHAPES)
    def test_plain_stride0_and_swapped_operands(self, batch, m, k, n):
        rng = np.random.default_rng(batch * m + k * n)
        x, x_root = rng.standard_normal((batch, m, k)), rng.standard_normal((m, k))
        y, y_root = rng.standard_normal((batch, k, n)), rng.standard_normal((k, n))
        w, w_root = rng.standard_normal((batch, m, k)), rng.standard_normal((m, k))
        wide = rng.standard_normal((batch, m, 2 * n + 1))
        x_bcast = np.broadcast_to(x_root, x.shape)          # stride 0 over batch
        w_bcast_t = np.broadcast_to(w_root, x.shape).swapaxes(-1, -2)
        cases = {
            "plain": (np.matmul(x, y), lambda i: x[i].copy() @ y[i].copy()),
            "stride-0 left": (np.matmul(x_bcast, y),
                              lambda i: x_root.copy() @ y[i].copy()),
            "stride-0 right": (np.matmul(x, np.broadcast_to(y_root, y.shape)),
                               lambda i: x[i].copy() @ y_root.copy()),
            # the Gram dance's W.T @ A, with W broadcast from a root
            "swapped": (np.matmul(w.swapaxes(-1, -2), x),
                        lambda i: w[i].copy().T @ x[i].copy()),
            "swapped stride-0": (np.matmul(w_bcast_t, x),
                                 lambda i: w_root.copy().T @ x[i].copy()),
            # a column panel: non-contiguous rows on the right
            "column slice": (np.matmul(w.swapaxes(-1, -2), wide[..., 1:n + 1]),
                             lambda i: w[i].copy().T @ wide[i][:, 1:n + 1].copy()),
        }
        for name, (stacked, per_slice) in cases.items():
            for i in range(batch):
                assert_bytes_equal(stacked[i], per_slice(i), f"{name} [{i}]")

    def test_self_product_slices_never_take_syrk(self):
        # numpy computes W.T @ A with syrk, not gemm, when W and A are the
        # same buffer, and the two round differently.  The Gram dance's
        # fancy-indexed roots are copies, so no slice -- not even a
        # diagonal rank's, where W's block is A's own -- takes that path.
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 4, 2, 256, 16))
        zs = np.arange(2)
        roots = a[zs, :, zs]
        assert not np.shares_memory(roots, a)
        stacked = np.matmul(roots.transpose(1, 0, 2, 3)[None].swapaxes(-1, -2), a)
        for x, y, z in np.ndindex(2, 4, 2):
            assert_bytes_equal(stacked[x, y, z], a[z, y, z].copy().T @ a[x, y, z])


class TestOrderedSum:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_the_collectives_reduction_bitwise(self, axis):
        rng = np.random.default_rng(axis)
        # Mixed magnitudes make the sum order-sensitive.
        stack = rng.standard_normal((5, 4, 3)) * np.array([1e16, 1.0, -1e16])
        moved = np.moveaxis(stack, axis, 0)
        parts = [NumericBlock(p.reshape(-1, 1)) for p in moved]
        want = collective_sum(parts).data.reshape(moved.shape[1:])
        assert_bytes_equal(ordered_sum(stack.copy(), axis), want)

    def test_negative_zeros_sum_to_positive_zero(self):
        # The collectives start from a float64 zero: 0 + (-0) + (-0) = +0.
        total = ordered_sum(np.full((3, 2), -0.0), axis=0)
        assert_bytes_equal(total, collective_sum(
            [NumericBlock(np.full((1, 2), -0.0))] * 3).data.reshape(2))
        assert not np.signbit(total).any()
