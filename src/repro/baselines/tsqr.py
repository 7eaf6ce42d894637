"""TSQR: communication-optimal tall-skinny QR (Demmel et al., reference [5]).

TSQR factors an ``m x n`` matrix distributed by rows over ``P`` processors
with one local QR plus a reduction tree over ``n x n`` R factors.  It is
the established communication-avoiding alternative to CholeskyQR2 for the
1D regime: same ``O(log P)`` latency class, unconditionally stable, but
built from small QR factorizations (hard to make BLAS-3-fast) -- which is
the practicality argument for CQR2 in the paper's introduction and in
reference [1].

Two pieces:

* :func:`tsqr_1d` -- an executed implementation on the virtual-MPI
  substrate, using the allgather-R formulation (every rank gathers all
  ``P`` R-factors, redundantly factors the ``Pn x n`` stack, and corrects
  its local Q).  Numerically this is a flat-tree TSQR; it yields a fully
  stable explicit QR.
* :func:`tsqr_cost` -- the standard binary-tree cost model
  (``log2 P`` rounds exchanging ``n**2/2``-word triangles and factoring
  ``2n x n`` stacks), used when a TSQR curve is wanted in cost studies.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.costmodel import collectives as cc
from repro.costmodel.ledger import Cost
from repro.kernels import flops as fl
from repro.kernels.householder import signed_qr
from repro.utils.validation import check_positive_int, require
from repro.vmpi.datatypes import NumericBlock
from repro.vmpi.distmatrix import DistMatrix, Replicated
from repro.vmpi.machine import VirtualMachine


def tsqr_1d(vm: VirtualMachine, a: DistMatrix,
            phase: str = "tsqr") -> Tuple[DistMatrix, Replicated]:
    """TSQR of a row-distributed tall matrix on a ``1 x P x 1`` grid.

    Returns ``(Q, R)`` with ``Q`` distributed like ``a`` and ``R``
    replicated everywhere.  Numeric blocks only.  Every step charges all
    ``P`` ranks in one machine call and computes on the stacked
    ``(1, P, 1, m/P, n)`` blocks: one stacked QR, one stacked multiply.
    """
    g = a.grid
    require(g.dim_x == 1 and g.dim_z == 1,
            f"tsqr_1d expects a 1 x P x 1 grid, got dims {g.dims}")
    require(a.m >= a.n, f"TSQR needs a tall matrix, got {a.m}x{a.n}")
    require(a.is_numeric, "the executed TSQR baseline is numeric-only; "
                          "use tsqr_cost for cost studies")
    require(a.m // g.dim_y >= a.n,
            f"local row count {a.m}//{g.dim_y} must be at least n={a.n}")
    ranks = g.all_ranks_array
    procs, rows, n = g.dim_y, a.local_rows, a.n

    # Stage 1: local QR on every rank.
    local_q, rfactors = signed_qr(a.data[0, :, 0])
    vm.charge_flops_group(ranks, fl.householder_flops(rows, n),
                          f"{phase}.local-qr")

    # Stage 2: allgather the R factors; every rank factors the stack
    # redundantly (computed once here) and corrects its local Q.
    vm.charge_comm_groups(ranks[None], cc.allgather_cost(procs * n * n, procs),
                          f"{phase}.r-allgather")
    qs, r = signed_qr(rfactors.reshape(procs * n, n))
    vm.charge_flops_group(ranks, fl.householder_flops(procs * n, n),
                          f"{phase}.stack-qr")
    q = np.matmul(local_q, qs.reshape(procs, n, n))
    vm.charge_flops_group(ranks, fl.mm_flops(rows, n, n), f"{phase}.q-build")
    return (DistMatrix.stacked(g, a.m, n, q.reshape(a.data.shape)),
            Replicated.shared(ranks, NumericBlock(r)))


def tsqr_cost(m: int, n: int, procs: int) -> Cost:
    """Binary-tree TSQR per-processor cost (reference [5]'s model).

    One local QR of ``(m/P) x n``, then ``log2 P`` rounds each exchanging
    an upper-triangular ``n(n+1)/2``-word factor and factoring a ``2n x n``
    stack; forming the explicit local Q adds one ``(m/P) x n x n`` GEMM
    plus a ``2n x n`` apply per level.
    """
    check_positive_int(procs, "procs")
    require(m % procs == 0, f"m={m} must be divisible by P={procs}")
    require(m // procs >= n, f"TSQR needs m/P >= n, got {m}/{procs} < {n}")
    levels = math.ceil(math.log2(procs)) if procs > 1 else 0
    cost = Cost()
    cost.add(flops=fl.householder_flops(m // procs, n))
    tri_words = n * (n + 1) / 2.0
    for _ in range(levels):
        cost.add(messages=1.0, words=tri_words)
        cost.add(flops=fl.householder_flops(2 * n, n))
        # Applying the level's implicit Q while reconstructing explicit Q.
        cost.add(flops=fl.mm_flops(2 * n, n, n))
    cost.add(flops=fl.mm_flops(m // procs, n, n))
    return cost
