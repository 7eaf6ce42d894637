"""1D-CholeskyQR2 (Algorithms 6-7): the existing parallelization.

The ``m x n`` matrix is partitioned by rows over a 1D grid of ``P``
processors.  Each processor:

1. forms the local Gram contribution ``X = Syrk(A_local)``  (``(m/P) n**2`` flops);
2. joins an ``Allreduce`` of the ``n x n`` Gram matrix  (``2 log P`` messages,
   ``2 n**2`` words);
3. computes ``CholInv`` redundantly  (``n**3`` flops);
4. forms its rows of ``Q = A_local @ R**-1``  (``2 (m/P) n**2`` flops).

This gives the Table I row ``1D-CQR``: ``O(log P)`` latency, ``O(n**2)``
bandwidth, ``O(m n**2 / P + n**3)`` flops -- minimal synchronization, but
the per-processor ``n**2`` memory / ``n**3`` compute terms do not scale,
which is exactly the gap CA-CQR2 closes for matrices that are not extremely
overdetermined.

The grid here is a degenerate ``1 x P x 1`` :class:`Grid3D`, so the same
:class:`DistMatrix` machinery (cyclic rows over ``y``) serves unchanged.
Every step charges all ``P`` ranks in one family-batched machine call and
computes once: on the shared symbolic block, or on the stacked ``(1, P,
1, m/P, n)`` array of a numeric matrix.  The redundant ``n x n`` results
(``R`` and the CholInv behind it) are one block every rank shares.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.costmodel import collectives as cc
from repro.kernels import flops as fl
from repro.kernels.blas import local_mm
from repro.kernels.cholesky import local_cholinv
from repro.utils.validation import require
from repro.vmpi.comm import ordered_sum
from repro.vmpi.datatypes import NumericBlock, SymbolicBlock
from repro.vmpi.distmatrix import DistMatrix, Replicated
from repro.vmpi.machine import VirtualMachine


def _validate_1d(a: DistMatrix) -> None:
    g = a.grid
    require(g.dim_x == 1 and g.dim_z == 1,
            f"1D-CQR expects a 1 x P x 1 grid, got dims {g.dims}")
    require(a.m >= a.n, f"1D-CQR needs a tall matrix, got {a.m}x{a.n}")


def _gram_stacked(data: np.ndarray) -> np.ndarray:
    """Lines 1-2's numerics: every rank's Syrk, allreduced in rank order.

    Each slice of the stacked ``A_local.T @ A_local`` reads one buffer
    twice, so numpy takes the same syrk path per slice as the per-block
    oracle ``local_syrk`` (``tests/oracles/blas.py``) does per block, and
    the symmetrization is elementwise: every partial has the per-block
    bits.
    The sum is the collectives' float64 zero plus each rank in order.
    """
    partials = np.matmul(data.swapaxes(-1, -2), data)
    partials = 0.5 * (partials + partials.swapaxes(-1, -2))
    return ordered_sum(partials, axis=1)[0, 0]


def cqr_1d(vm: VirtualMachine, a: DistMatrix,
           phase: str = "cqr1d") -> Tuple[DistMatrix, Replicated]:
    """One parallel CholeskyQR pass (Algorithm 6).

    Returns ``(Q, R)`` where ``Q`` is row-distributed like ``a`` and ``R``
    is an upper-triangular :class:`Replicated` owned by every processor.
    """
    _validate_1d(a)
    g = a.grid
    ranks = g.all_ranks_array
    rows, n = a.local_rows, a.n

    # Line 1: local symmetric rank-(m/P) update on every rank.
    vm.charge_flops_group(ranks, fl.syrk_flops(rows, n), f"{phase}.syrk")

    # Line 2: Allreduce the n x n Gram matrix over the whole grid.
    vm.charge_comm_group(ranks, cc.allreduce_cost(n * n, g.size),
                         f"{phase}.allreduce")

    # Line 3: redundant CholInv on every processor -- factored once (every
    # rank holds the bitwise identical Gram), charged to all.
    gram = (SymbolicBlock((n, n)) if a.data is None
            else NumericBlock(_gram_stacked(a.data)))
    l, y_inv, flops = local_cholinv(gram)
    vm.charge_flops_group(ranks, flops, f"{phase}.cholinv")
    r = Replicated.shared(ranks, l.transpose())      # R = L.T

    # Line 4: Q_local = A_local @ R**-1 = A_local @ Y.T.  R**-1 is
    # triangular, so the charge is the TRMM rate ((m/P) n**2) rather than a
    # dense GEMM's 2 (m/P) n**2.
    vm.charge_flops_group(ranks, fl.mm_flops(rows, n, n) * fl.TRMM_FRACTION,
                          f"{phase}.apply-rinv")
    if a.data is None:
        return DistMatrix.symbolic(g, a.m, n), r
    rinv = y_inv.transpose().data                    # Y.T, C-contiguous
    return DistMatrix.stacked(g, a.m, n, np.matmul(a.data, rinv)), r


def cqr2_1d(vm: VirtualMachine, a: DistMatrix,
            phase: str = "cqr2-1d") -> Tuple[DistMatrix, Replicated]:
    """1D-CholeskyQR2 (Algorithm 7): two passes plus the ``R = R2 R1`` merge.

    The merge is a redundant sequential triangular-triangular multiply on
    every processor; the paper charges it ``n**3 / 3`` flops (Table IV),
    which we reproduce by charging the dense GEMM rate on the triangle's
    nonzero structure.
    """
    q1, r1 = cqr_1d(vm, a, phase=f"{phase}.pass1")
    q, r2 = cqr_1d(vm, q1, phase=f"{phase}.pass2")

    # Merge once numerically, charge every rank (redundant computation).
    ranks = a.grid.all_ranks_array
    prod, _ = local_mm(r2.shared_block, r1.shared_block)
    vm.charge_flops_group(ranks, (a.n ** 3) / 3.0, f"{phase}.merge-r")
    return q, Replicated.shared(ranks, prod)
