"""MM3D: 3D SUMMA-style matrix multiplication (Algorithm 1).

Computes ``C = A B`` on a cubic ``p x p x p`` grid where ``A`` (``m x k``)
and ``B`` (``k x n``) are cyclically distributed over every 2D slice
``Pi[:, :, z]``.  The paper's customizations relative to textbook 3D SUMMA:

* both operands start replicated on every slice (not split along the third
  dimension), and
* the product is **Allreduced along the depth fibers** so every slice ends
  up holding a full distributed copy of ``C`` -- the replication invariant
  the CholeskyQR2 algorithms depend on.

Per-slice schedule (slice ``z`` handles the inner-dimension residue class
``z mod p``):

1. ``Bcast`` ``A``'s local block from ``Pi[z, y, z]`` along each row
   communicator ``Pi[:, y, z]``  -> panel ``X`` (``A``'s columns of residue z);
2. ``Bcast`` ``B``'s local block from ``Pi[x, z, z]`` along each column
   communicator ``Pi[x, :, z]``  -> panel ``Y`` (``B``'s rows of residue z);
3. local multiply ``Z = X @ Y``;
4. ``Allreduce`` ``Z`` along each depth fiber ``Pi[x, y, :]`` -> ``C``.

Costs per processor (as in Table I):
``O(log P)`` latency, ``O((mk + kn + mn)/P**(2/3))`` bandwidth,
``2 m n k / P`` flops.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.costmodel import collectives as cc
from repro.kernels.blas import local_mm
from repro.utils.validation import require
from repro.vmpi.datatypes import SymbolicBlock
from repro.vmpi.distmatrix import DistMatrix, over_depth
from repro.vmpi.machine import VirtualMachine

#: Words of float64 output (256 KiB) the stacked kernels compute per
#: chunk of whole rank blocks: MM3D's residue products and the Gram
#: dance's partials stay in cache between their product and their sum,
#: and no step holds a full-size temporary per residue.
CHUNK_WORDS = 1 << 15


def mm3d(vm: Optional[VirtualMachine], a: DistMatrix, b: DistMatrix,
         phase: str = "mm3d", flop_fraction: float = 1.0) -> DistMatrix:
    """Multiply two slice-replicated cyclic matrices on a cubic grid.

    Parameters
    ----------
    vm:
        The virtual machine charged for communication and flops, or
        ``None`` to compute without charging (the numerics of a stage
        whose charges a compiled program replays).
    a, b:
        Operands on the same cubic grid; ``a`` is ``m x k`` and ``b`` is
        ``k x n``.  Rectangular *matrices* are fine (CA-CQR multiplies an
        ``m_sub x n`` panel by an ``n x n`` inverse); the *grid* must be
        cubic.
    phase:
        Ledger phase prefix; sub-steps are attributed as ``<phase>.bcast-a``,
        ``<phase>.bcast-b``, ``<phase>.local-mm`` and ``<phase>.allreduce``.
    flop_fraction:
        Fraction of the dense ``2mnk`` flop count to charge.  Structured
        operands waste a predictable share of a dense GEMM: multiplying by
        a triangular factor (``Q = A R**-1`` as a TRMM) costs half, a
        triangular-times-triangular merge (``R2 R1``) costs one sixth.  The
        paper's critical-path count ``4 m n**2 + (5/3) n**3`` assumes these
        structure-aware kernels, so the charge follows suit; numeric
        execution still computes the plain product.

    Returns
    -------
    DistMatrix
        ``C = A @ B``, cyclically distributed and replicated on every slice,
        exactly like the inputs.

    The cyclic layout is uniform, so every communicator family of a step
    (all row broadcasts, all column broadcasts, all depth Allreduces) is a
    set of pairwise-disjoint equal-cost groups, and every rank's local
    multiply has identical shape.  Each family is charged through one
    vectorized machine call -- disjoint groups commute, so clocks and
    ledgers are bit-identical to charging group by group -- and the
    numerics are :func:`mm3d_stacked` on the operands' stacked blocks.
    """
    require(0.0 < flop_fraction <= 1.0,
            f"flop_fraction must be in (0, 1], got {flop_fraction}")
    grid = a.grid
    require(grid.matches(b.grid), "MM3D operands must live on the same grid")
    require(grid.is_cubic, f"MM3D requires a cubic grid, got dims {grid.dims}")
    require(a.n == b.m, f"MM3D inner dimensions disagree: {a.m}x{a.n} @ {b.m}x{b.n}")
    x_shape = (a.local_rows, a.local_cols)
    y_shape = (b.local_rows, b.local_cols)
    prod, flops = local_mm(SymbolicBlock(x_shape), SymbolicBlock(y_shape))

    if vm is not None:
        # Steps 1-2: per-slice broadcasts of the residue-z panels; one
        # machine call per operand covering every (row|column) x slice
        # group -- the x and y lines of the grid's [z, y, x] view.
        zyx = grid.dims[::-1]
        grid.charge_lines(vm, zyx, 2,
                          cc.bcast_cost(x_shape[0] * x_shape[1], grid.dim_x),
                          f"{phase}.bcast-a")
        grid.charge_lines(vm, zyx, 1,
                          cc.bcast_cost(y_shape[0] * y_shape[1], grid.dim_y),
                          f"{phase}.bcast-b")
        # Step 3: the local multiply is identical on every rank.
        vm.charge_flops_group(grid.all_ranks_array, flops * flop_fraction,
                              f"{phase}.local-mm")
        # Step 4: depth-fiber Allreduce sums the residue classes.
        grid.charge_lines(vm, zyx, 0,
                          cc.allreduce_cost(prod.words, grid.dim_z),
                          f"{phase}.allreduce")

    if a.data is None:
        return DistMatrix.shared(grid, a.m, b.n, prod)
    return DistMatrix.stacked(grid, a.m, b.n, mm3d_stacked(a.data, b.data))  # type: ignore[arg-type]


def mm3d_stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MM3D's numerics on stacked blocks (see :mod:`repro.vmpi.distmatrix`).

    ``a`` is ``(p, dy, p, ., .)`` and ``b`` is ``(p, >= p, p, ., .)``;
    ``dy`` may be any multiple of ``p``, which multiplies every cubic
    subcube of a ``p x dy x p`` grid by the same ``b`` at once.  Slice
    ``z``'s broadcasts are views of the root blocks (``X[x, y, z] =
    A[z, y, z]``, ``Y[x, y, z] = B[x, z, z]``) and its local products
    stacked ``np.matmul`` calls, one per chunk of ``y`` rows of rank
    blocks (:func:`chunks`).  The depth Allreduce accumulates the ``p``
    residue products into one ``(p, dy, ., .)`` plane in fiber order --
    residue 0's product written into the plane plus a float64 zero, then
    each later residue, computed into one reused chunk buffer, added in
    turn, exactly as :func:`~repro.vmpi.comm.ordered_sum` adds a fiber --
    and every slice of the returned stack views that plane
    (:func:`over_depth`).
    """
    p, dy, rows = a.shape[0], a.shape[1], a.shape[-2]
    cols = b.shape[-1]
    total = np.empty((p, dy, 1, rows, cols))
    plane = total[:, :, 0]
    parts = chunks(dy, p * rows * cols)
    buf = np.empty((p, parts[0].stop, rows, cols)) if p > 1 else None
    for ys in parts:
        out = plane[:, ys]
        np.matmul(a[0, ys, 0][None], b[:, 0, 0][:, None], out=out)
        out += 0.0                  # zero + residue 0, bit for bit
        for z in range(1, p):
            out += np.matmul(a[z, ys, z][None], b[:, z, z][:, None],
                             out=buf[:, :ys.stop - ys.start])  # type: ignore[index]
    return over_depth(total, p)


def chunks(count: int, item_words: int) -> List[slice]:
    """``range(count)`` as consecutive slices of as many items of
    *item_words* words as fit in :data:`CHUNK_WORDS` (at least one); the
    last slice may be shorter."""
    step = max(1, CHUNK_WORDS // item_words)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]
