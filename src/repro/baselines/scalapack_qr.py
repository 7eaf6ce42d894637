"""A ScaLAPACK ``PGEQRF``-like 2D distributed QR baseline.

The paper's comparator is ScaLAPACK's blocked Householder QR on a
``pr x pc`` process grid with block size ``b`` -- closed-source on the
authors' testbeds and unavailable here, so this module supplies the
substitution documented in DESIGN.md:

1. :func:`scalapack_qr` -- an **executed** distributed 2D blocked QR over
   the virtual-MPI substrate: each width-``b`` panel is factored by TSQR
   across the process column (local QR + stacked-R QR), and the trailing
   matrix is updated with the blocked projector ``C -= Q_p (Q_p^T C)``.
   This has the same communication pattern class as ``PGEQRF`` (per-panel
   column-communicator reductions, row-communicator broadcasts, a trailing
   GEMM update) and produces a genuine QR factorization; it differs from
   Householder panels in using explicit panel Q factors (block
   Gram-Schmidt-style update), which is numerically adequate for the
   well-conditioned scaling workloads and is *not* used for the stability
   study (plain Householder QR serves there).

2. :func:`pgeqrf_cost` -- the standard **analytic cost model** of blocked
   2D Householder QR (CAQR-paper-style), used to reproduce the paper's
   ScaLAPACK curves at full scale:

   * ``alpha``: ``2 n log2(pr)`` (column-by-column panel reductions) plus
     ``(n/b)(2 log2(pr) + 2 log2(pc))`` (per-panel trailing collectives);
   * ``beta``: ``2 n b`` (panel-internal) + ``2 (mn - n^2/2)/pr`` (reflector
     broadcasts along rows) + ``n^2/pc`` (trailing-update reductions);
   * ``gamma``: ``(2 m n^2 - (2/3) n^3)/P`` (parallelized Householder flops)
     + ``2 b (mn - n^2/2)/pr`` (panel-serialization overhead).

   The 2D bandwidth term ``~ mn/pr + n^2/pc`` is the quantity CA-CQR2's
   ``(m n^2/P)^(2/3)`` beats by ``Theta(P^(1/6))``.
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
from repro.vmpi.comm import ordered_sum
from repro.vmpi.distmatrix import DistMatrix, Replicated
from repro.vmpi.machine import VirtualMachine


# ---------------------------------------------------------------------------
# Analytic cost model (figures path)
# ---------------------------------------------------------------------------

def _log2p(p: int) -> float:
    return math.ceil(math.log2(p)) if p > 1 else 0.0


#: Fallback efficiency of ScaLAPACK's Householder kernels relative to the
#: large-GEMM rate the machine presets' ``sequential_efficiency`` is
#: calibrated for.  Blocked Householder QR spends its time in BLAS-2 panel
#: operations and skinny TRMM/GEMM updates that run well below DGEMM speed
#: on wide-vector architectures (the effect is strongest on KNL); the flop
#: charge is scaled up by ``1/kernel_efficiency`` to reflect it.  Machine
#: presets carry their own calibrated value
#: (:attr:`repro.costmodel.params.MachineSpec.qr_kernel_efficiency`).
PGEQRF_KERNEL_EFFICIENCY = 0.40


def pgeqrf_cost(m: int, n: int, pr: int, pc: int, block_size: int,
                kernel_efficiency: float = PGEQRF_KERNEL_EFFICIENCY) -> Cost:
    """Analytic per-processor cost of blocked 2D Householder QR.

    See the module docstring for the term-by-term derivation.  ``pr * pc``
    is the total process count; ``block_size`` is ScaLAPACK's ``NB``.
    """
    check_positive_int(pr, "pr")
    check_positive_int(pc, "pc")
    check_positive_int(block_size, "block_size")
    require(m >= n, f"PGEQRF model expects m >= n, got {m}x{n}")
    require(0 < kernel_efficiency <= 1, "kernel_efficiency must be in (0, 1]")
    b = min(block_size, n)
    p = pr * pc
    cost = Cost()
    # Panel factorization: n columns, each needing one column-communicator
    # allreduce (norm + v^T * panel) -> 2 log pr alpha + 2b beta per column.
    cost.add(messages=2.0 * n * _log2p(pr), words=2.0 * n * b)
    # Per-panel trailing collectives: broadcast V along rows, reduce W = V^T C
    # along columns.
    panels = math.ceil(n / b)
    cost.add(messages=panels * (2.0 * _log2p(pc) + 2.0 * _log2p(pr)))
    cost.add(words=2.0 * (m * n - n * n / 2.0) / pr + (n * n) / pc)
    # Flops: parallelized Householder count + panel serialization, derated
    # to the Householder-kernel rate.
    cost.add(flops=(fl.householder_flops(m, n) / p
                    + 2.0 * b * (m * n - n * n / 2.0) / pr) / kernel_efficiency)
    return cost


def default_scalapack_grid(m: int, n: int, procs: int) -> Tuple[int, int]:
    """A reasonable ``(pr, pc)`` matching the matrix aspect ratio.

    ScaLAPACK QR likes ``pr/pc ~ m/n``; this picks the power-of-two split
    of ``procs`` nearest that ratio (the paper's variant tuples fix ``pr``
    explicitly, so this is only a convenience for the examples/autotuner).
    """
    check_positive_int(procs, "procs")
    best = (procs, 1)
    best_err = float("inf")
    pr = 1
    while pr <= procs:
        if procs % pr == 0:
            pc = procs // pr
            err = abs(math.log((pr / pc) / (m / n)))
            if err < best_err:
                best_err, best = err, (pr, pc)
        pr *= 2
    return best


# ---------------------------------------------------------------------------
# Executed distributed implementation
# ---------------------------------------------------------------------------

def _validate(a: DistMatrix, block_size: int) -> Tuple[int, int]:
    g = a.grid
    require(g.dim_z == 1, f"scalapack_qr expects a pc x pr x 1 grid, got dims {g.dims}")
    pc, pr = g.dim_x, g.dim_y
    require(a.m >= a.n, f"need a tall matrix, got {a.m}x{a.n}")
    require(a.n % block_size == 0,
            f"n={a.n} must be divisible by block_size={block_size}")
    require(block_size % pc == 0,
            f"block_size={block_size} must be divisible by pc={pc} "
            "(each process column owns an equal share of every panel)")
    require(a.m // pr >= block_size,
            f"local row count {a.m}//{pr} must be at least block_size={block_size} "
            "for the TSQR panel factorization")
    return pr, pc


def scalapack_qr(vm: VirtualMachine, a: DistMatrix, block_size: int,
                 phase: str = "pgeqrf") -> Tuple[DistMatrix, Replicated]:
    """Distributed 2D blocked QR of a cyclic ``m x n`` matrix.

    Parameters
    ----------
    vm:
        Virtual machine charged for all communication and computation.
    a:
        ``m x n`` :class:`DistMatrix` on a ``pc x pr x 1`` grid (columns
        cyclic over ``x``, rows cyclic over ``y``).  Numeric blocks only --
        the executed baseline exists for correctness comparison; the
        figures path uses :func:`pgeqrf_cost`.
    block_size:
        Panel width ``b`` (must be a multiple of ``pc``).

    Returns
    -------
    (Q, R):
        ``Q`` distributed exactly like ``a``; ``R`` replicated on every rank.
    """
    pr, pc = _validate(a, block_size)
    require(a.is_numeric, "the executed scalapack_qr baseline is numeric-only; "
                          "use pgeqrf_cost for cost studies")
    g = a.grid
    m, n, b = a.m, a.n, block_size
    mloc, width = m // pr, b // pc     # width: panel columns per process column
    ranks = g.all_ranks_array
    rows, cols = g.ranks[:, :, 0].T, g.ranks[:, :, 0]   # Pi[:, y, 0], Pi[x, :, 0]
    xs = np.arange(pc)

    # Working state on stacked blocks, each value held once: the trailing
    # matrix [x, y], the Q columns built so far per process row [y] (the
    # same on every x), and the R accumulator per process column [x] (the
    # same on every y).
    trailing = a.data[:, :, 0].copy()
    q_acc = np.zeros((pr, mloc, n))
    r_acc = np.zeros((pc, n, n))

    for col_lo in range(0, n, b):
        loc_lo = col_lo // pc

        # --- 1. assemble the (mloc x b) panel row-chunk on every rank:
        # allgather panel pieces along each row communicator.
        vm.charge_comm_groups(rows, cc.allgather_cost(pc * mloc * width, pc),
                              f"{phase}.panel-allgather")
        chunks = (trailing[..., loc_lo:loc_lo + width]
                  .transpose(1, 2, 3, 0).reshape(pr, mloc, b))

        # --- 2. TSQR across the process column: local QR of the row chunk,
        # allgather the b x b R factors, QR the stack, correct local Q.
        local_q, rfactors = signed_qr(chunks)
        vm.charge_flops_group(ranks, fl.householder_flops(mloc, b),
                              f"{phase}.panel-local-qr")
        vm.charge_comm_groups(cols, cc.allgather_cost(pr * b * b, pr),
                              f"{phase}.panel-r-allgather")
        qs, r_panel = signed_qr(rfactors.reshape(pr * b, b))
        vm.charge_flops_group(ranks, fl.householder_flops(pr * b, b),
                              f"{phase}.panel-stack-qr")
        q_panel = np.matmul(local_q, qs.reshape(pr, b, b))
        vm.charge_flops_group(ranks, fl.mm_flops(mloc, b, b),
                              f"{phase}.panel-q-build")
        q_acc[..., col_lo:col_lo + b] = q_panel
        r_acc[:, col_lo:col_lo + b, col_lo:col_lo + b] = r_panel

        # --- 3. trailing update: W = Q_p^T C (allreduce over process
        # columns), R12 rows, then C -= Q_p W.
        rem_lo = (col_lo + b) // pc
        rest = trailing[..., rem_lo:]
        rest_n = rest.shape[-1]
        w_parts = np.matmul(q_panel.swapaxes(-1, -2)[None], rest)
        vm.charge_flops_group(ranks, fl.mm_flops(b, rest_n, mloc),
                              f"{phase}.update-wt")
        if rest_n:
            vm.charge_comm_groups(cols, cc.allreduce_cost(b * rest_n, pr),
                                  f"{phase}.update-allreduce")
            w = ordered_sum(w_parts, axis=1)                  # [x]
            rest -= np.matmul(q_panel[None], w[:, None])
            vm.charge_flops_group(ranks, fl.mm_flops(mloc, rest_n, b),
                                  f"{phase}.update-apply")
            # R12: each process column's cyclic share of the block row
            # (the reshape is a view: the column axis is contiguous).
            r12 = r_acc[:, col_lo:col_lo + b, rem_lo * pc:]
            r12.reshape(pc, b, rest_n, pc)[xs, :, :, xs] = w

        # --- 4. share R12 along rows so R stays fully replicated.
        vm.charge_comm_groups(rows, cc.allgather_cost(pc * b * n, pc),
                              f"{phase}.r-allgather")
        block_rows = r_acc[:, col_lo:col_lo + b]
        merged = block_rows[0].copy()
        for blk in block_rows[1:]:
            merged = np.where(blk != 0.0, blk, merged)
        block_rows[...] = merged

    # Package results: Q cyclic like the input, R replicated.
    q = q_acc.reshape(pr, mloc, n // pc, pc).transpose(3, 0, 1, 2)[:, :, None]
    return (DistMatrix.stacked(g, m, n, np.ascontiguousarray(q)),
            Replicated.stacked(ranks, np.triu(r_acc)))
