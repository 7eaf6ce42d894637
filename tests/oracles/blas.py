"""Per-block oracle of the stacked Gram kernels.

The shipped 1D Gram (:func:`repro.core.cqr_1d._gram_stacked`) computes
every rank's ``A_local.T @ A_local`` as one stacked matmul;
:func:`local_syrk` is the per-block form it is held to, bit for bit
(``tests/test_stacked_numerics.py``).
"""

from __future__ import annotations

from typing import Tuple

from repro.kernels import flops as fl
from repro.vmpi.datatypes import Block, NumericBlock, SymbolicBlock


def local_syrk(a: Block) -> Tuple[Block, float]:
    """``X = A.T @ A`` charged at the symmetric rate ``m n**2``.

    Numerically we form the full (symmetric) product; the flop charge uses
    the paper's ``T_syrk`` half-GEMM convention.
    """
    m, n = a.shape
    if isinstance(a, SymbolicBlock):
        return SymbolicBlock((n, n)), fl.syrk_flops(m, n)
    gram = a.data.T @ a.data  # type: ignore[union-attr]
    # Enforce exact symmetry; BLAS GEMM round-off otherwise leaves a tiny
    # skew component that the Cholesky layers would have to re-symmetrize.
    gram = 0.5 * (gram + gram.T)
    return NumericBlock(gram), fl.syrk_flops(m, n)

