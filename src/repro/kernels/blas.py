"""Local BLAS-like kernels over blocks: multiply and elementwise ops.

Every function returns ``(result_block, flops)``; the distributed caller
charges the flops to the owning rank.  Numeric blocks hit numpy's BLAS;
symbolic blocks propagate shapes only (the flop count is identical, which
is the whole point of the dual backend).
"""

from __future__ import annotations

from typing import Tuple

from repro.kernels import flops as fl
from repro.utils.validation import require
from repro.vmpi.datatypes import Block, NumericBlock, SymbolicBlock


def local_mm(a: Block, b: Block) -> Tuple[Block, float]:
    """``C = A @ B`` with ``2 m n k`` flops."""
    m, k = a.shape
    k2, n = b.shape
    require(k == k2, f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return a.matmul(b), fl.mm_flops(m, n, k)


def local_mm_tn(a: Block, b: Block) -> Tuple[Block, float]:
    """``C = A.T @ B`` (transpose-first multiply, used by the Gram step)."""
    k, m = a.shape
    k2, n = b.shape
    require(k == k2, f"matmul(T, N) shape mismatch: {a.shape}.T @ {b.shape}")
    if isinstance(a, SymbolicBlock):
        return SymbolicBlock((m, n)), fl.mm_flops(m, n, k)
    return NumericBlock(a.data.T @ b.data), fl.mm_flops(m, n, k)  # type: ignore[union-attr]


def local_sub(a: Block, b: Block) -> Tuple[Block, float]:
    """Elementwise ``A - B``; one flop per entry (Algorithm 3 line 10)."""
    m, n = a.shape
    return a.sub(b), fl.elementwise_flops(m, n)


def local_neg(a: Block) -> Tuple[Block, float]:
    """Elementwise negation; one flop per entry (Algorithm 3 line 13)."""
    m, n = a.shape
    return a.neg(), fl.elementwise_flops(m, n)
