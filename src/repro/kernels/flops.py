"""Flop-count formulas, following the paper's conventions (Section II-A).

The paper charges:

* ``T_axpy(m, n)        = 2 m n``  (scaled add: one multiply + one add per entry)
* ``T_MM(m, n, k)       = 2 m n k``
* ``T_syrk(m, n)        = m n**2`` (symmetric rank-m update: half of a GEMM)
* ``T_Chol(n)           = (2/3) n**3``
* triangular inverse    = ``(1/3) n**3`` (so CholInv totals ``n**3``)
* TRSM with ``m`` right-hand rows against an ``n x n`` triangle = ``m n**2``
* Householder QR of ``m x n`` = ``2 m n**2 - (2/3) n**3`` (the flop count
  the paper divides by to compute Gigaflops/s for *both* algorithms)

Element-wise subtraction (Algorithm 3 line 10) is charged one flop per
entry.  These are model conventions, not hardware truths; what matters for
the reproduction is that the closed-form line tables, the executed ledger,
and the paper's Table I all use the same constants.
"""

from __future__ import annotations


#: Fraction of a dense GEMM's flops that a TRMM (dense x triangular) costs.
TRMM_FRACTION = 0.5

#: Fraction of a dense GEMM's flops that a triangular x triangular product
#: with triangular result costs (``n**3/3`` of ``2 n**3``).
TRI_TRI_FRACTION = 1.0 / 6.0


def elementwise_flops(m: int, n: int) -> float:
    """Single-op elementwise map (subtraction, negation) of ``m x n``."""
    return float(m * n)


def mm_flops(m: int, n: int, k: int) -> float:
    """Dense multiply ``(m x k) @ (k x n)``."""
    return 2.0 * m * n * k


def syrk_flops(m: int, n: int) -> float:
    """Symmetric rank-``m`` update ``A.T @ A`` with ``A`` of shape ``m x n``."""
    return float(m) * n * n


def chol_flops(n: int) -> float:
    """Cholesky factorization of ``n x n``."""
    return (2.0 / 3.0) * n ** 3


def trinv_flops(n: int) -> float:
    """Inverse of an ``n x n`` triangular matrix."""
    return (1.0 / 3.0) * n ** 3


def householder_flops(m: int, n: int) -> float:
    """Householder QR of ``m x n`` (the paper's Gigaflops numerator)."""
    return 2.0 * m * n * n - (2.0 / 3.0) * n ** 3
