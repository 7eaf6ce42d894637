"""Sequential Cholesky kernels: factorization, triangular inverse, CholInv.

``local_cholinv`` is the sequential base case of CFR3D (Algorithm 3 line 3):
it returns both the lower-triangular factor ``L`` of ``A = L L.T`` and
``Y = L**-1``.  ``cholinv_recursive`` is a literal transcription of
Algorithm 2's recursion, kept as an executable specification -- the test
suite checks it against the LAPACK-style direct implementation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels import flops as fl
from repro.utils.validation import require
from repro.vmpi.datatypes import Block, NumericBlock, SymbolicBlock


class CholeskyFailure(ValueError):
    """Raised when a Gram matrix is numerically indefinite.

    For CholeskyQR this happens exactly when ``kappa(A)**2`` exceeds
    ``1/eps`` -- the regime the shifted variant (:mod:`repro.core.shifted`)
    exists to handle.  Carrying a dedicated exception type lets callers
    implement the shift-and-retry policy cleanly.
    """


def _chol_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; :class:`CholeskyFailure` if there is no finite one.

    A Gram matrix that overflowed (an input scaled far beyond
    ``sqrt(float max)``) can factor into ``inf``/``nan`` without LAPACK
    reporting a breakdown, so a non-finite factor fails here too.
    """
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure(
            f"Cholesky factorization failed on a {a.shape[0]}x{a.shape[0]} Gram matrix; "
            "the input is too ill-conditioned for plain CholeskyQR "
            "(try repro.core.shifted.shifted_cqr3)") from exc
    if not np.isfinite(l).all():
        raise CholeskyFailure(
            f"Cholesky factor of a {a.shape[0]}x{a.shape[0]} Gram matrix is not "
            "finite; the Gram matrix overflowed (rescale the input)")
    return l


def _trinv_lower(l: np.ndarray) -> np.ndarray:
    """``L**-1`` of a lower-triangular array; only numeric runs load scipy."""
    import scipy.linalg
    return scipy.linalg.solve_triangular(l, np.eye(l.shape[0]), lower=True)


def local_chol(a: Block) -> Tuple[Block, float]:
    """Lower Cholesky factor of a symmetric positive definite block."""
    m, n = a.shape
    require(m == n, f"Cholesky needs a square block, got {a.shape}")
    if isinstance(a, SymbolicBlock):
        return SymbolicBlock((n, n)), fl.chol_flops(n)
    return NumericBlock(_chol_lower(a.data)), fl.chol_flops(n)  # type: ignore[union-attr]


def local_trinv(l: Block) -> Tuple[Block, float]:
    """Inverse of a lower-triangular block."""
    m, n = l.shape
    require(m == n, f"triangular inverse needs a square block, got {l.shape}")
    if isinstance(l, SymbolicBlock):
        return SymbolicBlock((n, n)), fl.trinv_flops(n)
    return NumericBlock(_trinv_lower(l.data)), fl.trinv_flops(n)  # type: ignore[union-attr]


def local_cholinv(a: Block) -> Tuple[Block, Block, float]:
    """``(L, Y=L**-1, flops)`` for a symmetric positive definite block.

    This is the ``CholInv`` primitive of Algorithms 2-3; the combined flop
    charge is ``n**3`` (``2n**3/3`` for the factorization plus ``n**3/3``
    for the inverse).
    """
    l, f1 = local_chol(a)
    y, f2 = local_trinv(l)
    return l, y, f1 + f2


def cholinv_recursive(a: np.ndarray, base: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Literal sequential transcription of Algorithm 2 (``CholInv``).

    Splits ``A`` into quadrants, recurses on ``A11`` and the Schur
    complement ``A22 - L21 L21.T``, and assembles

    .. math::
        L = \\begin{pmatrix} L_{11} & \\\\ L_{21} & L_{22} \\end{pmatrix},
        \\qquad
        Y = \\begin{pmatrix} Y_{11} & \\\\ -Y_{22} L_{21} Y_{11} & Y_{22} \\end{pmatrix}.

    Kept as an executable specification of the math CFR3D parallelizes; the
    production sequential path is :func:`local_cholinv`.
    """
    n = a.shape[0]
    require(a.shape == (n, n), f"need a square matrix, got {a.shape}")
    require(base >= 1, f"base must be >= 1, got {base}")
    if n <= base:
        l = _chol_lower(a)
        return l, _trinv_lower(l)
    h = n // 2
    a11, a21, a22 = a[:h, :h], a[h:, :h], a[h:, h:]
    l11, y11 = cholinv_recursive(a11, base)
    l21 = a21 @ y11.T
    l22, y22 = cholinv_recursive(a22 - l21 @ l21.T, base)
    y21 = -y22 @ (l21 @ y11)
    l = np.zeros_like(a)
    y = np.zeros_like(a)
    l[:h, :h], l[h:, :h], l[h:, h:] = l11, l21, l22
    y[:h, :h], y[h:, :h], y[h:, h:] = y11, y21, y22
    return l, y
