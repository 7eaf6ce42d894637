"""Sequential CholeskyQR, CholeskyQR2 and CholeskyQR3 (Algorithms 4-5).

These are the mathematical skeletons every parallel variant implements:

* **CQR**: ``W = A.T A``; ``R.T = Chol(W)``; ``Q = A R**-1``.  Backward
  stable as a factorization but loses orthogonality like ``kappa(A)**2``.
* **CQR2**: run CQR, then run CQR once more on the computed ``Q`` and merge
  the triangular factors (``R = R2 R1``).  Orthogonality matches
  Householder QR provided ``kappa(A) = O(1/sqrt(eps))`` (reference [2]).
* **CQR3**: a third pass, cheap insurance discussed alongside the shifted
  variant of reference [3].

These run on plain numpy arrays; they serve as the reference implementation
for the distributed algorithms' tests and as subjects of the accuracy study
(experiment E12).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels.cholesky import CholeskyFailure, _chol_lower, _trinv_lower  # noqa: F401 - CholeskyFailure re-exported (documented raise type)
from repro.utils.validation import require


def cqr_sequential(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One CholeskyQR pass (Algorithm 4): returns ``(Q, R)`` with ``A = QR``.

    Raises :class:`~repro.kernels.cholesky.CholeskyFailure` when the Gram
    matrix is numerically indefinite (``kappa(A)**2 > 1/eps`` territory).
    """
    a = np.asarray(a, dtype=np.float64)
    require(a.ndim == 2 and a.shape[0] >= a.shape[1],
            f"CQR needs a tall matrix (m >= n), got shape {a.shape}")
    w = a.T @ a
    w = 0.5 * (w + w.T)
    l = _chol_lower(w)            # L = R.T
    y = _trinv_lower(l)           # Y = R**-T
    q = a @ y.T                   # Q = A R**-1
    return q, l.T


def cqr2_sequential(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CholeskyQR2 (Algorithm 5): two CQR passes, ``R = R2 @ R1``."""
    q1, r1 = cqr_sequential(a)
    q, r2 = cqr_sequential(q1)
    return q, r2 @ r1


def cqr3_sequential(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Three CQR passes; the unshifted cousin of shifted CholeskyQR3."""
    q1, r1 = cqr_sequential(a)
    q2, r2 = cqr_sequential(q1)
    q, r3 = cqr_sequential(q2)
    return q, r3 @ (r2 @ r1)
