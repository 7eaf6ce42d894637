"""Sequential Householder QR kernel.

The executed baselines factor with it: TSQR its local row blocks and
gathered R-stacks, the ScaLAPACK-like baseline its panels.  Both call it
once on a whole stack of local matrices; they charge the paper's
Householder flop count ``2 m n**2 - (2/3) n**3``
(:func:`repro.kernels.flops.householder_flops`) per rank themselves.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import require


def signed_qr(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced QR of one ``m x n`` array, or of every matrix in a stack.

    The R factors' diagonals are made non-negative so results are unique
    and comparable across algorithms (LAPACK's sign convention is
    arbitrary).  ``np.linalg.qr`` factors each matrix of a stack with the
    same LAPACK calls as a lone 2D array, so a stacked call has the
    per-matrix bits.
    """
    require(a.shape[-2] >= a.shape[-1],
            f"reduced QR needs m >= n, got {a.shape[-2:]}")
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :], np.triu(r * signs[..., :, None])
