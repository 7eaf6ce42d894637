"""Shifted CholeskyQR (Fukaya et al., reference [3]; the paper's Section V).

Plain CholeskyQR fails outright when ``kappa(A)**2`` overflows the working
precision: the computed Gram matrix is numerically indefinite and the
Cholesky factorization breaks down.  Shifted CholeskyQR regularizes the
Gram matrix with a small diagonal shift

.. math::
    s = 11 (m n + n (n + 1)) \\, u \\, \\|A\\|_2^2

(``u`` the unit round-off), factoring ``A.T A + s I`` instead.  The
resulting ``Q1`` is far from orthogonal but has bounded condition number
(``kappa(Q1) <= 2 sqrt(kappa(A))``-ish), so following with CholeskyQR2
yields **unconditionally stable** QR -- this three-pass combination is
*shifted CholeskyQR3* (sCQR3).

The paper lists evaluating this variant at scale as future work and notes
"minimal modifications are necessary" to CA-CQR2; we implement the
sequential reference here and the distributed version as a thin wrapper in
the top-level API (the shift only changes the Gram matrix's diagonal, a
local operation on each subcube's diagonal blocks).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.cholesky import CholeskyFailure, _chol_lower, _trinv_lower
from repro.utils.validation import require
from repro.vmpi.comm import ordered_sum


def recommended_shift(m: int, n: int, norm2_squared: float,
                      unit_roundoff: float = np.finfo(np.float64).eps / 2) -> float:
    """The shift ``s = 11 (m n + n (n+1)) u ||A||_2**2`` of reference [3]."""
    require(m > 0 and n > 0, f"matrix dims must be positive, got {m}x{n}")
    require(norm2_squared >= 0, f"norm squared must be non-negative, got {norm2_squared}")
    return 11.0 * (m * n + n * (n + 1)) * unit_roundoff * norm2_squared


def shifted_cqr_sequential(a: np.ndarray,
                           shift: Optional[float] = None,
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """One shifted CholeskyQR pass: factor ``A.T A + s I``.

    Returns ``(Q1, R1)`` with ``A approx Q1 R1``; ``Q1`` is *not* close to
    orthogonal, but is well-conditioned enough for CQR2 to finish the job.
    If *shift* is omitted, the Frobenius norm (an upper bound on the
    2-norm) drives :func:`recommended_shift`, avoiding an SVD.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    require(m >= n, f"shifted CQR needs a tall matrix, got {a.shape}")
    w = a.T @ a
    w = 0.5 * (w + w.T)
    if shift is None:
        shift = recommended_shift(m, n, float(np.linalg.norm(a, "fro") ** 2))
    w[np.diag_indices_from(w)] += shift
    l = _chol_lower(w)
    return a @ _trinv_lower(l).T, l.T


def shifted_cqr3_sequential(a: np.ndarray, shift: Optional[float] = None,
                            max_shift_passes: int = 4) -> Tuple[np.ndarray, np.ndarray]:
    """Shifted CholeskyQR3: shifted pass(es) + CholeskyQR2 on the result.

    Unconditionally stable (orthogonality at the Householder level) for any
    ``kappa(A)`` representable in the working precision, at ~1.5x the flops
    of CQR2.  One shifted pass reduces the condition number by roughly
    ``sqrt(1/(u * kappa))``; for kappa near ``1/u`` the intermediate factor
    can still be too ill-conditioned for plain CholeskyQR, so the shifted
    pass is **repeated** until CQR2 succeeds (at most *max_shift_passes*
    times -- two passes suffice for any double-precision-representable
    condition number; the cap is defensive).
    """
    from repro.core.cqr import cqr2_sequential
    from repro.kernels.cholesky import CholeskyFailure

    r_total = None
    current = np.asarray(a, dtype=np.float64)
    for attempt in range(max_shift_passes):
        q1, r1 = shifted_cqr_sequential(current, shift if attempt == 0 else None)
        r_total = r1 if r_total is None else r1 @ r_total
        try:
            q, r2 = cqr2_sequential(q1)
            return q, r2 @ r_total
        except CholeskyFailure:
            current = q1
    raise CholeskyFailure(
        f"shifted CholeskyQR did not converge in {max_shift_passes} passes; "
        "the input is numerically rank-deficient")


def _frobenius_sq(data: np.ndarray) -> float:
    """``||A||_F**2`` from stacked blocks: each rank of slice ``z = 0``
    sums its block's squares (``np.sum``'s pairwise order over the block),
    and the slice's Allreduce adds those partials in its y-major rank order.
    """
    face = data[:, :, 0] ** 2
    partials = face.reshape(*face.shape[:2], -1).sum(axis=-1)     # [x, y]
    return float(ordered_sum(partials.T.reshape(-1, 1), axis=0)[0])


def ca_shifted_cqr3(vm, a, base_case_size=None, phase: str = "sCQR3",
                    max_shift_passes: int = 4):
    """Distributed shifted CholeskyQR3 over a ``c x d x c`` grid.

    The paper's Section V: "minimal modifications are necessary to
    implement shifted Cholesky-QR".  Concretely:

    1. compute ``||A||_F**2`` with one scalar Allreduce over a grid slice
       (each rank already holds its local block);
    2. run one CA-CQR pass with ``shift * I`` added to the distributed Gram
       matrix -- a local update on the diagonal-block owners;
    3. run plain CA-CQR2 on the resulting well-conditioned ``Q1``;
    4. merge the triangular factors with one per-subcube MM3D.

    Retries the shifted pass (like the sequential
    :func:`shifted_cqr3_sequential`) if CQR2 still breaks down.

    Parameters mirror :func:`repro.core.cacqr.ca_cqr2`; returns a
    :class:`repro.core.cacqr.CACQRResult`.
    """
    from repro.core.cacqr import CACQRResult, ca_cqr, ca_cqr2, mm3d
    from repro.costmodel import collectives as cc
    from repro.kernels import flops as fl
    from repro.kernels.cholesky import CholeskyFailure

    face = a.grid.ranks[:, :, 0].T.reshape(1, -1)     # slice z=0, y-major

    current = a
    r_chain = None  # list of per-subcube R factors accumulated so far
    for _attempt in range(max_shift_passes):
        # Step 1: ||A||_F^2 via one scalar allreduce over slice z=0
        # (numeric mode; symbolic mode charges the same collective).
        vm.charge_comm_groups(face, cc.allreduce_cost(1, face.size),
                              f"{phase}.norm-allreduce")
        vm.charge_flops_group(face[0], 2.0 * current.local_rows * current.local_cols,
                              f"{phase}.norm-local")
        norm2 = 1.0 if current.data is None else _frobenius_sq(current.data)
        shift = recommended_shift(current.m, current.n, norm2)

        # Step 2: one shifted CA-CQR pass.
        first = ca_cqr(vm, current, base_case_size, phase=f"{phase}.shifted-pass",
                       gram_shift=shift)
        r_chain = first.r_subcubes if r_chain is None else [
            mm3d(vm, new, old, phase=f"{phase}.merge-r.mm3d",
                 flop_fraction=fl.TRI_TRI_FRACTION)
            for new, old in zip(first.r_subcubes, r_chain)
        ]

        # Step 3: CQR2 on the regularized factor; retry with another
        # shifted pass if the Gram matrix is still indefinite.
        try:
            second = ca_cqr2(vm, first.q, base_case_size, phase=f"{phase}.cqr2")
        except CholeskyFailure:
            current = first.q
            continue

        # Step 4: merge R = R_cqr2 @ (R_shift_k ... R_shift_1).
        merged = [
            mm3d(vm, r2, r1, phase=f"{phase}.merge-r.mm3d",
                 flop_fraction=fl.TRI_TRI_FRACTION)
            for r2, r1 in zip(second.r_subcubes, r_chain)
        ]
        return CACQRResult(q=second.q, r_subcubes=merged)

    raise CholeskyFailure(
        f"distributed shifted CholeskyQR did not converge in {max_shift_passes} "
        "passes; the input is numerically rank-deficient")

