"""Structured verification of QR factorizations.

A downstream user adopting this library wants one call that says whether a
factorization is trustworthy and *why not* if it is not.  ``verify_qr``
checks the four defining properties with condition-number-aware tolerances:

1. **reconstruction**: ``||A - QR||_F / ||A||_F`` at working precision;
2. **orthogonality**: ``||Q^T Q - I||_2`` at working precision (scaled by
   ``sqrt(m)`` round-off growth);
3. **triangularity**: ``R`` is exactly upper triangular;
4. **sign convention**: non-negative diagonal (uniqueness of the reduced
   factorization), when requested.

The thresholds encode the stability ladder: plain CholeskyQR is *expected*
to fail orthogonality at ``kappa^2 eps`` scale, CQR2/Householder at
``~eps``; callers choose the profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.utils.validation import require


@dataclass(frozen=True)
class QRVerdict:
    """Outcome of :func:`verify_qr`: metrics plus pass/fail with reasons."""

    reconstruction_error: float
    orthogonality_error: float
    is_upper_triangular: bool
    has_nonnegative_diagonal: bool
    passed: bool
    failures: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL: " + "; ".join(self.failures)
        return (f"QRVerdict(residual={self.reconstruction_error:.2e}, "
                f"orthogonality={self.orthogonality_error:.2e}, "
                f"triangular={self.is_upper_triangular}, {status})")


def verify_qr(a: np.ndarray, q: np.ndarray, r: np.ndarray,
              orthogonality_tol: Optional[float] = None,
              reconstruction_tol: Optional[float] = None,
              require_sign_convention: bool = False) -> QRVerdict:
    """Verify ``A = Q R`` with orthonormal ``Q`` and upper-triangular ``R``.

    Default tolerances scale with the problem: ``reconstruction_tol =
    100 * sqrt(m) * eps`` and ``orthogonality_tol = 1000 * sqrt(m) * eps``
    (loose enough for any backward-stable algorithm, tight enough to catch
    a CholeskyQR pass on an ill-conditioned input).
    """
    a = np.asarray(a, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    m, n = a.shape
    require(q.shape == (m, n), f"Q shape {q.shape} does not match A {a.shape}")
    require(r.shape == (n, n), f"R shape {r.shape} is not {n}x{n}")
    eps = np.finfo(np.float64).eps
    if reconstruction_tol is None:
        reconstruction_tol = 100.0 * np.sqrt(m) * eps
    if orthogonality_tol is None:
        orthogonality_tol = 1000.0 * np.sqrt(m) * eps

    a_norm = np.linalg.norm(a, "fro")
    residual = q @ r
    np.subtract(a, residual, out=residual)      # A - QR in QR's buffer
    recon = float(np.linalg.norm(residual, "fro") / a_norm) if a_norm > 0 else 0.0
    orth = float(np.linalg.norm(q.T @ q - np.eye(n), 2))
    triangular = bool(np.allclose(r, np.triu(r), atol=0.0))
    nonneg = bool((np.diag(r) >= 0).all())

    failures: List[str] = []
    if recon > reconstruction_tol:
        failures.append(f"reconstruction {recon:.2e} > {reconstruction_tol:.2e}")
    if orth > orthogonality_tol:
        failures.append(f"orthogonality {orth:.2e} > {orthogonality_tol:.2e}")
    if not triangular:
        failures.append("R is not upper triangular")
    if require_sign_convention and not nonneg:
        failures.append("R has negative diagonal entries")

    return QRVerdict(reconstruction_error=recon, orthogonality_error=orth,
                     is_upper_triangular=triangular,
                     has_nonnegative_diagonal=nonneg,
                     passed=not failures, failures=failures)


def cross_check(a: np.ndarray, factorizations, atol: float = 1e-9) -> List[str]:
    """Compare several ``(label, Q, R)`` triples for mutual consistency.

    The reduced QR with non-negative diagonal is unique, so all correct
    algorithms must agree on ``|R|`` entrywise.  Returns a list of
    mismatch descriptions (empty = all consistent).
    """
    problems: List[str] = []
    triples = list(factorizations)
    require(len(triples) >= 2, "cross_check needs at least two factorizations")
    ref_label, _, ref_r = triples[0]
    ref = np.abs(np.asarray(ref_r))
    for label, _, r in triples[1:]:
        diff = float(np.max(np.abs(np.abs(np.asarray(r)) - ref)))
        if diff > atol:
            problems.append(f"{label} vs {ref_label}: max |R| deviation {diff:.2e}")
    return problems
