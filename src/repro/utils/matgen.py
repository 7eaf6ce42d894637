"""Workload generators.

The paper's scaling experiments use "random matrices" (Section IV-C); its
stability discussion (Section I, refs [1]-[3]) is about how the accuracy of
CholeskyQR-family algorithms degrades with the condition number kappa(A).
This module provides both: plain Gaussian test matrices for the scaling
experiments and generators with a *prescribed* condition number (via an
explicit SVD construction) for the accuracy study, plus the classically
ill-conditioned Vandermonde family used as a stress test.

All generators take an explicit ``rng`` / ``seed`` so experiments are
reproducible run-to-run.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.utils.validation import check_positive_int, require

RngLike = Union[None, int, np.random.Generator]


def _as_rng(rng: RngLike) -> np.random.Generator:
    """Coerce ``None`` / seed / Generator into a :class:`numpy.random.Generator`."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def random_matrix(m: int, n: int, rng: RngLike = None, dtype=np.float64) -> np.ndarray:
    """Dense i.i.d. standard-normal ``m x n`` matrix.

    This is the workload of the paper's strong/weak scaling runs.  Gaussian
    matrices are well-conditioned with overwhelming probability
    (kappa = O(m/n) in expectation for tall matrices), so CholeskyQR2 is
    numerically safe on them.
    """
    check_positive_int(m, "m")
    check_positive_int(n, "n")
    return _as_rng(rng).standard_normal((m, n)).astype(dtype, copy=False)


def random_orthonormal(m: int, n: int, rng: RngLike = None, dtype=np.float64) -> np.ndarray:
    """``m x n`` matrix with exactly orthonormal columns (Haar-ish via QR)."""
    check_positive_int(m, "m")
    check_positive_int(n, "n")
    require(m >= n, f"need m >= n for orthonormal columns, got {m} x {n}")
    g = _as_rng(rng).standard_normal((m, n))
    q, r = np.linalg.qr(g)
    # Fix the sign ambiguity so the distribution is Haar and deterministic
    # given the rng stream.
    q *= np.sign(np.diag(r))[np.newaxis, :]
    return q.astype(dtype, copy=False)


def matrix_with_condition(
    m: int,
    n: int,
    condition: float,
    rng: RngLike = None,
    mode: str = "geometric",
    dtype=np.float64,
) -> np.ndarray:
    """``m x n`` matrix with 2-norm condition number exactly *condition*.

    Built as ``U @ diag(s) @ V.T`` with Haar factors and singular values
    spanning ``[1/condition, 1]``.

    Parameters
    ----------
    mode:
        ``"geometric"`` - singular values geometrically spaced (the standard
        LAPACK test-matrix profile; hardest for CholeskyQR since the Gram
        matrix squares the spread).
        ``"arithmetic"`` - linearly spaced.
        ``"cluster"`` - one singular value at ``1/condition``, the rest at 1
        (isolates the effect of a single bad direction).
    """
    check_positive_int(m, "m")
    check_positive_int(n, "n")
    require(m >= n, f"need m >= n, got {m} x {n}")
    require(condition >= 1.0, f"condition must be >= 1, got {condition}")
    gen = _as_rng(rng)
    if n == 1:
        return gen.standard_normal((m, 1)).astype(dtype, copy=False)
    if mode == "geometric":
        s = np.geomspace(1.0, 1.0 / condition, n)
    elif mode == "arithmetic":
        s = np.linspace(1.0, 1.0 / condition, n)
    elif mode == "cluster":
        s = np.ones(n)
        s[-1] = 1.0 / condition
    else:
        raise ValueError(f"unknown singular-value mode {mode!r}")
    u = random_orthonormal(m, n, gen)
    v = random_orthonormal(n, n, gen)
    return (u * s[np.newaxis, :]).dot(v.T).astype(dtype, copy=False)


def tall_skinny_least_squares_problem(
    m: int,
    n: int,
    noise: float = 1e-3,
    condition: float = 1e4,
    rng: RngLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic overdetermined least-squares instance ``min ||Ax - b||``.

    Returns ``(A, b, x_true)`` where ``b = A @ x_true + noise * g``.  This is
    the motivating workload of the paper's introduction (very overdetermined
    systems in many variables).
    """
    gen = _as_rng(rng)
    a = matrix_with_condition(m, n, condition, gen)
    x_true = gen.standard_normal(n)
    b = a.dot(x_true)
    if noise > 0.0:
        b = b + noise * gen.standard_normal(m)
    return a, b, x_true


def vandermonde_matrix(m: int, n: int, spread: float = 1.0) -> np.ndarray:
    """Rectangular Vandermonde matrix on equispaced nodes in ``[-spread, spread]``.

    Classic ill-conditioned tall-skinny family (polynomial regression design
    matrices); condition grows exponentially with *n*.
    """
    check_positive_int(m, "m")
    check_positive_int(n, "n")
    require(m >= n, f"need m >= n, got {m} x {n}")
    nodes = np.linspace(-spread, spread, m)
    return np.vander(nodes, n, increasing=True)

