"""Overdetermined least squares -- the paper's motivating workload.

Run:  python examples/least_squares_regression.py

Two scenarios:

1. A well-conditioned regression (millions of observations, few features in
   the real setting; scaled down here): solve ``min ||Ax - b||`` via
   CA-CQR2's explicit Q/R, and compare against the normal equations.
2. Polynomial regression on a Vandermonde design matrix -- genuinely
   ill-conditioned -- where plain CholeskyQR2 breaks down and the shifted
   CholeskyQR3 extension (Section V) rescues the solve.
"""

import numpy as np
import scipy.linalg

from repro import Session
from repro.core.shifted import shifted_cqr3_sequential
from repro.kernels.cholesky import CholeskyFailure
from repro.utils.matgen import tall_skinny_least_squares_problem, vandermonde_matrix


def solve_with_qr(q: np.ndarray, r: np.ndarray, b: np.ndarray) -> np.ndarray:
    return scipy.linalg.solve_triangular(r, q.T @ b, lower=False)


def scenario_regression() -> None:
    print("=== scenario 1: tall-skinny least squares via CA-CQR2 ===")
    m, n = 8192, 32
    a, b, x_true = tall_skinny_least_squares_problem(
        m, n, noise=1e-6, condition=1e5, rng=7)

    run = Session().factor(a, algorithm="ca_cqr2", c=2, d=16)
    x_qr = solve_with_qr(run.q, run.r, b)

    gram = a.T @ a
    x_normal = np.linalg.solve(gram, a.T @ b)

    x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
    print(f"  problem: {m} x {n}, kappa(A) ~ 1e5, grid 2x16x2")
    print(f"  ||x_cacqr2 - x_ref||   = {np.linalg.norm(x_qr - x_ref):.3e}")
    print(f"  ||x_normal - x_ref||   = {np.linalg.norm(x_normal - x_ref):.3e}")
    print(f"  ||x_cacqr2 - x_true||  = {np.linalg.norm(x_qr - x_true):.3e}")
    print()


def scenario_polynomial() -> None:
    print("=== scenario 2: polynomial regression (ill-conditioned design) ===")
    m, degree = 2048, 32
    v = vandermonde_matrix(m, degree)
    print(f"  Vandermonde design {m} x {degree}, kappa = {np.linalg.cond(v):.2e}")

    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(degree)
    y = v @ coeffs + 1e-8 * rng.standard_normal(m)

    try:
        Session().factor(v, algorithm="ca_cqr2", c=2, d=4)
        print("  plain CholeskyQR2: unexpectedly succeeded")
    except CholeskyFailure:
        print("  plain CholeskyQR2: breakdown (Gram matrix numerically indefinite)")

    q, r = shifted_cqr3_sequential(v)
    x = solve_with_qr(q, np.triu(r), y)
    resid = np.linalg.norm(v @ x - y) / np.linalg.norm(y)
    orth = np.linalg.norm(q.T @ q - np.eye(degree), 2)
    print(f"  shifted CholeskyQR3: ||Q^T Q - I|| = {orth:.2e}, "
          f"relative residual = {resid:.2e}")
    print()


def main() -> None:
    scenario_regression()
    scenario_polynomial()


if __name__ == "__main__":
    main()
