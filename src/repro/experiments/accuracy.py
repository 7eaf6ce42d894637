"""Numerical-accuracy study (experiment E12).

The paper's entire premise rests on the stability ladder established by
references [1]-[3]:

* plain **CholeskyQR** loses orthogonality like ``kappa(A)**2`` (and breaks
  down entirely once the Gram matrix goes numerically indefinite);
* **CholeskyQR2** restores Householder-level orthogonality provided
  ``kappa(A) = O(1/sqrt(eps)) ~ 1e8``;
* **shifted CholeskyQR3** is unconditionally stable.

This module declares the sweep as a :class:`repro.study.Study`
(:func:`accuracy_study`): a (condition x algorithm) grid measuring, for
each algorithm, the orthogonality error ``||Q.T Q - I||_2`` and the
relative residual ``||A - Q R||_F / ||A||_F``, against Householder QR as
the gold standard.  Breakdowns (Cholesky failure) are recorded rather
than raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cqr import cqr_sequential, cqr2_sequential, cqr3_sequential
from repro.core.shifted import shifted_cqr3_sequential
from repro.kernels.cholesky import CholeskyFailure
from repro.study import Axis, RawField, ResultTable, Study
from repro.utils.matgen import matrix_with_condition


def _householder(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(a)
    return q, r


#: Algorithm registry for the sweep: label -> callable(A) -> (Q, R).
ACCURACY_ALGORITHMS: Dict[str, Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]] = {
    "CholeskyQR": cqr_sequential,
    "CholeskyQR2": cqr2_sequential,
    "CholeskyQR3": cqr3_sequential,
    "sCholeskyQR3": shifted_cqr3_sequential,
    "Householder": _householder,
}


@dataclass(frozen=True)
class AccuracyRow:
    """One (algorithm, condition-number) measurement."""

    algorithm: str
    condition: float
    orthogonality: Optional[float]
    residual: Optional[float]
    failed: bool

    @property
    def ok(self) -> bool:
        return not self.failed


def measure(algorithm: Callable, a: np.ndarray) -> Tuple[Optional[float], Optional[float], bool]:
    """Run one algorithm; return ``(orthogonality, residual, failed)``."""
    try:
        q, r = algorithm(a)
    except CholeskyFailure:
        return None, None, True
    n = a.shape[1]
    orth = float(np.linalg.norm(q.T @ q - np.eye(n), 2))
    resid = float(np.linalg.norm(a - q @ np.triu(r), "fro") / np.linalg.norm(a, "fro"))
    return orth, resid, False


def accuracy_study(m: int = 1024, n: int = 64,
                   conditions: Sequence[float] = (1e1, 1e3, 1e5, 1e7, 1e9,
                                                  1e11, 1e13, 1e15),
                   algorithms: Optional[Dict[str, Callable]] = None,
                   seed: int = 1234, mode: str = "geometric",
                   name: Optional[str] = None) -> Study:
    """The stability-ladder campaign (experiment E12) as a Study.

    Axes are the condition-number ladder and the sequential algorithm
    registry; metrics are the orthogonality error, the relative
    residual, and whether the Cholesky step broke down.  Test matrices
    are drawn from one shared rng stream in condition order (matching
    the historical sweep exactly), so a given ``seed`` reproduces the
    same ladder bit-for-bit.
    """
    algorithms = ACCURACY_ALGORITHMS if algorithms is None else algorithms
    matrices: Dict[float, np.ndarray] = {}

    def matrix_for(cond: float) -> np.ndarray:
        # Lazily generate the whole ladder on first use -- one shared rng
        # stream consumed in condition order keeps every matrix identical
        # to the historical sweep's, while a fully-resumed campaign
        # (whose evaluator never runs) skips the generation entirely.
        if not matrices:
            rng = np.random.default_rng(seed)
            for c in conditions:
                matrices[c] = matrix_with_condition(m, n, c, rng, mode=mode)
        return matrices[cond]

    def evaluate(point: Dict[str, object]) -> dict:
        algo = algorithms[point["algorithm"]]
        orth, resid, failed = measure(algo, matrix_for(point["condition"]))
        return {"orthogonality": orth, "residual": resid, "failed": failed}

    return Study(
        name=name or f"accuracy-{m}x{n}",
        description=f"stability ladder, {m} x {n}, kappa sweep",
        axes=(Axis("condition", tuple(conditions)),
              Axis("algorithm", tuple(algorithms))),
        metrics=(RawField("orthogonality", "{:.2e}"),
                 RawField("residual", "{:.2e}"),
                 RawField("failed", "{}")),
        evaluate=evaluate,
        params={"m": m, "n": n, "seed": seed, "sv_mode": mode})


def rows_from_table(table: ResultTable) -> List[AccuracyRow]:
    """An accuracy study's table as an :class:`AccuracyRow` list."""
    rows: List[AccuracyRow] = []
    for row in table.rows:
        if not row.ok:
            continue
        rows.append(AccuracyRow(algorithm=row.point["algorithm"],
                                condition=row.point["condition"],
                                orthogonality=row.values["orthogonality"],
                                residual=row.values["residual"],
                                failed=row.values["failed"]))
    return rows

