"""Run results shared by every dispatch layer.

:class:`QRRun` is the single result type every run returns --
:meth:`repro.Session.run`, ``Session.factor``, batch runs, and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.tuning import GridShape
from repro.costmodel.ledger import CostReport


@dataclass(frozen=True)
class Grid2DShape:
    """A ``pr x pc`` process grid used by the 2D baselines.

    The CA family describes its grid with :class:`~repro.core.tuning.GridShape`
    (``c x d x c``); ScaLAPACK-style algorithms are 2D and carry this
    shape instead, so :attr:`QRRun.grid` is never ``None`` for a
    successful run.
    """

    pr: int
    pc: int

    @property
    def procs(self) -> int:
        return self.pr * self.pc

    def __str__(self) -> str:
        return f"{self.pr}x{self.pc}"


#: Either grid family an algorithm may run on.
AnyGridShape = Union[GridShape, Grid2DShape]


@dataclass
class QRRun:
    """Result of a high-level QR run: factors plus the cost report.

    ``q @ r`` reconstructs the input; ``report`` carries per-rank
    message/word/flop maxima and the BSP critical-path time under the
    machine preset the run was configured with.  Symbolic (cost-only)
    runs have ``q is None`` and ``r is None`` -- only the report is
    meaningful.
    """

    q: Optional[np.ndarray]
    r: Optional[np.ndarray]
    report: CostReport
    grid: Optional[AnyGridShape] = None

    @property
    def is_numeric(self) -> bool:
        """Whether the run produced factors (False for symbolic runs)."""
        return self.q is not None

    def orthogonality_error(self) -> float:
        """``||Q^T Q - I||_2`` -- the paper's notion of lost orthogonality."""
        if self.q is None:
            raise ValueError("symbolic run has no Q factor")
        n = self.q.shape[1]
        return float(np.linalg.norm(self.q.T @ self.q - np.eye(n), 2))

    def residual_error(self, a: np.ndarray) -> float:
        """Relative residual ``||A - QR||_F / ||A||_F``."""
        if self.q is None or self.r is None:
            raise ValueError("symbolic run has no factors")
        return float(np.linalg.norm(a - self.q @ self.r, "fro")
                     / np.linalg.norm(a, "fro"))
