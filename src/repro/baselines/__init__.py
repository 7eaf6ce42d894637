"""Baseline QR factorizations the paper compares against or builds on.

* :mod:`repro.baselines.scalapack_qr` -- a ScaLAPACK-``PGEQRF``-like 2D
  block QR: executed distributed implementation (TSQR panel factorization +
  blocked trailing update on a ``pr x pc`` grid) plus the standard analytic
  cost model used to reproduce the paper's ScaLAPACK curves at scale.
* :mod:`repro.baselines.tsqr` -- TSQR (Demmel et al., reference [5]): the
  communication-optimal tall-skinny QR that 1D-CQR2 is benchmarked against
  in the literature, with both an executed implementation and a binary-tree
  cost model.
"""

from repro.baselines.scalapack_qr import scalapack_qr, pgeqrf_cost, default_scalapack_grid
from repro.baselines.tsqr import tsqr_1d, tsqr_cost
from repro.baselines.caqr import caqr_cost

__all__ = [
    "scalapack_qr",
    "pgeqrf_cost",
    "default_scalapack_grid",
    "tsqr_1d",
    "tsqr_cost",
    "caqr_cost",
]
