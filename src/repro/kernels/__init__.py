"""Sequential computational kernels (BLAS/LAPACK stand-ins) with flop accounting.

These are the local building blocks of Section II-A: ``axpy``, ``MM``,
``Syrk``, ``Chol``, plus the triangular inverse and the combined
``CholInv`` of Algorithm 2, and a sequential Householder QR used by the
baselines.

Each kernel except the numeric-only QR is backend-generic: it accepts a
:class:`~repro.vmpi.datatypes.Block` (numeric or symbolic) and returns
``(result_block, flops)``.  The caller --
a distributed algorithm -- charges the flops to the owning rank's ledger.
Flop-count conventions follow the paper exactly (see
:mod:`repro.kernels.flops`).
"""

from repro.kernels.flops import (
    mm_flops,
    syrk_flops,
    chol_flops,
    trinv_flops,
    householder_flops,
    elementwise_flops,
)
from repro.kernels.blas import (
    local_mm,
    local_mm_tn,
    local_syrk,
    local_sub,
    local_neg,
)
from repro.kernels.cholesky import (
    local_chol,
    local_trinv,
    local_cholinv,
    cholinv_recursive,
)
from repro.kernels.householder import signed_qr

__all__ = [
    "mm_flops",
    "syrk_flops",
    "chol_flops",
    "trinv_flops",
    "householder_flops",
    "elementwise_flops",
    "local_mm",
    "local_mm_tn",
    "local_syrk",
    "local_sub",
    "local_neg",
    "local_chol",
    "local_trinv",
    "local_cholinv",
    "cholinv_recursive",
    "signed_qr",
]
