"""CAQR cost model: communication-avoiding 2D QR (Demmel et al., ref. [5]).

CAQR replaces ``PGEQRF``'s column-by-column panel factorization with TSQR
panels, cutting the latency from ``O(n log pr)`` to ``O((n/b) log pr)``
while keeping the 2D bandwidth profile.  The paper positions CQR2-family
algorithms against this line of work (Section I: a logarithmic factor less
synchronization than "other communication-avoiding algorithms [5]"), and
CA-CQR2's 3D bandwidth ``(mn**2/P)**(2/3)`` undercuts CAQR's 2D
``~sqrt(mn**3/P)`` by ``Theta(P**(1/6))``.

Only the cost model is provided (the executed TSQR-panel machinery lives
in :mod:`repro.baselines.scalapack_qr`, whose panel factorization *is*
TSQR); leading terms follow the CAQR paper's Table with our butterfly
collective constants:

* messages: ``(n/b) * (3 log2 pr + 2 log2 pc)``
* words:    ``(b*n/2 + (3/2) n**2/pc) log2 pr + 2 (mn - n**2/2)/pr``
* flops:    ``(2mn**2 - (2/3)n**3)/P + (2/3) b**2 n log2 pr``
            ``+ b n (3m - n)/(2 pr)`` (TSQR-tree and panel terms)
"""

from __future__ import annotations

import math

from repro.costmodel.ledger import Cost
from repro.kernels import flops as fl
from repro.utils.validation import check_positive_int, require


def _log2p(p: int) -> float:
    return math.ceil(math.log2(p)) if p > 1 else 0.0


def caqr_cost(m: int, n: int, pr: int, pc: int, block_size: int) -> Cost:
    """Per-processor critical-path cost of CAQR on a ``pr x pc`` grid."""
    check_positive_int(pr, "pr")
    check_positive_int(pc, "pc")
    check_positive_int(block_size, "block_size")
    require(m >= n, f"CAQR model expects m >= n, got {m}x{n}")
    b = min(block_size, n)
    p = pr * pc
    panels = math.ceil(n / b)
    cost = Cost()
    cost.add(messages=panels * (3.0 * _log2p(pr) + 2.0 * _log2p(pc)))
    cost.add(words=(b * n / 2.0 + 1.5 * n * n / pc) * _log2p(pr)
             + 2.0 * (m * n - n * n / 2.0) / pr)
    cost.add(flops=fl.householder_flops(m, n) / p
             + (2.0 / 3.0) * b * b * n * _log2p(pr)
             + b * n * (3.0 * m - n) / (2.0 * pr))
    return cost

