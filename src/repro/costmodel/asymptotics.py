"""Leading-order cost expressions from Table I of the paper.

Each function returns the Table I ``(latency, bandwidth, flops)`` triple --
*leading-order terms without constants* -- for an ``m x n`` QR (or the
relevant substrate) on ``P`` processors.  They are used by experiment E1,
which fits the exact measured/closed-form costs against these shapes across
parameter sweeps and checks the scaling exponents, and by the grid
autotuner's documentation.

=============  =====================  =====================  ======================
algorithm      latency (alpha)        bandwidth (beta)       flops (gamma)
=============  =====================  =====================  ======================
MM3D           ``log P``              ``(mn+nk+mk)/P^(2/3)`` ``mnk/P``
CFR3D          ``P^(2/3) log P``      ``n^2/P^(2/3)``        ``n^3/P``
1D-CQR         ``log P``              ``n^2``                ``mn^2/P + n^3``
3D-CQR         ``P^(2/3) log P``      ``mn/P^(2/3)``         ``mn^2/P``
CA-CQR         ``c^2 log P``          ``mn/(dc) + n^2/c^2``  ``mn^2/(c^2 d) + n^3/c^3``
CA-CQR (opt)   ``(Pn/m)^(2/3) log P`` ``(mn^2/P)^(2/3)``     ``mn^2/P``
=============  =====================  =====================  ======================

CA-CQR2 matches CA-CQR asymptotically (a factor-2 constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AsymptoticCost:
    """A leading-order ``(latency, bandwidth, flops)`` triple (no constants)."""

    latency: float
    bandwidth: float
    flops: float


def _log2(p: float) -> float:
    return math.log2(p) if p > 1 else 1.0


def mm3d_asymptotic(m: float, n: float, k: float, p: float) -> AsymptoticCost:
    """Table I row "MM3D"."""
    return AsymptoticCost(
        latency=_log2(p),
        bandwidth=(m * n + n * k + m * k) / p ** (2.0 / 3.0),
        flops=m * n * k / p,
    )


def cfr3d_asymptotic(n: float, p: float) -> AsymptoticCost:
    """Table I row "CFR3D" (with the bandwidth-optimal base case ``n/P^(2/3)``)."""
    return AsymptoticCost(
        latency=p ** (2.0 / 3.0) * _log2(p),
        bandwidth=n * n / p ** (2.0 / 3.0),
        flops=n ** 3 / p,
    )


def cqr_1d_asymptotic(m: float, n: float, p: float) -> AsymptoticCost:
    """Table I row "1D-CQR"."""
    return AsymptoticCost(
        latency=_log2(p),
        bandwidth=n * n,
        flops=m * n * n / p + n ** 3,
    )


def cqr_3d_asymptotic(m: float, n: float, p: float) -> AsymptoticCost:
    """Table I row "3D-CQR"."""
    return AsymptoticCost(
        latency=p ** (2.0 / 3.0) * _log2(p),
        bandwidth=m * n / p ** (2.0 / 3.0),
        flops=m * n * n / p,
    )


def ca_cqr_asymptotic(m: float, n: float, c: float, d: float) -> AsymptoticCost:
    """Table I row "CA-CQR" on a ``c x d x c`` grid."""
    p = c * c * d
    bandwidth = n * n / (c * c)
    if c > 1:
        bandwidth += m * n / (d * c)
    return AsymptoticCost(
        latency=c * c * _log2(p),
        bandwidth=bandwidth,
        flops=m * n * n / (c * c * d) + n ** 3 / c ** 3,
    )


def ca_cqr_optimal_asymptotic(m: float, n: float, p: float) -> AsymptoticCost:
    """Table I's last row: CA-CQR with the optimal ``m/d = n/c`` grid."""
    return AsymptoticCost(
        latency=(p * n / m) ** (2.0 / 3.0) * _log2(p),
        bandwidth=(m * n * n / p) ** (2.0 / 3.0),
        flops=m * n * n / p,
    )
