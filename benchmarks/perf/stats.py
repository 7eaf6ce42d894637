"""Percentiles, quartiles and spreads shared by the harness and ``compare``.

Latency percentiles are Harrell-Davis estimates: a Beta-weighted mean of
all order statistics, centred on the percentile's rank.  The workloads
mix operations of different sizes, so a single order statistic jumps
between neighbouring operations from run to run; the weighted mean moves
much less and still estimates the same percentile.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

#: Tail candidates in per-mille, highest first (p99.9 ... p50).
TAIL_PER_MILLE = (999, 990, 950, 900, 750, 500)
#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, per_mille: int) -> int:
    """Nearest-rank position (1-based) of a percentile; exact integer ceil."""
    return max(1, -(-per_mille * n // 1000))


def samples_beyond(n: int, per_mille: int) -> int:
    """How many of *n* samples lie beyond the percentile's nearest rank."""
    return n - _rank(n, per_mille)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def percentile(samples: Sequence[float], per_mille: int) -> float:
    """Harrell-Davis estimate of a percentile (given in per-mille)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    q = per_mille / 1000
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf: List[float] = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def tail_percentile(samples: Sequence[float]) -> Tuple[int, float]:
    """``(per_mille, value)`` of the highest percentile with enough samples beyond.

    Refuses (``ValueError``) when even the median has fewer than
    :data:`MIN_BEYOND` samples beyond it: a tail read off fewer samples
    is noise.
    """
    n = len(samples)
    for per_mille in TAIL_PER_MILLE:
        if samples_beyond(n, per_mille) >= MIN_BEYOND:
            return per_mille, percentile(samples, per_mille)
    raise ValueError(f"{n} samples: no percentile has {MIN_BEYOND} samples "
                     f"beyond it")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
