"""Processor-grid selection for CA-CQR2 (Section III-B).

The tunable ``c x d x c`` grid is the paper's central knob: ``c = 1`` is
1D-CQR2 (minimal synchronization, non-scalable bandwidth/compute),
``c = P**(1/3)`` is 3D-CQR2 (fully scalable, maximal synchronization), and
the communication-optimal interior point matches the grid to the matrix
aspect ratio, ``m/d = n/c``.

Two selectors are provided:

* :func:`optimal_grid` -- snap the paper's closed-form optimum
  ``c = (P n / m)**(1/3)`` to the nearest feasible grid;
* :func:`feasible_grids` -- enumerate every ``(c, d)`` with ``P = c**2 d``,
  ``c | d``, and the divisibility the cyclic layout needs.

The model-driven pick -- the feasible grid minimizing modeled time on a
machine -- is the planner's job: :class:`repro.plan.Planner` restricted to
``algorithms=("ca_cqr2",)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.cfr3d import default_base_case
from repro.utils.validation import check_positive_int, require


@dataclass(frozen=True)
class GridShape:
    """A feasible ``c x d x c`` grid for a given problem."""

    c: int
    d: int

    @property
    def procs(self) -> int:
        return self.c * self.c * self.d

    @property
    def subcubes(self) -> int:
        return self.d // self.c

    def __str__(self) -> str:
        return f"{self.c}x{self.d}x{self.c}"


def inverse_depth_to_base_case(n: int, c: int, inverse_depth: int) -> int:
    """Map the paper's ``InverseDepth`` tuple entry to a CFR3D cutoff ``n0``.

    ``InverseDepth = 0`` is the bandwidth-optimal default ``n0 ~ n/c**2``;
    each additional level halves the base case (computing the inverse at
    one more recursion level), trading ~2x the synchronization of the
    deepest level for less redundant base-case compute.  The result is
    clamped to remain a multiple of ``c`` so base-case blocks exist on
    every rank.
    """
    check_positive_int(n, "n")
    check_positive_int(c, "c")
    require(inverse_depth >= 0, f"inverse_depth must be >= 0, got {inverse_depth}")
    n0 = default_base_case(n, c)
    for _ in range(inverse_depth):
        if n0 % 2 == 0 and (n0 // 2) % c == 0:
            n0 //= 2
        else:
            break
    return n0


def grid_is_feasible(m: int, n: int, shape: GridShape) -> bool:
    """Divisibility checks the cyclic layout needs (see :class:`DistMatrix`)."""
    c, d = shape.c, shape.d
    if d % c != 0:
        return False
    if m % d != 0 or n % c != 0:
        return False
    # CFR3D needs at least one base-case row per face processor.
    if n < c:
        return False
    return True


def feasible_grids(m: int, n: int, procs: int) -> List[GridShape]:
    """All grids ``c x d x c`` with ``c**2 d = procs`` usable for ``m x n``.

    Ordered by increasing ``c`` (1D-most first); ``c`` stops at ``n``, as
    :func:`grid_is_feasible` requires, so a huge *procs* costs nothing.
    """
    check_positive_int(procs, "procs")
    out: List[GridShape] = []
    c = 1
    while c <= n and c * c <= procs:
        if procs % (c * c) == 0:
            d = procs // (c * c)
            shape = GridShape(c=c, d=d)
            if d >= c and grid_is_feasible(m, n, shape):
                out.append(shape)
        c += 1
    return out


def optimal_grid(m: int, n: int, procs: int) -> GridShape:
    """The feasible grid nearest the paper's ``m/d = n/c`` optimum.

    Among feasible grids, minimizes the log-distance of ``c`` to the
    real-valued optimum ``(P n / m)**(1/3)``.
    """
    import math

    grids = feasible_grids(m, n, procs)
    require(len(grids) > 0,
            f"no feasible c x d x c grid for {m}x{n} on P={procs}")
    c_star = max(1.0, (procs * n / m) ** (1.0 / 3.0))
    return min(grids, key=lambda g: abs(math.log(g.c / c_star)))
