"""The CholeskyQR family's one closed form: the paper's per-line cost tables.

The paper states each algorithm's cost line by line (Table II for CFR3D,
Tables III/IV for 1D-CQR/CQR2, Tables V/VI for CA-CQR/CQR2).  This module
is the repository's only closed form for those algorithms and for their
building block MM3D (their transposes are lines of the tables that run
them).  Every ``*_lines`` function takes scalars or 1-D arrays of
candidate parameters -- one *lane* per candidate, as in
:mod:`repro.costmodel.batch` -- and returns :data:`Lines`: one
``(3, N)`` float64 array of per-lane ``(messages, words, flops)`` per
virtual-MPI phase name, in the order the executed algorithm first
charges them.  A line is the busiest rank's cost
of that phase accumulated over the whole run (over every CFR3D recursion
level), and equals the executed ledger's ``phase_total`` bit for bit; the
test suite asserts ``==`` over a lattice of shapes and grids.

Everything else derives from the lines:

* :func:`total` -- the per-lane critical-path cost, the lines added in
  table order.  The planner's screen is ``total(ca_cqr2_lines(...))``
  (:meth:`~repro.engine.registry.Solver.screen_costs`);
* :func:`lane_cost` -- one lane of a ``(3, N)`` array as a
  :class:`~repro.costmodel.ledger.Cost`: a scalar cost is lane 0 of a
  batch of one.

Every lane is validated: a non-integral or non-positive parameter, a
grid extent that does not divide the matrix, or a CFR3D recursion that
cannot halve onto the grid raises :class:`ValueError` naming the lanes.  The arrays of one table may be shared
between keys (CA-CQR2's two passes are the same lines); do not modify
them in place.

Phase keys match the executed algorithms' labels:

========================  =====================================
Table II (CFR3D) line     phase suffix
========================  =====================================
2 (base-case Allgather)   ``basecase.allgather``
3 (base-case CholInv)     ``basecase.cholinv``
6, 8 (transposes)         ``transpose``
7 (L21 MM3D)              ``mm3d-l21``
9 (L21 L21^T MM3D)        ``mm3d-l21lt``
10, 13 (elementwise)      ``schur``
12 (U MM3D)               ``mm3d-u``
14 (Y21 MM3D)             ``mm3d-y21``
========================  =====================================
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.costmodel.batch import (
    FLOPS,
    allgather_batch,
    allreduce_batch,
    bcast_batch,
    int_lanes,
    reduce_batch,
    transpose_batch,
)
from repro.costmodel.ledger import Cost
from repro.kernels import flops as fl

#: Phase name -> ``(3, N)`` per-lane ``(messages, words, flops)``.
Lines = Dict[str, np.ndarray]

#: Table II's lines in CFR3D's first-charge order.
_CFR3D_LINES = ("basecase.allgather", "basecase.cholinv", "transpose",
               "mm3d-l21", "mm3d-l21lt", "schur", "mm3d-u", "mm3d-y21")
_MM3D_ROWS = [_CFR3D_LINES.index(k) for k in ("mm3d-l21", "mm3d-l21lt",
                                             "mm3d-u", "mm3d-y21")]


def _check(bad: np.ndarray, message: str) -> None:
    if np.any(bad):
        raise ValueError(f"{message} (candidate lanes {np.flatnonzero(bad).tolist()})")


def _flops(values: np.ndarray) -> np.ndarray:
    line = np.zeros((3, len(values)))
    line[FLOPS] = values
    return line


def _cholinv_flops(n: np.ndarray) -> np.ndarray:
    nf = n.astype(np.float64)
    return (2.0 / 3.0) * nf ** 3 + (1.0 / 3.0) * nf ** 3


def _by_level(costs: np.ndarray, shape) -> np.ndarray:
    """A level-major ``(3, depth * N)`` cost array as ``(depth, 3, N)``."""
    return costs.reshape(3, *shape).transpose(1, 0, 2)


def total(lines: Lines) -> np.ndarray:
    """Per-lane critical-path cost: the lines added one by one in table order."""
    out = np.zeros_like(next(iter(lines.values())))
    for line in lines.values():
        out += line
    return out


def lane_cost(costs: np.ndarray, lane: int = 0) -> Cost:
    """Lane *lane* of a ``(3, N)`` cost array as a :class:`Cost`."""
    return Cost(*costs[:, lane].tolist())


def mm3d_lines(m, k, n, p, flop_fraction: float = 1.0,
               prefix: str = "mm3d") -> Lines:
    """MM3D of ``(m x k) @ (k x n)`` on a cubic ``p**3`` grid (Algorithm 1).

    Per rank: a row broadcast of the ``(m/p)(k/p)`` panel, a column
    broadcast of ``(k/p)(n/p)``, the local GEMM, and a depth Allreduce of
    ``(m/p)(n/p)``.  ``flop_fraction`` is the executed path's
    structure-aware flop charge (TRMM = 1/2, triangular-triangular = 1/6).
    """
    m, k, n, p = int_lanes(m=m, k=k, n=n, p=p)
    _check((m % p != 0) | (k % p != 0) | (n % p != 0),
           "MM3D dims must be divisible by the grid extent p")
    return _mm3d(m // p, k // p, n // p, p, flop_fraction, prefix)


def _mm3d(ml, kl, nl, p, flop_fraction: float, prefix: str) -> Lines:
    """MM3D's lines from the local block extents ``m/p``, ``k/p``, ``n/p``."""
    return {f"{prefix}.bcast-a": bcast_batch(ml * kl, p),
            f"{prefix}.bcast-b": bcast_batch(kl * nl, p),
            f"{prefix}.local-mm": _flops((2.0 * ml * nl * kl) * flop_fraction),
            f"{prefix}.allreduce": allreduce_batch(ml * nl, p)}


def cfr3d_lines(n, p, base_case_size, prefix: str = "cfr3d") -> Lines:
    """Table II: CFR3D of ``n x n`` on a ``p**3`` grid with cutoff ``n0``.

    Algorithm 3 halves ``n`` until it is at most ``n0``; each halving must
    split evenly onto the grid.  The base case is a slice Allgather of the
    base-size submatrix over ``p**2`` processors plus a redundant CholInv;
    each recursive level runs two half-size calls, two transposes, four
    half-size MM3D calls and two elementwise passes.
    """
    return _cfr3d(*int_lanes(n=n, p=p, base_case_size=base_case_size), prefix)


def _cfr3d(n, p, n0, prefix: str) -> Lines:
    # The recursion depth is the number of halvings that bring n down to
    # n0 or below.  Every half size must split onto the grid; the smallest
    # one decides that, since the larger ones are its multiples.
    levels = np.where(n > n0, np.ceil(np.log2(n / n0)), 0).astype(np.int64)
    size = n >> levels
    _check((levels > 0) & (((size << levels) != n) | (size % p != 0)),
           "CFR3D cannot recurse: n must halve evenly onto the grid down to n0")
    # Each level's charges, for every level at once: level L + 1 recurses
    # on the base size times 2**L (extent 1 where a lane has no level
    # L + 1; those entries are never added).
    depth = int(levels.max(initial=0))
    shape = (depth, len(n))
    live = levels > np.arange(depth)[:, None]
    half = (np.where(live, size << np.arange(depth)[:, None], p) // p).ravel()
    procs = np.tile(p, depth)
    step = np.zeros((depth, len(_CFR3D_LINES), 3, len(n)))
    step[:, 2] = _by_level(2.0 * transpose_batch(half * half, procs), shape)
    step[:, _MM3D_ROWS] = _by_level(
        total(_mm3d(half, half, half, procs, 1.0, prefix)), shape)[:, None]
    step[:, 5, FLOPS] = 2.0 * (half * half).astype(np.float64).reshape(shape)
    # The masked level loop, bottom-up: a level doubles the lines of the
    # lanes that recurse that high (two half-size calls) and adds its
    # charges; all eight lines move together.
    acc = np.zeros((len(_CFR3D_LINES), 3, len(n)))
    acc[0] = allgather_batch(size * size, p * p)
    acc[1, FLOPS] = _cholinv_flops(size)
    for level in range(depth):
        acc = np.where(live[level], 2.0 * acc + step[level], acc)
    return {f"{prefix}.{key}": line for key, line in zip(_CFR3D_LINES, acc)}


def cqr_1d_lines(m, n, procs, prefix: str = "cqr1d") -> Lines:
    """Table III: 1D-CQR (Algorithm 6) on a 1D grid of ``procs`` processors."""
    return _cqr_1d(*int_lanes(m=m, n=n, procs=procs), prefix)


def _cqr_1d(m, n, p, prefix: str) -> Lines:
    _check(m % p != 0, "1D layout needs P | m")
    mloc = m // p
    return {f"{prefix}.syrk": _flops((mloc * n * n).astype(np.float64)),
            f"{prefix}.allreduce": allreduce_batch(n * n, p),
            f"{prefix}.cholinv": _flops(_cholinv_flops(n)),
            f"{prefix}.apply-rinv": _flops((2.0 * mloc * n * n) * fl.TRMM_FRACTION)}


def _passes(single: Lines, prefix: str) -> Lines:
    """Two passes of the same lines, under ``<prefix>.pass1`` and ``.pass2``."""
    cut = len(prefix) + len(".pass1")
    lines = dict(single)
    lines.update((f"{prefix}.pass2{key[cut:]}", line) for key, line in single.items())
    return lines


def cqr2_1d_lines(m, n, procs, prefix: str = "cqr2-1d") -> Lines:
    """Table IV: 1D-CQR2 (Algorithm 7), two passes plus the ``R2 R1`` merge."""
    m, n, p = int_lanes(m=m, n=n, procs=procs)
    lines = _passes(_cqr_1d(m, n, p, f"{prefix}.pass1"), prefix)
    lines[f"{prefix}.merge-r"] = _flops(n.astype(np.float64) ** 3 / 3.0)
    return lines


def ca_cqr_lines(m, n, c, d, base_case_size, prefix: str = "cacqr") -> Lines:
    """Table V: CA-CQR (Algorithm 8) on a ``c x d x c`` grid.

    Per rank: the five-step Gram dance (row broadcast, local ``W.T A``
    at the symmetric rate, contiguous-group reduce, strided allreduce over
    the ``d/c`` group roots, depth broadcast), then the per-subcube CFR3D,
    the ``R**-T -> R**-1`` transpose, the Q-forming MM3D at the TRMM rate,
    and the transpose that returns ``R = L.T``.
    """
    return _ca_cqr(*int_lanes(m=m, n=n, c=c, d=d, base_case_size=base_case_size),
                   prefix)


def _ca_cqr(m, n, c, d, n0, prefix: str) -> Lines:
    _check((d % c != 0) | (m % d != 0) | (n % c != 0),
           "CA-CQR grids need c | d, d | m and c | n")
    mloc, nloc = m // d, n // c
    lines = {
        f"{prefix}.bcast-w": bcast_batch(mloc * nloc, c),
        f"{prefix}.local-gram": _flops((2.0 * nloc * nloc * mloc) / 2.0),
        f"{prefix}.reduce-group": reduce_batch(nloc * nloc, c),
        f"{prefix}.allreduce-roots": allreduce_batch(nloc * nloc, d // c),
        f"{prefix}.bcast-depth": bcast_batch(nloc * nloc, c),
    }
    lines.update(_cfr3d(n, c, n0, f"{prefix}.cfr3d"))
    lines[f"{prefix}.form-q.transpose"] = transpose_batch(nloc * nloc, c)
    lines[f"{prefix}.form-q.mm3d"] = total(
        _mm3d(mloc, nloc, nloc, c, fl.TRMM_FRACTION, prefix))
    lines[f"{prefix}.form-r.transpose"] = transpose_batch(nloc * nloc, c)
    return lines


def ca_cqr2_lines(m, n, c, d, base_case_size, prefix: str = "cacqr2") -> Lines:
    """Table VI: CA-CQR2 (Algorithm 9), two CA-CQR passes plus the
    per-subcube MM3D merge ``R = R2 R1``."""
    m, n, c, d, n0 = int_lanes(m=m, n=n, c=c, d=d, base_case_size=base_case_size)
    lines = _passes(_ca_cqr(m, n, c, d, n0, f"{prefix}.pass1"), prefix)
    nloc = n // c
    lines[f"{prefix}.merge-r.mm3d"] = total(
        _mm3d(nloc, nloc, nloc, c, fl.TRI_TRI_FRACTION, prefix))
    return lines


def format_line_table(title: str, expected: Lines,
                      measured: Optional[Dict[str, Cost]] = None) -> str:
    """Render lane 0 of a per-line table (optionally measured-vs-expected)."""
    lines = [title, "=" * len(title)]
    header = f"{'phase':<38} {'msgs':>10} {'words':>12} {'flops':>14}"
    if measured is not None:
        header += f" {'match':>6}"
    lines.append(header)
    for key in sorted(expected):
        e = lane_cost(expected[key])
        row = f"{key:<38} {e.messages:>10.0f} {e.words:>12.0f} {e.flops:>14.0f}"
        if measured is not None:
            row += f" {'OK' if measured.get(key, Cost()) == e else 'DIFF':>6}"
        lines.append(row)
    return "\n".join(lines)
