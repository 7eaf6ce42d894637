"""CFR3D: 3D recursive Cholesky factorization with triangular inverse (Alg. 3).

Given a symmetric positive definite ``n x n`` matrix ``A`` cyclically
distributed (and slice-replicated) on a cubic ``p x p x p`` grid, computes
both ``L`` with ``A = L L.T`` and ``Y = L**-1``, distributed the same way.

The recursion embeds Algorithm 2's two coupled recurrences:

.. math::
    L_{11} &= \\mathrm{Chol}(A_{11}),  &  L_{21} &= A_{21} Y_{11}^T, \\\\
    L_{22} &= \\mathrm{Chol}(A_{22} - L_{21} L_{21}^T), &
    Y_{21} &= -Y_{22} (L_{21} Y_{11}),

with quadrants handled *in place* on the cyclic layout (no redistribution:
a global quadrant is a contiguous local half on every rank) and all
products computed by :func:`~repro.core.mm3d.mm3d` on the full grid.

Base case (``n <= n0``): ``Allgather`` the submatrix over each 2D slice,
then every processor computes ``CholInv`` redundantly (Algorithm 3 lines
1-3).  The base-case size ``n0`` trades synchronization for bandwidth
(Section II-D): the paper's choice ``n0 = n / p**2`` minimizes
communication, giving the Table I cost
``O(p**2 log p) alpha + O(n**2 / p**2) beta + O(n**3 / p**3) gamma``.

Both recursive calls (lines 5 and 11) factor an ``n/2 x n/2`` quadrant on
the same grid, so their charge schedules are identical.  A capture
(:func:`_cfr3d_program`) therefore records one recursion level at a
time: a level records its own ops and splices the memoized half-size
program for each recursive call
(:meth:`~repro.sched.recorder.ScheduleRecorder.extend`), so a cold
capture records ``log2(n/n0) + 1`` levels instead of ``2 n/n0 - 1``
recursion nodes, and equals a direct capture op for op.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.elementwise import dist_neg, dist_sub
from repro.core.mm3d import mm3d
from repro.costmodel import collectives as cc
from repro.kernels.cholesky import CholeskyFailure, local_cholinv
from repro.sched.program import ChargeProgram
from repro.sched.recorder import ScheduleRecorder
from repro.utils.validation import is_power_of_two, require
from repro.vmpi.datatypes import NumericBlock, SymbolicBlock
from repro.vmpi.distmatrix import DistMatrix, dist_transpose
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine

#: A recursive step of :func:`_cfr3d_recursive`: ``(vm, a, n0, phase) ->
#: (L, Y)`` for a half-size quadrant ``a``.
Step = Callable[[Optional[VirtualMachine], DistMatrix, int, str],
                Tuple[DistMatrix, DistMatrix]]


def default_base_case(n: int, p: int) -> int:
    """The communication-minimizing base-case size ``n0 = n / p**2``.

    Clamped so the base case is at least one row per face processor
    (``n0 >= p``) and at most ``n``; rounded to the nearest power-of-two
    divisor of ``n`` so the recursion halves cleanly.
    """
    require(n % p == 0, f"n={n} must be divisible by the grid extent p={p}")
    target = max(p, n // (p * p), 1)
    n0 = n
    while n0 // 2 >= target and n0 % 2 == 0 and (n0 // 2) % p == 0:
        n0 //= 2
    return n0


def _validate(a: DistMatrix, base_case_size: int) -> int:
    grid = a.grid
    require(grid.is_cubic, f"CFR3D requires a cubic grid, got dims {grid.dims}")
    require(a.m == a.n, f"CFR3D requires a square matrix, got {a.m}x{a.n}")
    n, p = a.n, grid.dim_x
    require(base_case_size >= 1, f"base_case_size must be >= 1, got {base_case_size}")
    require(n % base_case_size == 0 and is_power_of_two(n // base_case_size),
            f"n={n} must equal base_case_size={base_case_size} times a power of two")
    require(base_case_size % p == 0,
            f"base_case_size={base_case_size} must be divisible by grid extent p={p} "
            "so base-case blocks exist on every rank")
    return p


def cfr3d(vm: Optional[VirtualMachine], a: DistMatrix,
          base_case_size: Optional[int] = None,
          phase: str = "cfr3d") -> Tuple[DistMatrix, DistMatrix]:
    """Factor ``A = L L.T`` and invert ``L`` on a cubic grid.

    Parameters
    ----------
    vm:
        Virtual machine charged for all communication and computation, or
        ``None`` to compute without charging.
    a:
        Symmetric positive definite ``n x n`` :class:`DistMatrix` on a cubic
        grid, slice-replicated.
    base_case_size:
        Recursion cutoff ``n0``; defaults to :func:`default_base_case`.
        Must divide ``n`` with a power-of-two quotient and be a multiple of
        the grid extent.
    phase:
        Ledger phase prefix.  Sub-steps appear as ``<phase>.basecase.*``,
        ``<phase>.transpose``, ``<phase>.mm3d-l21`` / ``-l21lt`` / ``-u`` /
        ``-y21``, and ``<phase>.schur``.

    Returns
    -------
    (L, Y):
        Lower-triangular factor and its inverse, both distributed exactly
        like ``a`` (upper halves explicitly zero).
    """
    if base_case_size is None:
        base_case_size = default_base_case(a.n, a.grid.dim_x)
    _validate(a, base_case_size)
    return _cfr3d_recursive(vm, a, base_case_size, phase)


def _cfr3d_recursive(vm: Optional[VirtualMachine], a: DistMatrix, n0: int,
                     phase: str, recurse: Optional[Step] = None
                     ) -> Tuple[DistMatrix, DistMatrix]:
    """Algorithm 3 on *a*, its recursive calls (lines 5 and 11) taken by
    *recurse* -- by default the plain recursion."""
    if a.n <= n0:
        return _base_case(vm, a, phase)
    step = _cfr3d_recursive if recurse is None else recurse

    a11 = a.quadrant(0, 0)
    a21 = a.quadrant(1, 0)
    a22 = a.quadrant(1, 1)

    # Line 5: recurse on the leading quadrant.
    l11, y11 = step(vm, a11, n0, phase)

    # Lines 6-7: L21 = A21 @ Y11.T  (global transpose, then MM3D).
    w = dist_transpose(vm, y11, f"{phase}.transpose")
    l21 = mm3d(vm, a21, w, f"{phase}.mm3d-l21")

    # Lines 8-9: U = L21 @ L21.T.
    x = dist_transpose(vm, l21, f"{phase}.transpose")
    u = mm3d(vm, l21, x, f"{phase}.mm3d-l21lt")

    # Line 10: Schur complement Z = A22 - U.
    schur = dist_sub(vm, a22, u, f"{phase}.schur")

    # Line 11: recurse on the trailing quadrant.
    l22, y22 = step(vm, schur, n0, phase)

    # Lines 12-14: Y21 = (-Y22) @ (L21 @ Y11).
    u2 = mm3d(vm, l21, y11, f"{phase}.mm3d-u")
    w2 = dist_neg(vm, y22, f"{phase}.schur")
    y21 = mm3d(vm, w2, u2, f"{phase}.mm3d-y21")

    zero12 = _zero_like(a11)
    l = DistMatrix.assemble_quadrants(l11, zero12, l21, l22)
    y = DistMatrix.assemble_quadrants(y11, zero12, y21, y22)
    return l, y


@functools.lru_cache(maxsize=256)
def _cfr3d_program(c: int, n: int, base_case_size: int) -> ChargeProgram:
    """Compile CFR3D of an ``n x n`` matrix on a ``c x c x c`` template grid.

    Recorded under the phase prefix ``"@.cfr3d"`` and memoized per
    ``(c, n, n0)``, one level at a time: the level records only its own
    ops -- the base case, or two transposes, four MM3Ds, the Schur
    subtraction and the negation -- and splices the memoized
    ``(c, n/2, n0)`` program for each recursive call.  The result equals
    a direct capture of :func:`cfr3d` op for op, phase table included.
    Opens no span: it runs inside its caller's ``sched.capture`` span.
    Not verified on its own (``debug=False``): its ops are verified in
    the program its caller compiles.
    """
    rec = ScheduleRecorder(c * c * c)
    a = DistMatrix.symbolic(Grid3D.build(rec, c, c, c), n, n)
    _validate(a, base_case_size)

    def splice_half(_vm: Optional[VirtualMachine], half: DistMatrix, n0: int,
                    _phase: str) -> Tuple[DistMatrix, DistMatrix]:
        rec.extend(_cfr3d_program(c, half.n, n0))
        # Shape-only L and Y: the charges that read them read shapes only.
        out = DistMatrix.symbolic(half.grid, half.n, half.n)
        return out, out

    _cfr3d_recursive(rec, a, base_case_size, "@.cfr3d", recurse=splice_half)
    return rec.program(debug=False)


def _zero_like(template: DistMatrix) -> DistMatrix:
    """An all-zero DistMatrix matching *template* (the L/Y upper quadrant).

    Materializing explicit zeros costs neither communication nor charged
    flops; a real implementation simply would not store the upper half.
    Symbolic zeros are one shared shape-only block.
    """
    if template.data is None:
        return DistMatrix.shared(template.grid, template.m, template.n,
                                 template.shared_block)
    return DistMatrix.from_plane(template.grid, template.m, template.n,
                                 np.zeros(template.plane.shape))


def _base_case(vm: Optional[VirtualMachine], a: DistMatrix,
               phase: str) -> Tuple[DistMatrix, DistMatrix]:
    """Algorithm 3 lines 1-3: slice Allgather + redundant sequential CholInv.

    Every 2D slice's Allgather is one disjoint group and every rank's
    redundant CholInv is identical, so each is one vectorized machine
    call.  The slices hold one plane (:mod:`repro.vmpi.distmatrix`), so
    numerically the base case gathers it into the full submatrix, factors
    it once -- the flop charge still lands on every rank of every slice,
    matching the redundant computation of the real algorithm -- and
    scatters the cyclic partitions of ``L`` and ``Y`` back into planes.
    """
    grid = a.grid
    p = grid.dim_x
    n = a.n
    slice_size = grid.dim_x * grid.dim_y
    # Slices Pi[:, :, z] are disjoint across z and gather equal volumes.
    slices = grid.ranks.transpose(2, 1, 0).reshape(grid.dim_z, slice_size)
    gather = cc.allgather_cost(slice_size * a.local_rows * a.local_cols,
                               slice_size)
    _, _, flops = local_cholinv(SymbolicBlock((n, n)))

    def charge(gathered: int, factored: int) -> None:
        if vm is not None:
            vm.charge_comm_groups(slices[:gathered], gather,
                                  f"{phase}.basecase.allgather")
            vm.charge_flops_group(slices[:factored].reshape(-1), flops,
                                  f"{phase}.basecase.cholinv")

    if a.data is None:
        charge(grid.dim_z, grid.dim_z)
        shared = SymbolicBlock((n // p, n // p))
        return DistMatrix.shared(grid, n, n, shared), DistMatrix.shared(grid, n, n, shared)
    # Block (x, y) of the plane holds full[y::p, x::p].
    full = a.plane[:, :, 0].transpose(2, 1, 3, 0).reshape(n, n)
    try:
        l_full, y_full, _ = local_cholinv(NumericBlock(full))
    except CholeskyFailure:
        # Slice by slice, slice 0 -- identical to every other -- breaks
        # down first: it had gathered, and no slice had factored.
        charge(1, 0)
        raise
    charge(grid.dim_z, grid.dim_z)
    l_plane = _scatter_cyclic(l_full.data, p)  # type: ignore[attr-defined]
    y_plane = _scatter_cyclic(y_full.data, p)  # type: ignore[attr-defined]
    return (DistMatrix.from_plane(grid, n, n, l_plane),
            DistMatrix.from_plane(grid, n, n, y_plane))


def _scatter_cyclic(full: np.ndarray, p: int) -> np.ndarray:
    """The cyclic partitions ``full[y::p, x::p]`` as a ``[x, y]`` plane."""
    nb = full.shape[0] // p
    blocks = full.reshape(nb, p, nb, p).transpose(3, 1, 0, 2)
    return np.ascontiguousarray(blocks[:, :, None])
