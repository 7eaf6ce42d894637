"""Distributed elementwise operations (no communication, local flops only).

These wrap the local kernels over every block of a :class:`DistMatrix` and
charge each owning rank's ledger -- the distributed counterparts of the
``axpy``-class lines in the paper's per-line cost tables (e.g. Algorithm 3
line 10, ``Z <- A22 - U``, and line 13, ``W <- -Y22``).

The cyclic layout is uniform (every rank's local block has the same
shape), so the flop count is identical across ranks and is charged through
one vectorized machine call; numerically the kernel is one numpy ufunc
over the operands' stored planes (one per matrix, whatever the depth),
and symbolically one shared shape-only block.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.kernels.blas import local_neg, local_sub
from repro.utils.validation import require
from repro.vmpi.datatypes import Block, SymbolicBlock
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.machine import VirtualMachine


def _check_conformance(a: DistMatrix, b: DistMatrix) -> None:
    require(a.grid.matches(b.grid), "elementwise operands must share a grid")
    require((a.m, a.n) == (b.m, b.n),
            f"elementwise shape mismatch: {a.m}x{a.n} vs {b.m}x{b.n}")
    require(a.is_numeric == b.is_numeric,
            "numeric and symbolic blocks cannot be mixed in one run")


def _map_charged(vm: Optional[VirtualMachine], a: DistMatrix, phase: str,
                 kernel: Callable[..., Tuple[Block, float]],
                 op: Callable[..., np.ndarray],
                 *others: DistMatrix) -> DistMatrix:
    """Apply *op* to the stacked blocks, charging every rank's (uniform)
    flops at once (nothing when *vm* is ``None``).

    *kernel*, run once on shape-only blocks, gives the flop count and the
    symbolic result; *op* is its numpy ufunc over whole planes.
    """
    block = SymbolicBlock((a.local_rows, a.local_cols))
    out, flops = kernel(block, *[block] * len(others))
    if vm is not None:
        vm.charge_flops_group(a.grid.all_ranks_array, flops, phase)
    if a.data is None:
        return DistMatrix.shared(a.grid, a.m, a.n, out)
    return DistMatrix.from_plane(a.grid, a.m, a.n,
                                 op(a.plane, *(o.plane for o in others)))


def dist_sub(vm: Optional[VirtualMachine], a: DistMatrix, b: DistMatrix,
             phase: str) -> DistMatrix:
    """``A - B`` blockwise (Algorithm 3 line 10)."""
    _check_conformance(a, b)
    return _map_charged(vm, a, phase, local_sub, np.subtract, b)


def dist_neg(vm: Optional[VirtualMachine], a: DistMatrix, phase: str) -> DistMatrix:
    """``-A`` blockwise (Algorithm 3 line 13)."""
    return _map_charged(vm, a, phase, local_neg, np.negative)

