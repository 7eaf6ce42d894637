"""Distributed elementwise operations (no communication, local flops only).

These wrap the local kernels over every block of a :class:`DistMatrix` and
charge each owning rank's ledger -- the distributed counterparts of the
``axpy``-class lines in the paper's per-line cost tables (e.g. Algorithm 3
line 10, ``Z <- A22 - U``, and line 13, ``W <- -Y22``).

The cyclic layout is uniform (every rank's local block has the same
shape), so the flop count is identical across ranks and is charged through
one vectorized machine call; the kernel itself runs once per *distinct*
block object, which collapses to a single invocation on shared-block
symbolic matrices.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.kernels.blas import local_add, local_neg, local_scale, local_sub
from repro.utils.validation import require
from repro.vmpi.datatypes import Block
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.machine import VirtualMachine


def _check_conformance(a: DistMatrix, b: DistMatrix) -> None:
    require(a.grid.matches(b.grid), "elementwise operands must share a grid")
    require((a.m, a.n) == (b.m, b.n),
            f"elementwise shape mismatch: {a.m}x{a.n} vs {b.m}x{b.n}")


def _map_charged(vm: VirtualMachine, a: DistMatrix, phase: str,
                 kernel: Callable[..., Tuple[Block, float]],
                 b: Optional[DistMatrix] = None) -> DistMatrix:
    """Apply *kernel* blockwise, charging every rank's (uniform) flops at once."""
    shared = (a.shared_block,) if b is None else (a.shared_block, b.shared_block)
    if None not in shared:
        out, flops = kernel(*shared)
        vm.charge_flops_group(a.grid.all_ranks_array, flops, phase)
        return DistMatrix.shared(a.grid, a.m, a.n, out)
    blocks: Dict[int, Block] = {}
    memo: Dict[Tuple[int, ...], Tuple[Block, float]] = {}
    flops = 0.0
    for rank, blk in a.blocks.items():
        args = (blk,) if b is None else (blk, b.blocks[rank])
        key = tuple(map(id, args))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = kernel(*args)
        blocks[rank] = hit[0]
        flops = hit[1]
    ranks = np.fromiter(a.blocks.keys(), dtype=np.intp, count=len(a.blocks))
    vm.charge_flops_group(ranks, flops, phase)
    return DistMatrix(a.grid, a.m, a.n, blocks)


def dist_add(vm: VirtualMachine, a: DistMatrix, b: DistMatrix, phase: str) -> DistMatrix:
    """``A + B`` blockwise; one flop per local entry per rank."""
    _check_conformance(a, b)
    return _map_charged(vm, a, phase, local_add, b)


def dist_sub(vm: VirtualMachine, a: DistMatrix, b: DistMatrix, phase: str) -> DistMatrix:
    """``A - B`` blockwise (Algorithm 3 line 10)."""
    _check_conformance(a, b)
    return _map_charged(vm, a, phase, local_sub, b)


def dist_neg(vm: VirtualMachine, a: DistMatrix, phase: str) -> DistMatrix:
    """``-A`` blockwise (Algorithm 3 line 13)."""
    return _map_charged(vm, a, phase, local_neg)


def dist_scale(vm: VirtualMachine, a: DistMatrix, scalar: float, phase: str) -> DistMatrix:
    """``scalar * A`` blockwise."""
    return _map_charged(vm, a, phase,
                        lambda blk: local_scale(blk, scalar))
