"""Distributed matrices: cyclic layout over a grid face, replicated over depth.

A :class:`DistMatrix` of global shape ``m x n`` on a grid with dims
``(dim_x, dim_y, dim_z)`` stores, at every rank ``Pi[x, y, z]``, the local
block ``A[y::dim_y, x::dim_x]`` of shape ``(m/dim_y, n/dim_x)``:

* ``y`` (grid's second axis) indexes the cyclic **row** partition,
* ``x`` (grid's first axis) indexes the cyclic **column** partition,
* ``z`` replicates the face (the paper keeps a copy of each operand on
  every 2D slice ``Pi[:, :, z]``).

The cyclic layout is load-bearing: the top-left ``n/2 x n/2`` quadrant of a
cyclically distributed matrix is exactly the top-left local half of every
block, so CFR3D's recursion (Algorithm 3) descends without redistribution.
:meth:`quadrant` exposes that.

Replication over ``z`` is a steady-state invariant -- algorithms may break
it for temporaries (e.g. MM3D's broadcast panels differ per slice) but
restore it on their outputs; :meth:`replication_spread` measures it for the
test suite.

**Shared-block invariant.**  A symbolic matrix is built by
:meth:`DistMatrix.shared` (or :meth:`DistMatrix.symbolic`): every rank
holds the same immutable shape-only block, stored as one
:class:`~repro.vmpi.datatypes.SharedBlockMap` over the grid's own rank
array.  Such a matrix costs O(1) Python objects whatever the rank count,
and every structural operation below (``is_numeric``, ``map_blocks``,
``assemble_quadrants``, ``dist_transpose``) takes an O(1) branch on it.
Per-rank dicts remain for numeric matrices, whose ranks own distinct
buffers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.costmodel import collectives as cc
from repro.utils.validation import require
from repro.vmpi.datatypes import (
    Block,
    NumericBlock,
    SharedBlockMap,
    SymbolicBlock,
    join_blocks,
)
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine


def _require_shared_shape(block: Block, expected: Tuple[int, int]) -> None:
    require(block.shape == expected,
            f"shared block has shape {block.shape}, expected {expected}")


def _check_rank_blocks(grid: Grid3D, blocks: Mapping[int, Block],
                       expected: Tuple[int, int]) -> None:
    """Every grid rank has a block, and each distinct block has the shape."""
    if blocks.keys() != grid.rank_set:
        for (x, y, z) in grid.coords():     # slow path: name the culprit
            r = grid.rank_at(x, y, z)
            require(r in blocks,
                    f"missing block for rank {r} at coords ({x},{y},{z})")
    distinct = set(map(id, blocks.values()))
    if len(distinct) == 1:
        _require_shared_shape(next(iter(blocks.values())), expected)
        return
    checked = set()
    for r, b in blocks.items():
        key = id(b)
        if key in checked:
            continue
        checked.add(key)
        require(b.shape == expected,
                f"block at rank {r} has shape {b.shape}, expected {expected}")


class DistMatrix:
    """An ``m x n`` matrix cyclically distributed over a grid face."""

    __slots__ = ("grid", "m", "n", "blocks")

    def __init__(self, grid: Grid3D, m: int, n: int,
                 blocks: Mapping[int, Block]):
        require(m % grid.dim_y == 0,
                f"rows {m} not divisible by grid row extent dim_y={grid.dim_y}")
        require(n % grid.dim_x == 0,
                f"cols {n} not divisible by grid col extent dim_x={grid.dim_x}")
        expected = (m // grid.dim_y, n // grid.dim_x)
        if (isinstance(blocks, SharedBlockMap)
                and blocks.ranks_array is grid.all_ranks_array):
            # Built over this grid's own rank array: coverage holds by
            # construction, and there is one block to check.
            _require_shared_shape(blocks.block, expected)
        else:
            _check_rank_blocks(grid, blocks, expected)
        self.grid = grid
        self.m = m
        self.n = n
        self.blocks = blocks

    # -- construction -------------------------------------------------------------

    @classmethod
    def shared(cls, grid: Grid3D, m: int, n: int, block: Block) -> "DistMatrix":
        """Symbolic matrix whose every rank holds the one shared *block*.

        O(1) whatever the rank count: the block shape is checked once and
        the per-rank mapping is a :class:`SharedBlockMap` over the grid's
        own rank array.  Only shape-only blocks may be shared; numeric
        ranks own distinct buffers.
        """
        require(not block.is_numeric,
                "only symbolic blocks can be shared across ranks")
        return cls(grid, m, n, SharedBlockMap(grid.all_ranks_array, block))

    @classmethod
    def on_grid(cls, grid: Grid3D, m: int, n: int,
                blocks: Mapping[int, Block]) -> "DistMatrix":
        """The matrix *grid* sees in a per-rank mapping covering (at least) it.

        A shared mapping stays shared; a per-rank dict is restricted to
        the grid's ranks.
        """
        if isinstance(blocks, SharedBlockMap):
            return cls.shared(grid, m, n, blocks.block)
        return cls(grid, m, n, {r: blocks[r] for r in grid.all_ranks()})

    @classmethod
    def from_global(cls, grid: Grid3D, array: np.ndarray) -> "DistMatrix":
        """Distribute a global numpy array cyclically, replicated over depth."""
        arr = np.asarray(array, dtype=np.float64)
        require(arr.ndim == 2, f"need a 2D array, got ndim={arr.ndim}")
        m, n = arr.shape
        blocks: Dict[int, Block] = {}
        for (x, y, z) in grid.coords():
            blocks[grid.rank_at(x, y, z)] = NumericBlock(
                np.ascontiguousarray(arr[y::grid.dim_y, x::grid.dim_x]))
        return cls(grid, m, n, blocks)

    @classmethod
    def symbolic(cls, grid: Grid3D, m: int, n: int) -> "DistMatrix":
        """Shape-only distributed matrix for cost simulation.

        Every rank's local block is the *same* shared
        :class:`SymbolicBlock` -- shape-only blocks are immutable, so a
        million-rank symbolic matrix costs one block object.
        """
        require(m % grid.dim_y == 0, f"rows {m} not divisible by dim_y={grid.dim_y}")
        require(n % grid.dim_x == 0, f"cols {n} not divisible by dim_x={grid.dim_x}")
        return cls.shared(grid, m, n, SymbolicBlock((m // grid.dim_y, n // grid.dim_x)))

    # -- geometry -----------------------------------------------------------------

    @property
    def local_rows(self) -> int:
        return self.m // self.grid.dim_y

    @property
    def local_cols(self) -> int:
        return self.n // self.grid.dim_x

    @property
    def shared_block(self) -> Optional[Block]:
        """The one block every rank holds, or ``None`` for per-rank blocks."""
        blocks = self.blocks
        return blocks.block if isinstance(blocks, SharedBlockMap) else None

    @property
    def is_numeric(self) -> bool:
        block = self.shared_block
        if block is None:
            block = next(iter(self.blocks.values()))
        return block.is_numeric

    def local(self, x: int, y: int, z: int) -> Block:
        """Local block at grid coordinates ``(x, y, z)``."""
        return self.blocks[self.grid.rank_at(x, y, z)]

    # -- assembly -----------------------------------------------------------------

    def to_global(self, z: int = 0) -> np.ndarray:
        """Assemble the global matrix from slice ``z`` (numeric mode only)."""
        require(self.is_numeric, "to_global requires numeric blocks")
        out = np.empty((self.m, self.n))
        for y in range(self.grid.dim_y):
            for x in range(self.grid.dim_x):
                blk = self.local(x, y, z)
                out[y::self.grid.dim_y, x::self.grid.dim_x] = blk.data  # type: ignore[union-attr]
        return out

    def replication_spread(self) -> float:
        """Max abs difference between depth copies (0.0 when replicated)."""
        require(self.is_numeric, "replication_spread requires numeric blocks")
        worst = 0.0
        for y in range(self.grid.dim_y):
            for x in range(self.grid.dim_x):
                ref = self.local(x, y, 0).data  # type: ignore[union-attr]
                for z in range(1, self.grid.dim_z):
                    cur = self.local(x, y, z).data  # type: ignore[union-attr]
                    worst = max(worst, float(np.max(np.abs(ref - cur))) if ref.size else 0.0)
        return worst

    # -- structural operations (no communication, no flops) ------------------------

    def map_blocks(self, fn: Callable[[Block], Block], m: Optional[int] = None,
                   n: Optional[int] = None) -> "DistMatrix":
        """New DistMatrix with ``fn`` applied to every local block.

        For *structural* transformations only (quadrant extraction, local
        reshapes); computational maps must charge flops via the kernels
        layer instead.  ``fn`` is applied once per *distinct* block object
        and the result shared among its owners -- on shared-block symbolic
        matrices the transformation runs once, not once per rank.
        """
        m = self.m if m is None else m
        n = self.n if n is None else n
        shared = self.shared_block
        if shared is not None:
            return DistMatrix.shared(self.grid, m, n, fn(shared))
        mapped: Dict[int, Block] = {}
        new_blocks: Dict[int, Block] = {}
        for r, b in self.blocks.items():
            key = id(b)
            nb = mapped.get(key)
            if nb is None:
                nb = mapped[key] = fn(b)
            new_blocks[r] = nb
        return DistMatrix(self.grid, m, n, new_blocks)

    def quadrant(self, i: int, j: int) -> "DistMatrix":
        """Global quadrant ``(i, j)`` as a new ``m/2 x n/2`` DistMatrix.

        Pure local slicing thanks to the cyclic layout; no communication.
        """
        require(self.m % (2 * self.grid.dim_y) == 0 and self.n % (2 * self.grid.dim_x) == 0,
                f"matrix {self.m}x{self.n} cannot be quartered on grid {self.grid.dims}")
        return self.map_blocks(lambda b: b.quadrant(i, j), m=self.m // 2, n=self.n // 2)

    @staticmethod
    def assemble_quadrants(a11: "DistMatrix", a12: "DistMatrix",
                           a21: "DistMatrix", a22: "DistMatrix") -> "DistMatrix":
        """Inverse of :meth:`quadrant`: rebuild the doubled matrix locally."""
        g = a11.grid
        for other in (a12, a21, a22):
            require(other.grid is g, "quadrants must live on the same grid")
        shared = [q.shared_block for q in (a11, a12, a21, a22)]
        if None not in shared:
            # One shared block per quadrant (symbolic): join once, share.
            return DistMatrix.shared(g, a11.m + a21.m, a11.n + a12.n,
                                     join_blocks(*shared))
        blocks: Dict[int, Block] = {}
        memo: Dict[Tuple[int, int, int, int], Block] = {}
        for r in a11.blocks:
            quads = (a11.blocks[r], a12.blocks[r], a21.blocks[r], a22.blocks[r])
            key = (id(quads[0]), id(quads[1]), id(quads[2]), id(quads[3]))
            joined = memo.get(key)
            if joined is None:
                joined = memo[key] = join_blocks(*quads)
            blocks[r] = joined
        return DistMatrix(g, a11.m + a21.m, a11.n + a12.n, blocks)

    def column_panel(self, col_lo: int, col_hi: int) -> "DistMatrix":
        """Global column range ``[col_lo, col_hi)`` as a new DistMatrix.

        Requires both bounds to be multiples of the column grid extent so
        the panel's columns remain cyclically distributed with the same
        owner mapping (global column ``col_lo + i`` is owned by
        ``x = i mod dim_x``).  Pure local slicing, no communication.
        """
        dx = self.grid.dim_x
        require(col_lo % dx == 0 and col_hi % dx == 0,
                f"panel bounds [{col_lo}, {col_hi}) must be multiples of dim_x={dx}")
        require(0 <= col_lo < col_hi <= self.n,
                f"panel bounds [{col_lo}, {col_hi}) out of range for n={self.n}")
        lo, hi = col_lo // dx, col_hi // dx
        return self.map_blocks(lambda b: b.columns(lo, hi), n=col_hi - col_lo)

    def reindexed(self, grid: Grid3D, m: Optional[int] = None) -> "DistMatrix":
        """View this matrix's blocks on a subgrid (pure bookkeeping).

        Used by CA-CQR to hand each cubic subcube its slice of rows: the
        blocks do not move, only the (grid, global row count) bookkeeping
        changes.  The caller is responsible for the row-order relabeling
        being consistent, which it is for cyclic layouts restricted to a
        contiguous y-group.
        """
        return DistMatrix.on_grid(grid, self.m if m is None else m, self.n,
                                  self.blocks)


class Replicated:
    """A small matrix fully replicated on a set of ranks (e.g. 1D-CQR's R).

    Unlike :class:`DistMatrix` there is no partitioning: every listed rank
    owns a complete copy.  Numeric copies are independent buffers.
    """

    __slots__ = ("shape", "blocks")

    def __init__(self, shape: Tuple[int, int], blocks: Dict[int, Block]):
        require(len(blocks) > 0, "Replicated needs at least one rank")
        for r, b in blocks.items():
            require(b.shape == shape,
                    f"replicated block at rank {r} has shape {b.shape}, expected {shape}")
        self.shape = shape
        self.blocks = blocks

    @property
    def is_numeric(self) -> bool:
        return next(iter(self.blocks.values())).is_numeric

    def block(self, rank: int) -> Block:
        return self.blocks[rank]

    def to_global(self) -> np.ndarray:
        """The replicated value (numeric mode), verified consistent across ranks."""
        require(self.is_numeric, "to_global requires numeric blocks")
        values = [b.data for b in self.blocks.values()]  # type: ignore[union-attr]
        ref = values[0]
        for v in values[1:]:
            require(np.array_equal(ref, v),
                    "replicated copies diverged; algorithm bug upstream")
        return ref.copy()


@lru_cache(maxsize=None)
def _triu_pairs(dim: int):
    """Cached strict upper-triangle indices (CFR3D recursions transpose on
    the same grid extent thousands of times)."""
    return np.triu_indices(dim, k=1)


def dist_transpose(vm: VirtualMachine, a: DistMatrix, phase: str) -> DistMatrix:
    """Global transpose: pairwise exchange ``(x,y,z) <-> (y,x,z)`` + local ``.T``.

    Matches the paper's ``Transpose`` collective (Section II-B): every rank
    swaps its local block with its partner via point-to-point communication
    (free on the grid diagonal), then transposes locally.  Requires a square
    face and a square global matrix (the only case CFR3D needs).

    All exchange pairs are disjoint and move equal volumes (the cyclic
    layout is uniform), so the whole transpose is charged as **one**
    vectorized machine call over a ``(pairs, 2)`` rank matrix; in symbolic
    mode the result is a single shared transposed block.
    """
    g = a.grid
    require(g.dim_x == g.dim_y, f"transpose needs a square grid face, got {g.dims}")
    require(a.m == a.n, f"dist_transpose handles square matrices, got {a.m}x{a.n}")
    local_shape = (a.local_rows, a.local_cols)
    dim = g.dim_x

    # Off-diagonal partner pairs (x < y), identical across depth slices.
    xs, ys = _triu_pairs(dim)
    pairs = np.stack([g.ranks[xs, ys, :].reshape(-1),
                      g.ranks[ys, xs, :].reshape(-1)], axis=1)
    words = local_shape[0] * local_shape[1]
    if pairs.size:
        vm.charge_comm_groups(pairs, cc.transpose_cost(words, 2), phase)

    if not a.is_numeric:
        return DistMatrix.shared(g, a.n, a.m,
                                 SymbolicBlock((local_shape[1], local_shape[0])))

    new_blocks: Dict[int, Block] = {}
    for z in range(g.dim_z):
        for y in range(g.dim_y):
            for x in range(g.dim_x):
                if x > y:
                    continue
                r_a = g.rank_at(x, y, z)
                r_b = g.rank_at(y, x, z)
                new_blocks[r_a] = a.blocks[r_b].transpose()
                if r_b != r_a:
                    new_blocks[r_b] = a.blocks[r_a].transpose()
    return DistMatrix(g, a.n, a.m, new_blocks)
