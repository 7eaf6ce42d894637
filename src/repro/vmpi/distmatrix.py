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

**Storage.**  A numeric matrix is one read-only float64 ndarray
:attr:`DistMatrix.data` of shape ``(dim_x, dim_y, dim_z, m/dim_y,
n/dim_x)`` indexed by grid coordinates: ``data[x, y, z]`` is the block
rank ``Pi[x, y, z]`` owns.  Every step is a whole-array operation on it --
:meth:`quadrant` and :meth:`column_panel` are slices,
:meth:`assemble_quadrants` a concatenation, :func:`dist_transpose` one
axis swap, and the algorithms in :mod:`repro.core` stack their local
products into one ``np.matmul``.  A symbolic matrix holds one immutable
shape-only block shared by every rank (:meth:`DistMatrix.shared`), so it
costs O(1) Python objects whatever the rank count.  Per-rank
:class:`~repro.vmpi.datatypes.NumericBlock` objects appear only at the
boundaries: :attr:`DistMatrix.blocks` maps every rank to a read-only view
of its own block (never another rank's), and the per-rank mapping
constructor stacks the blocks that rank-by-rank code (the baselines,
the panel loop) builds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.costmodel import collectives as cc
from repro.utils.validation import ValidationError, require
from repro.vmpi.datatypes import (
    Block,
    NumericBlock,
    SharedBlockMap,
    SymbolicBlock,
    join_blocks,
)
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine


def _local_shape(grid: Grid3D, m: int, n: int) -> Tuple[int, int]:
    require(m % grid.dim_y == 0,
            f"rows {m} not divisible by grid row extent dim_y={grid.dim_y}")
    require(n % grid.dim_x == 0,
            f"cols {n} not divisible by grid col extent dim_x={grid.dim_x}")
    return m // grid.dim_y, n // grid.dim_x


def _require_coord(name: str, value: int, dim: int) -> None:
    if not 0 <= value < dim:
        raise ValidationError(
            f"grid coordinate {name}={value} out of range [0, {dim})")


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
    """An ``m x n`` matrix cyclically distributed over a grid face.

    Numeric matrices hold :attr:`data` (see the module docstring) and
    ``shared_block = None``; symbolic ones hold ``data = None`` and the
    one :attr:`shared_block` every rank sees.
    """

    __slots__ = ("grid", "m", "n", "data", "shared_block", "_blocks")

    def __init__(self, grid: Grid3D, m: int, n: int,
                 blocks: Mapping[int, Block]):
        """The matrix whose rank ``r`` holds ``blocks[r]``.

        Numeric blocks are copied into one stacked array (the caller's
        buffers are never aliased); symbolic ones must share a shape and
        collapse to one block.
        """
        expected = _local_shape(grid, m, n)
        if (isinstance(blocks, SharedBlockMap)
                and blocks.ranks_array is grid.all_ranks_array):
            # Built over this grid's own rank array: coverage holds by
            # construction, and there is one block to check.
            _require_shared_shape(blocks.block, expected)
            first: Block = blocks.block
        else:
            _check_rank_blocks(grid, blocks, expected)
            first = next(iter(blocks.values()))
        data = None
        if first.is_numeric:
            data = np.stack([blocks[r].data for r in grid.all_ranks()])  # type: ignore[union-attr]
            data = data.reshape(grid.dims + expected)
        self._init(grid, m, n, data, None if data is not None else first)

    def _init(self, grid: Grid3D, m: int, n: int, data: Optional[np.ndarray],
              block: Optional[Block]) -> None:
        if data is not None:
            data.flags.writeable = False
        self.grid = grid
        self.m = m
        self.n = n
        self.data = data
        self.shared_block = block
        self._blocks: Optional[Mapping[int, Block]] = None

    # -- construction -------------------------------------------------------------

    @classmethod
    def stacked(cls, grid: Grid3D, m: int, n: int,
                data: np.ndarray) -> "DistMatrix":
        """Numeric matrix over its stacked blocks, ``data[x, y, z]`` at ``Pi[x, y, z]``.

        *data* becomes read-only; it must not alias one block to two ranks
        (no stride-0 grid axes).
        """
        shape = grid.dims + _local_shape(grid, m, n)
        require(data.shape == shape,
                f"stacked blocks have shape {data.shape}, expected {shape}")
        mat = cls.__new__(cls)
        mat._init(grid, m, n, data, None)
        return mat

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
    def from_global(cls, grid: Grid3D, array: np.ndarray) -> "DistMatrix":
        """Distribute a global numpy array cyclically, replicated over depth."""
        arr = np.asarray(array, dtype=np.float64)
        require(arr.ndim == 2, f"need a 2D array, got ndim={arr.ndim}")
        m, n = arr.shape
        mb, nb = _local_shape(grid, m, n)
        dx, dy, _ = grid.dims
        data = np.empty((*grid.dims, mb, nb))
        # arr[i*dy + y, j*dx + x] is entry (i, j) of block (x, y).
        data[...] = arr.reshape(mb, dy, nb, dx).transpose(3, 1, 0, 2)[:, :, None]
        return cls.stacked(grid, m, n, data)

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
    def is_numeric(self) -> bool:
        return self.data is not None

    @property
    def blocks(self) -> Mapping[int, Block]:
        """``{machine rank: local block}`` over every grid rank.

        Symbolic: a :class:`SharedBlockMap` of the one shared block.
        Numeric: read-only :class:`NumericBlock` views of :attr:`data`,
        one per rank, built on first access.
        """
        if self._blocks is None:
            if self.data is None:
                self._blocks = SharedBlockMap(self.grid.all_ranks_array,
                                              self.shared_block)
            else:
                self._blocks = {
                    r: NumericBlock(self.data[idx]) for r, idx in
                    zip(self.grid.all_ranks(), np.ndindex(*self.grid.dims))}
        return self._blocks

    def local(self, x: int, y: int, z: int) -> Block:
        """Local block at grid coordinates ``(x, y, z)``."""
        for name, value, dim in zip("xyz", (x, y, z), self.grid.dims):
            _require_coord(name, value, dim)
        if self.data is None:
            return self.shared_block  # type: ignore[return-value]
        return self.blocks[self.grid.rank_at(x, y, z)]

    # -- assembly -----------------------------------------------------------------

    def to_global(self, z: int = 0) -> np.ndarray:
        """Assemble the global matrix from slice ``z`` (numeric mode only)."""
        require(self.is_numeric, "to_global requires numeric blocks")
        _require_coord("z", z, self.grid.dim_z)
        out = np.empty((self.m, self.n))
        dx, dy, _ = self.grid.dims
        out.reshape(self.local_rows, dy, self.local_cols, dx)[...] = \
            self.data[:, :, z].transpose(2, 1, 3, 0)  # type: ignore[index]
        return out

    def replication_spread(self) -> float:
        """Max abs difference between depth copies (0.0 when replicated)."""
        require(self.is_numeric, "replication_spread requires numeric blocks")
        data: np.ndarray = self.data  # type: ignore[assignment]
        return float(np.max(np.abs(data[:, :, 1:] - data[:, :, :1]),
                            initial=0.0))

    # -- structural operations (no communication, no flops) ------------------------

    def quadrant(self, i: int, j: int) -> "DistMatrix":
        """Global quadrant ``(i, j)`` as a new ``m/2 x n/2`` DistMatrix.

        Pure local slicing thanks to the cyclic layout; no communication.
        """
        require(self.m % (2 * self.grid.dim_y) == 0 and self.n % (2 * self.grid.dim_x) == 0,
                f"matrix {self.m}x{self.n} cannot be quartered on grid {self.grid.dims}")
        m, n = self.m // 2, self.n // 2
        if self.data is None:
            return DistMatrix.shared(self.grid, m, n,
                                     self.shared_block.quadrant(i, j))  # type: ignore[union-attr]
        require(i in (0, 1) and j in (0, 1),
                f"quadrant indices must be 0/1, got ({i}, {j})")
        hr, hc = self.local_rows // 2, self.local_cols // 2
        return DistMatrix.stacked(
            self.grid, m, n,
            self.data[..., i * hr:(i + 1) * hr, j * hc:(j + 1) * hc])

    @staticmethod
    def assemble_quadrants(a11: "DistMatrix", a12: "DistMatrix",
                           a21: "DistMatrix", a22: "DistMatrix") -> "DistMatrix":
        """Inverse of :meth:`quadrant`: rebuild the doubled matrix locally."""
        g = a11.grid
        quads = (a11, a12, a21, a22)
        for other in quads[1:]:
            require(other.grid is g, "quadrants must live on the same grid")
        m, n = a11.m + a21.m, a11.n + a12.n
        if a11.data is None:
            return DistMatrix.shared(
                g, m, n, join_blocks(*(q.shared_block for q in quads)))  # type: ignore[misc]
        require(all(q.is_numeric for q in quads),
                "cannot join blocks of mixed backends")
        return DistMatrix.stacked(g, m, n, np.block([[a11.data, a12.data],
                                                     [a21.data, a22.data]]))

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
        if self.data is None:
            return DistMatrix.shared(self.grid, self.m, col_hi - col_lo,
                                     self.shared_block.columns(lo, hi))  # type: ignore[union-attr]
        return DistMatrix.stacked(self.grid, self.m, col_hi - col_lo,
                                  self.data[..., lo:hi])

    def subcube(self, k: int) -> "DistMatrix":
        """The rows subcube *k* holds, as a matrix on ``grid.subcube(k)``.

        Pure bookkeeping: CA-CQR hands each cubic subcube
        ``Pi[:, k*c:(k+1)*c, :]`` the blocks of its y-range, which is
        again a cyclic layout (of ``c * m/d`` rows).  Numeric blocks are a
        slice of :attr:`data`, not a copy.
        """
        sub = self.grid.subcube(k)
        c = sub.dim_y
        m = c * self.local_rows
        if self.data is None:
            return DistMatrix.shared(sub, m, self.n, self.shared_block)  # type: ignore[arg-type]
        return DistMatrix.stacked(sub, m, self.n,
                                  self.data[:, k * c:(k + 1) * c])


class Replicated:
    """A small matrix fully replicated on a set of ranks (e.g. 1D-CQR's R).

    Unlike :class:`DistMatrix` there is no partitioning: every listed rank
    owns a complete copy.  Numeric copies are independent buffers, except
    in a :meth:`shared` matrix, where every rank reads one read-only block.
    """

    __slots__ = ("shape", "blocks")

    def __init__(self, shape: Tuple[int, int], blocks: Mapping[int, Block]):
        require(len(blocks) > 0, "Replicated needs at least one rank")
        if isinstance(blocks, SharedBlockMap):
            _require_shared_shape(blocks.block, shape)
        else:
            for r, b in blocks.items():
                require(b.shape == shape,
                        f"replicated block at rank {r} has shape {b.shape}, expected {shape}")
        self.shape = shape
        self.blocks = blocks

    @classmethod
    def shared(cls, ranks: np.ndarray, block: Block) -> "Replicated":
        """*block* on every rank of *ranks*: O(1) whatever the rank count.

        A numeric block becomes read-only, since every rank sees its buffer.
        """
        if isinstance(block, NumericBlock):
            block.data.flags.writeable = False
        return cls(block.shape, SharedBlockMap(ranks, block))

    @property
    def shared_block(self) -> Optional[Block]:
        """The one block every rank holds, or ``None`` for per-rank copies."""
        if isinstance(self.blocks, SharedBlockMap):
            return self.blocks.block
        return None

    @property
    def is_numeric(self) -> bool:
        block = self.shared_block
        if block is None:
            block = next(iter(self.blocks.values()))
        return block.is_numeric

    def block(self, rank: int) -> Block:
        return self.blocks[rank]

    def to_global(self) -> np.ndarray:
        """The replicated value (numeric mode), verified consistent across ranks."""
        require(self.is_numeric, "to_global requires numeric blocks")
        if self.shared_block is not None:
            return self.shared_block.data.copy()  # type: ignore[union-attr]
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


def dist_transpose(vm: Optional[VirtualMachine], a: DistMatrix,
                   phase: str) -> DistMatrix:
    """Global transpose: pairwise exchange ``(x,y,z) <-> (y,x,z)`` + local ``.T``.

    Matches the paper's ``Transpose`` collective (Section II-B): every rank
    swaps its local block with its partner via point-to-point communication
    (free on the grid diagonal), then transposes locally.  Requires a square
    face and a square global matrix (the only case CFR3D needs).

    All exchange pairs are disjoint and move equal volumes (the cyclic
    layout is uniform), so the whole transpose is charged as **one**
    vectorized machine call over a ``(pairs, 2)`` rank matrix (nothing is
    charged when *vm* is ``None``).  Numerically it is one axis swap of
    the stacked blocks; in symbolic mode the result is a single shared
    transposed block.
    """
    g = a.grid
    require(g.dim_x == g.dim_y, f"transpose needs a square grid face, got {g.dims}")
    require(a.m == a.n, f"dist_transpose handles square matrices, got {a.m}x{a.n}")
    local_shape = (a.local_rows, a.local_cols)

    if vm is not None:
        # Off-diagonal partner pairs (x < y), identical across depth slices.
        xs, ys = _triu_pairs(g.dim_x)
        pairs = np.stack([g.ranks[xs, ys, :].reshape(-1),
                          g.ranks[ys, xs, :].reshape(-1)], axis=1)
        if pairs.size:
            vm.charge_comm_groups(
                pairs, cc.transpose_cost(local_shape[0] * local_shape[1], 2),
                phase)

    if a.data is None:
        return DistMatrix.shared(g, a.n, a.m,
                                 SymbolicBlock((local_shape[1], local_shape[0])))
    # Rank (x, y, z) receives (y, x, z)'s block and transposes it.
    return DistMatrix.stacked(g, a.n, a.m, a.data.transpose(1, 0, 2, 4, 3).copy())
