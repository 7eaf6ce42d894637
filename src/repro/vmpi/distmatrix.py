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

Replication over ``z`` is structural: the depth slices of a numeric
matrix are one stored plane, so they cannot diverge.  (MM3D's broadcast
panels differ per slice, but they are temporaries that never become a
:class:`DistMatrix`.)

**Storage.**  A numeric matrix is one read-only float64 ndarray
:attr:`DistMatrix.data` of shape ``(dim_x, dim_y, dim_z, m/dim_y,
n/dim_x)`` indexed by grid coordinates: ``data[x, y, z]`` is the block
rank ``Pi[x, y, z]`` owns.  The ``c`` depth replicas are bit-identical by
construction, so the process stores them once: ``data`` is a stride-0
view over ``z`` of one ``(dim_x, dim_y, 1, m/dim_y, n/dim_x)``
:attr:`~DistMatrix.plane` (:func:`over_depth`; on a ``dim_z == 1`` grid
the plane is ``data`` itself).  Two ranks' blocks therefore share memory
exactly when they are depth replicas -- the same ``(x, y)`` -- and every
block is read-only, so no write can reach a replica.  Every step is a
whole-array operation that reads the plane and hands a new plane back:
:meth:`quadrant` and :meth:`column_panel` are slices,
:meth:`assemble_quadrants` a concatenation, :func:`dist_transpose` one
axis swap, and the algorithms in :mod:`repro.core` stack their local
products into ``np.matmul`` calls over chunks of whole rank blocks (see
:func:`repro.core.mm3d.mm3d_stacked`).  A symbolic matrix holds one immutable
shape-only block shared by every rank (:meth:`DistMatrix.shared`).
Either way a matrix costs O(1) Python objects whatever the rank count:
no code holds one object per rank.  Rank ``Pi[x, y, z]``'s block is
``data[x, y, z]`` (numeric) or :attr:`DistMatrix.shared_block` (symbolic).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.costmodel import collectives as cc
from repro.utils.validation import ValidationError, require
from repro.vmpi.datatypes import Block, NumericBlock, SymbolicBlock, join_blocks
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


def over_depth(plane: np.ndarray, dim_z: int) -> np.ndarray:
    """The ``(dim_x, dim_y, 1, ., .)`` *plane* as a read-only stack over ``dim_z`` slices.

    The one place the stored format is decided: every depth slice of the
    result is a stride-0 view of *plane*, which becomes read-only.
    """
    plane.flags.writeable = False
    return np.broadcast_to(plane, plane.shape[:2] + (dim_z,) + plane.shape[3:])


def _require_shared_shape(block: Block, expected: Tuple[int, int]) -> None:
    require(block.shape == expected,
            f"shared block has shape {block.shape}, expected {expected}")


class DistMatrix:
    """An ``m x n`` matrix cyclically distributed over a grid face.

    Numeric matrices hold :attr:`data` (see the module docstring) and
    ``shared_block = None``; symbolic ones hold ``data = None`` and the
    one :attr:`shared_block` every rank sees.
    """

    __slots__ = ("grid", "m", "n", "data", "shared_block")

    def _init(self, grid: Grid3D, m: int, n: int, data: Optional[np.ndarray],
              block: Optional[Block]) -> None:
        if data is not None:
            data.flags.writeable = False
        self.grid = grid
        self.m = m
        self.n = n
        self.data = data
        self.shared_block = block

    # -- construction -------------------------------------------------------------

    @classmethod
    def stacked(cls, grid: Grid3D, m: int, n: int,
                data: np.ndarray) -> "DistMatrix":
        """Numeric matrix over its stacked blocks, ``data[x, y, z]`` at ``Pi[x, y, z]``.

        *data* becomes read-only.  On a ``dim_z > 1`` grid its depth axis
        must be stride 0 (:func:`over_depth`): depth replicas are one
        stored plane, and a stack holding ``dim_z`` copies is rejected
        rather than silently costing their memory.  Blocks at distinct
        ``(x, y)`` never alias.
        """
        shape = grid.dims + _local_shape(grid, m, n)
        require(data.shape == shape,
                f"stacked blocks have shape {data.shape}, expected {shape}")
        require(grid.dim_z == 1 or data.strides[2] == 0,
                f"stacked blocks hold {grid.dim_z} depth copies; depth "
                "replicas must be one plane viewed over z (over_depth)")
        mat = cls.__new__(cls)
        mat._init(grid, m, n, data, None)
        return mat

    @classmethod
    def from_plane(cls, grid: Grid3D, m: int, n: int,
                   plane: np.ndarray) -> "DistMatrix":
        """Numeric matrix whose every depth slice holds *plane*.

        *plane* is ``(dim_x, dim_y, 1, m/dim_y, n/dim_x)`` and becomes
        read-only; the matrix views it over ``z`` (:func:`over_depth`).
        """
        return cls.stacked(grid, m, n, over_depth(plane, grid.dim_z))

    @classmethod
    def shared(cls, grid: Grid3D, m: int, n: int, block: Block) -> "DistMatrix":
        """Symbolic matrix whose every rank holds the one shared *block*.

        O(1) whatever the rank count: the block shape is checked once.
        Only shape-only blocks may be shared; numeric blocks at distinct
        ``(x, y)`` live in distinct parts of :attr:`data`.
        """
        require(not block.is_numeric,
                "only symbolic blocks can be shared across ranks")
        _require_shared_shape(block, _local_shape(grid, m, n))
        mat = cls.__new__(cls)
        mat._init(grid, m, n, None, block)
        return mat

    @classmethod
    def from_global(cls, grid: Grid3D, array: np.ndarray) -> "DistMatrix":
        """Distribute a global numpy array cyclically, replicated over depth."""
        arr = np.asarray(array, dtype=np.float64)
        require(arr.ndim == 2, f"need a 2D array, got ndim={arr.ndim}")
        m, n = arr.shape
        mb, nb = _local_shape(grid, m, n)
        dx, dy, _ = grid.dims
        plane = np.empty((dx, dy, 1, mb, nb))
        # arr[i*dy + y, j*dx + x] is entry (i, j) of block (x, y).
        plane[...] = arr.reshape(mb, dy, nb, dx).transpose(3, 1, 0, 2)[:, :, None]
        return cls.from_plane(grid, m, n, plane)

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
    def plane(self) -> np.ndarray:
        """The one stored ``(dim_x, dim_y, 1, ., .)`` plane every depth slice views."""
        return self.data[:, :, :1]  # type: ignore[index]

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
        return DistMatrix.from_plane(g, m, n, np.block([[a11.plane, a12.plane],
                                                        [a21.plane, a22.plane]]))

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

    Unlike :class:`DistMatrix` there is no partitioning: every rank of
    :attr:`ranks` owns the complete matrix.  Either every rank reads one
    block (:meth:`shared`; read-only when numeric), or the owners hold a
    stack of independently computed numeric copies (:meth:`stacked`)
    that must agree bit for bit.
    """

    __slots__ = ("ranks", "shape", "shared_block", "copies")

    def __init__(self, ranks: np.ndarray, shape: Tuple[int, int],
                 shared_block: Optional[Block], copies: Optional[np.ndarray]):
        self.ranks = ranks
        self.shape = shape
        self.shared_block = shared_block
        self.copies = copies

    @classmethod
    def shared(cls, ranks: np.ndarray, block: Block) -> "Replicated":
        """*block* on every rank of *ranks*: O(1) whatever the rank count.

        A numeric block becomes read-only, since every rank sees its buffer.
        """
        if isinstance(block, NumericBlock):
            block.data.flags.writeable = False
        return cls(ranks, block.shape, block, None)

    @classmethod
    def stacked(cls, ranks: np.ndarray, copies: np.ndarray) -> "Replicated":
        """The ``(k, rows, cols)`` stack of numeric *copies* held on *ranks*."""
        require(copies.ndim == 3 and copies.shape[0] > 0,
                f"replicated copies must be a non-empty (k, rows, cols) "
                f"stack, got shape {copies.shape}")
        return cls(ranks, copies.shape[1:], None, copies)

    @property
    def is_numeric(self) -> bool:
        return self.copies is not None or self.shared_block.is_numeric  # type: ignore[union-attr]

    def to_global(self) -> np.ndarray:
        """The replicated value (numeric mode), verified consistent across copies."""
        require(self.is_numeric, "to_global requires numeric blocks")
        if self.copies is None:
            return self.shared_block.data.copy()  # type: ignore[union-attr]
        ref = self.copies[0]
        require(bool((self.copies == ref).all()),
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
    return DistMatrix.from_plane(g, a.n, a.m,
                                 a.plane.transpose(1, 0, 2, 4, 3).copy())
