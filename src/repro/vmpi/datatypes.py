"""Dual block backend: numeric (numpy) and symbolic (shape-only) local blocks.

Every local matrix owned by a virtual rank is a :class:`Block`.  The core
algorithms are written once against this interface; running them with
:class:`NumericBlock` gives real floating-point results, running them with
:class:`SymbolicBlock` gives a zero-memory *cost simulation* in which the
same communication schedule executes and the same flop counts are charged,
but no arithmetic happens.  This is what lets the benchmark harness replay
the paper's experiments at sizes like ``2**25 x 2**10`` on a laptop.

Blocks are immutable by convention: operations return new blocks.  A
numeric :class:`~repro.vmpi.distmatrix.DistMatrix` does not store blocks
but one stacked array (``NumericBlock`` wraps a single local matrix for
the sequential kernels); a symbolic one holds one shape-only block that
every rank shares -- symbolic blocks carry no data, so
``SymbolicBlock.copy()`` returns the same object and a million-rank
symbolic matrix costs one block, not a million.
Flop accounting is *not* done here -- the kernels layer
(:mod:`repro.kernels`) computes flop counts from shapes and charges the
ledger; blocks only carry data/shape.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import require

Shape = Tuple[int, int]


class Block:
    """Abstract local matrix block.  See module docstring."""

    __slots__ = ()

    @property
    def shape(self) -> Shape:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def words(self) -> int:
        """Number of words (matrix entries) in this block."""
        m, n = self.shape
        return m * n

    @property
    def is_numeric(self) -> bool:
        return isinstance(self, NumericBlock)

    # -- shape-generic operations -------------------------------------------------

    def matmul(self, other: "Block") -> "Block":
        raise NotImplementedError

    def transpose(self) -> "Block":
        raise NotImplementedError

    def sub(self, other: "Block") -> "Block":
        raise NotImplementedError

    def neg(self) -> "Block":
        raise NotImplementedError

    def copy(self) -> "Block":
        raise NotImplementedError

    def quadrant(self, i: int, j: int) -> "Block":
        """Local part of global quadrant ``(i, j)`` under a cyclic layout.

        Requires even local extents; see :mod:`repro.vmpi.distmatrix` for why
        cyclic layouts make quadrants contiguous local halves.
        """
        raise NotImplementedError

    def columns(self, lo: int, hi: int) -> "Block":
        """Local column slice ``[lo, hi)`` (used for panel extraction)."""
        raise NotImplementedError

    def _check_columns_args(self, lo: int, hi: int) -> None:
        require(0 <= lo <= hi <= self.shape[1],
                f"column slice [{lo}, {hi}) out of range for shape {self.shape}")

    def _check_quadrant_args(self, i: int, j: int) -> Tuple[int, int]:
        require(i in (0, 1) and j in (0, 1), f"quadrant indices must be 0/1, got ({i}, {j})")
        m, n = self.shape
        require(m % 2 == 0 and n % 2 == 0,
                f"block of shape {self.shape} cannot be split into quadrants")
        return m // 2, n // 2


class NumericBlock(Block):
    """A block backed by a real 2D :class:`numpy.ndarray`."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data, dtype=np.float64)
        require(arr.ndim == 2, f"NumericBlock requires a 2D array, got ndim={arr.ndim}")
        self.data = arr

    @property
    def shape(self) -> Shape:
        return self.data.shape  # type: ignore[return-value]

    def matmul(self, other: Block) -> "NumericBlock":
        o = _require_numeric(other)
        require(self.shape[1] == o.shape[0],
                f"matmul shape mismatch: {self.shape} @ {o.shape}")
        return NumericBlock(self.data @ o.data)

    def transpose(self) -> "NumericBlock":
        # .copy() (not ascontiguousarray) because a transposed single-row/
        # single-column block is already contiguous, and ascontiguousarray
        # would return a VIEW -- aliasing the source buffer across blocks.
        return NumericBlock(self.data.T.copy())

    def sub(self, other: Block) -> "NumericBlock":
        o = _require_numeric(other)
        require(self.shape == o.shape, f"sub shape mismatch: {self.shape} vs {o.shape}")
        return NumericBlock(self.data - o.data)

    def neg(self) -> "NumericBlock":
        return NumericBlock(-self.data)

    def copy(self) -> "NumericBlock":
        return NumericBlock(self.data.copy())

    def quadrant(self, i: int, j: int) -> "NumericBlock":
        hr, hc = self._check_quadrant_args(i, j)
        return NumericBlock(self.data[i * hr:(i + 1) * hr, j * hc:(j + 1) * hc].copy())

    def columns(self, lo: int, hi: int) -> "NumericBlock":
        self._check_columns_args(lo, hi)
        return NumericBlock(np.ascontiguousarray(self.data[:, lo:hi]))

    def __repr__(self) -> str:  # pragma: no cover
        return f"NumericBlock(shape={self.shape})"


class SymbolicBlock(Block):
    """A block that carries only its shape.

    All operations validate shapes exactly like the numeric backend (so a
    cost simulation exercises the same invariants) but produce no data.
    """

    __slots__ = ("_shape",)

    def __init__(self, shape: Shape):
        m, n = int(shape[0]), int(shape[1])
        require(m >= 0 and n >= 0, f"shape extents must be non-negative, got {shape}")
        self._shape = (m, n)

    @property
    def shape(self) -> Shape:
        return self._shape

    def matmul(self, other: Block) -> "SymbolicBlock":
        o = _require_symbolic(other)
        require(self.shape[1] == o.shape[0],
                f"matmul shape mismatch: {self.shape} @ {o.shape}")
        return SymbolicBlock((self.shape[0], o.shape[1]))

    def transpose(self) -> "SymbolicBlock":
        return SymbolicBlock((self.shape[1], self.shape[0]))

    def sub(self, other: Block) -> "SymbolicBlock":
        o = _require_symbolic(other)
        require(self.shape == o.shape, f"sub shape mismatch: {self.shape} vs {o.shape}")
        return SymbolicBlock(self.shape)

    def neg(self) -> "SymbolicBlock":
        return SymbolicBlock(self.shape)

    def copy(self) -> "SymbolicBlock":
        # Shape-only blocks are immutable, so a "copy" is the block itself;
        # sharing is what keeps symbolic runs O(1) memory per delivery.
        return self

    def quadrant(self, i: int, j: int) -> "SymbolicBlock":
        hr, hc = self._check_quadrant_args(i, j)
        return SymbolicBlock((hr, hc))

    def columns(self, lo: int, hi: int) -> "SymbolicBlock":
        self._check_columns_args(lo, hi)
        return SymbolicBlock((self.shape[0], hi - lo))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SymbolicBlock(shape={self.shape})"


def _require_numeric(block: Block) -> NumericBlock:
    if not isinstance(block, NumericBlock):
        raise TypeError(f"expected NumericBlock, got {type(block).__name__}; "
                        "numeric and symbolic blocks cannot be mixed in one run")
    return block


def _require_symbolic(block: Block) -> SymbolicBlock:
    if not isinstance(block, SymbolicBlock):
        raise TypeError(f"expected SymbolicBlock, got {type(block).__name__}; "
                        "numeric and symbolic blocks cannot be mixed in one run")
    return block


def join_blocks(a11: Block, a12: Block, a21: Block, a22: Block) -> Block:
    """Assemble four quadrant blocks back into one block (inverse of ``quadrant``)."""
    for b in (a12, a21, a22):
        require(type(b) is type(a11), "cannot join blocks of mixed backends")
    require(a11.shape[0] == a12.shape[0] and a21.shape[0] == a22.shape[0]
            and a11.shape[1] == a21.shape[1] and a12.shape[1] == a22.shape[1],
            f"quadrant shapes incompatible: {a11.shape} {a12.shape} {a21.shape} {a22.shape}")
    if isinstance(a11, SymbolicBlock):
        return SymbolicBlock((a11.shape[0] + a21.shape[0], a11.shape[1] + a12.shape[1]))
    top = np.hstack((a11.data, a12.data))  # type: ignore[union-attr]
    bot = np.hstack((a21.data, a22.data))  # type: ignore[union-attr]
    return NumericBlock(np.vstack((top, bot)))
