"""Communicators: collectives over ordered groups of virtual ranks.

A :class:`Communicator` is an ordered group of machine ranks (the order is
the group's coordinate order along the grid dimension it was sliced from,
matching MPI communicator semantics).  Collectives move :class:`Block`
payloads between ranks *and* charge the paper's butterfly cost formulas to
every participant through the machine.

The group is held as a numpy rank array that is handed **directly** to the
machine's vectorized charging path -- no per-rank Python loop runs on the
hot path.  Rank-to-group-index lookups go through a cached mapping
(computed once, O(1) per :meth:`Communicator.index_of` call).

Communicators serve the code that moves blocks rank by rank (the
baselines, shifted CholeskyQR's norm): numeric payloads are
copied on delivery so no two ranks ever alias a buffer.  Symbolic payloads
are immutable shape-only values, so collectives return one **shared**
block for the whole group (wrapped in a :class:`SharedBlockMap` where a
per-rank mapping is expected) instead of materializing per-rank dicts --
delivery is O(1) memory regardless of the group size.  Reductions on
symbolic blocks validate shapes and return a shape -- arithmetically
free, exactly like the cost model's ``beta >> gamma`` assumption.

CA-CQR2's and 1D-CQR2's steps (:mod:`repro.core`) move no blocks through
here: they charge whole communicator families through the machine and
compute on the stacked arrays of
:class:`~repro.vmpi.distmatrix.DistMatrix`, where a collective's data
movement is an index and its reduction is :func:`ordered_sum` along a
grid axis.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.costmodel import collectives as cc
from repro.utils.validation import require
from repro.vmpi.datatypes import (
    Block,
    NumericBlock,
    SharedBlockMap,
    SymbolicBlock,
)
from repro.vmpi.machine import VirtualMachine


class Communicator:
    """An ordered group of virtual ranks supporting MPI-style collectives."""

    __slots__ = ("vm", "_ranks_arr", "_ranks_tuple", "_index")

    def __init__(self, vm: VirtualMachine, ranks: Union[Sequence[int], np.ndarray]):
        arr = np.ascontiguousarray(np.asarray(ranks, dtype=np.intp))
        require(arr.ndim == 1 and arr.size > 0,
                "a communicator needs at least one rank")
        # Two-step on purpose: require() builds its message eagerly, and
        # arr.tolist() on a large group is too expensive for this hot path.
        if np.unique(arr).size != arr.size:
            require(False,
                    f"communicator ranks must be distinct, got {arr.tolist()}")
        lo, hi = int(arr.min()), int(arr.max())
        require(0 <= lo and hi < vm.num_ranks,
                f"rank {lo if lo < 0 else hi} out of range [0, {vm.num_ranks})")
        self._init(vm, arr)

    def _init(self, vm: VirtualMachine, arr: np.ndarray) -> None:
        self.vm = vm
        self._ranks_arr = arr
        self._ranks_tuple: Optional[Tuple[int, ...]] = None
        self._index: Optional[Dict[int, int]] = None

    @classmethod
    def _trusted(cls, vm: VirtualMachine, ranks: np.ndarray) -> "Communicator":
        """A communicator over a non-empty 1D intp slice of an already
        validated :class:`~repro.vmpi.grid.Grid3D` (no O(p) checks)."""
        comm = cls.__new__(cls)
        comm._init(vm, np.ascontiguousarray(ranks))
        return comm

    @property
    def ranks(self) -> Tuple[int, ...]:
        """The group as an ordered tuple of machine ranks."""
        if self._ranks_tuple is None:
            self._ranks_tuple = tuple(self._ranks_arr.tolist())
        return self._ranks_tuple

    @property
    def ranks_array(self) -> np.ndarray:
        """The group as an intp ndarray (passed straight to the machine)."""
        return self._ranks_arr

    @property
    def size(self) -> int:
        return self._ranks_arr.size

    def index_of(self, rank: int) -> int:
        """Position of a machine rank within this group.

        Backed by a rank-to-index mapping computed once (on first lookup)
        and cached, so repeated calls are O(1) instead of the O(p) linear
        scan a ``list.index`` would cost on large groups.
        """
        index = self._index
        if index is None:
            index = self._index = {
                r: i for i, r in enumerate(self._ranks_arr.tolist())
            }
        try:
            return index[rank]
        except KeyError:
            raise ValueError(f"rank {rank} is not a member of {self!r}") from None

    # -- collectives --------------------------------------------------------------

    def bcast(self, block: Block, root_index: int, phase: str) -> Mapping[int, Block]:
        """Broadcast *block* from the member at *root_index* to the whole group.

        Returns ``{machine_rank: received_block}``; every member (including
        the root) gets an independent copy.  Symbolic blocks are immutable,
        so the "copies" are one shared block for the whole group.
        """
        require(0 <= root_index < self.size,
                f"root index {root_index} out of range [0, {self.size})")
        cost = cc.bcast_cost(block.words, self.size)
        self.vm.charge_comm_group(self._ranks_arr, cost, phase)
        if isinstance(block, SymbolicBlock):
            return SharedBlockMap(self._ranks_arr, block)
        return {r: block.copy() for r in self._ranks_arr.tolist()}

    def reduce(self, contributions: Mapping[int, Block], root_index: int, phase: str) -> Block:
        """Element-wise sum of one contribution per member, delivered to the root."""
        blocks = self._collect(contributions)
        require(0 <= root_index < self.size,
                f"root index {root_index} out of range [0, {self.size})")
        cost = cc.reduce_cost(blocks[0].words, self.size)
        self.vm.charge_comm_group(self._ranks_arr, cost, phase)
        return _sum_blocks(blocks)

    def allreduce(self, contributions: Mapping[int, Block], phase: str) -> Mapping[int, Block]:
        """Element-wise sum of one contribution per member, delivered to all."""
        blocks = self._collect(contributions)
        cost = cc.allreduce_cost(blocks[0].words, self.size)
        self.vm.charge_comm_group(self._ranks_arr, cost, phase)
        total = _sum_blocks(blocks)
        if isinstance(total, SymbolicBlock):
            return SharedBlockMap(self._ranks_arr, total)
        return {r: total.copy() for r in self._ranks_arr.tolist()}

    def allgather(self, contributions: Mapping[int, Block], phase: str) -> List[Block]:
        """Concatenation (as a list in group order), delivered to all members.

        Returns the gathered list once; assembling it into a matrix is
        layout-specific and done by the caller (each member receives the
        same content, so a single list is returned rather than per-rank
        copies).
        """
        blocks = self._collect(contributions)
        result_words = sum(b.words for b in blocks)
        cost = cc.allgather_cost(result_words, self.size)
        self.vm.charge_comm_group(self._ranks_arr, cost, phase)
        return [b.copy() for b in blocks]

    def _collect(self, contributions: Mapping[int, Block]) -> List[Block]:
        members = self._ranks_arr.tolist()
        if isinstance(contributions, SharedBlockMap):
            # One shared block for every member: membership and shape
            # uniformity hold by construction; only the rank sets must agree.
            require(contributions.rank_set() == (self._rank_set()),
                    "every communicator member must contribute exactly one block; "
                    f"got ranks {sorted(contributions)} for group {sorted(members)}")
            block = contributions.block
            return [block] * len(members)
        require(set(contributions.keys()) == self._rank_set(),
                "every communicator member must contribute exactly one block; "
                f"got ranks {sorted(contributions)} for group {sorted(members)}")
        blocks = [contributions[r] for r in members]
        first = blocks[0].shape
        for b in blocks[1:]:
            require(b.shape == first,
                    f"collective contributions must share a shape; got {first} and {b.shape}")
        return blocks

    def _rank_set(self) -> frozenset:
        return frozenset(self._ranks_arr.tolist())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Communicator(size={self.size}, ranks={self.ranks})"


def pairwise_swap(vm: VirtualMachine, rank_a: int, rank_b: int,
                  block_a: Block, block_b: Block, phase: str) -> Tuple[Block, Block]:
    """Point-to-point exchange used by the global Transpose.

    Rank ``a`` receives ``block_b`` and vice versa; a self-exchange (on the
    grid diagonal) is free, matching the paper's ``delta(P)`` factor in
    ``T_Transp``.
    """
    if rank_a == rank_b:
        return block_a, block_b
    require(block_a.words == block_b.words,
            f"transpose partners must exchange equal volumes, got {block_a.shape} vs {block_b.shape}")
    cost = cc.transpose_cost(block_a.words, 2)
    vm.charge_comm_pair(rank_a, rank_b, cost, phase)
    return block_b.copy(), block_a.copy()


def ordered_sum(stack: np.ndarray, axis: int) -> np.ndarray:
    """Sum *stack* along *axis* the way :func:`_sum_blocks` sums a group.

    A float64 zero plus each slice in index order -- never ``np.sum``'s
    pairwise order -- so a reduction over a stacked grid axis is
    bit-identical to the per-group collective it replaces.  *stack* is
    scratch: the sum accumulates in place into its first slice along
    *axis*, which is returned (a view, no allocation).
    """
    parts = np.moveaxis(stack, axis, 0)
    total = parts[0]
    total += 0.0                    # zero + parts[0], bit for bit
    for part in parts[1:]:
        total += part
    return total


def _sum_blocks(blocks: List[Block]) -> Block:
    """Element-wise sum, dispatching on backend."""
    first = blocks[0]
    if isinstance(first, SymbolicBlock):
        return SymbolicBlock(first.shape)
    # Explicit float64 accumulator: integer (or lower-precision) blocks
    # must sum at double precision whatever np.zeros' default becomes.
    total = np.zeros(first.shape, dtype=np.float64)
    for b in blocks:
        total += b.data  # type: ignore[union-attr]
    return NumericBlock(total)
