"""3D processor grids and their index algebra (Sections II-B, III-B).

A :class:`Grid3D` is an array of machine ranks indexed by coordinates
``Pi[x, y, z]``.  For the tunable CA-CQR2 grid of shape ``c x d x c``:

* ``x`` (size ``c``) indexes **column** blocks of the distributed matrix,
* ``y`` (size ``d``) indexes **row** blocks,
* ``z`` (size ``c``) is the replication **depth**.

The paper's communicator families (Section II-B) are slices of the rank
array, ordered by the varying coordinate:

* ``ranks[:, y, z]`` -- the row communicator ``Pi[:, y, z]``;
* ``ranks[x, :, z]`` -- the column communicator ``Pi[x, :, z]``;
* ``ranks[x, y, :]`` -- the depth communicator ``Pi[x, y, :]``;
* ``ranks[:, :, z]`` -- a whole 2D slice (the base-case Allgather);
* ``ranks[x, k*c:(k+1)*c, z]`` -- the contiguous y-group of Algorithm 8
  line 3, and ``ranks[x, r::c, z]`` the stride-``c`` subgroup of line 4;
* :meth:`Grid3D.subcube` -- the cubic ``c x c x c`` subgrid on which
  ``d/c`` simultaneous CFR3D instances run (Algorithm 8 line 6).

Every such family is the set of 1-D lines along one axis of the rank
array, possibly after splitting ``y`` into ``(group, y mod c)``.  Viewed
in memory order -- x-fastest numbering makes the array ``[z, y, x]`` in
C order -- the row communicators are the lines along axis 2 of shape
``(dim_z, dim_y, dim_x)``, the depth fibers those along axis 0, and
Algorithm 8's contiguous y-groups and stride-``c`` subgroups the lines
along axes 2 and 1 of ``(c, d/c, c, c)`` = ``[z, group, y mod c, x]``.
:meth:`Grid3D.charge_lines` charges such a family in one machine call.
On a **root** grid (built over the whole machine at offset 0) the view
*is* the machine's rank space, so the family becomes one
:meth:`~repro.vmpi.machine.VirtualMachine.charge_comm_axis` call: no
group matrix, no gather.  On any other grid it expands to the ``(groups,
size)`` rank matrix and one
:meth:`~repro.vmpi.machine.VirtualMachine.charge_comm_groups` call.
Families that are not axis lines (transpose pairs, diagonal sets) build
their rank matrix directly.

Subgrids are themselves :class:`Grid3D` objects sharing the parent's
machine, so every algorithm is oblivious to whether it runs on the root
grid or a subcube.  A root grid keeps only its dims and builds its rank
array on first use: charging its families through the axis form, binding
its subcubes as slabs and comparing it with another root grid read none,
so a symbolic run on a million-rank root grid holds no ``(P,)`` rank
array.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.collectives import CollectiveCost
from repro.utils.validation import check_positive_int, require
from repro.vmpi.machine import VirtualMachine, lines_along


class Grid3D:
    """A (sub)grid of virtual ranks with coordinates ``[x, y, z]``."""

    __slots__ = ("vm", "_dims", "_ranks", "_root")

    def __init__(self, vm: VirtualMachine, ranks: np.ndarray):
        require(ranks.ndim == 3, f"rank array must be 3D, got ndim={ranks.ndim}")
        arr = np.ascontiguousarray(ranks).astype(np.intp, copy=False)
        flat = arr.reshape(-1)
        require(np.unique(flat).size == flat.size,
                "grid rank array contains duplicate machine ranks")
        if flat.size:
            lo, hi = int(flat.min()), int(flat.max())
            require(0 <= lo and hi < vm.num_ranks,
                    f"machine rank {lo if lo < 0 else hi} out of range "
                    f"[0, {vm.num_ranks})")
        self._init(vm, arr.shape, arr)

    def _init(self, vm: VirtualMachine, dims: Tuple[int, ...],
              ranks: Optional[np.ndarray], root: bool = False) -> None:
        self.vm = vm
        self._dims: Tuple[int, int, int] = tuple(dims)  # type: ignore[assignment]
        self._ranks = ranks
        self._root = root

    @classmethod
    def _trusted(cls, vm: VirtualMachine, ranks: np.ndarray) -> "Grid3D":
        """A grid over ranks known distinct and in range (no O(P) checks):
        a slice of an already validated grid."""
        grid = cls.__new__(cls)
        arr = np.ascontiguousarray(ranks, dtype=np.intp)
        grid._init(vm, arr.shape, arr)
        return grid

    @classmethod
    def _root_grid(cls, vm: VirtualMachine,
                   dims: Tuple[int, int, int]) -> "Grid3D":
        """The x-fastest layout of the whole machine (see :attr:`is_root`),
        its rank array built on first use."""
        grid = cls.__new__(cls)
        grid._init(vm, dims, None, root=True)
        return grid

    @property
    def ranks(self) -> np.ndarray:
        """The ``(dim_x, dim_y, dim_z)`` array of machine ranks."""
        if self._ranks is None:
            dx, dy, dz = self._dims
            self._ranks = np.ascontiguousarray(
                np.arange(dx * dy * dz, dtype=np.intp)
                .reshape(dz, dy, dx).transpose(2, 1, 0))
        return self._ranks

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(cls, vm: VirtualMachine, dim_x: int, dim_y: int, dim_z: int,
              offset: int = 0) -> "Grid3D":
        """Root grid over machine ranks ``[offset, offset + x*y*z)``.

        Rank numbering is x-fastest (``rank = offset + x + dim_x*(y + dim_y*z)``),
        matching a column-major MPI Cart layout; nothing downstream depends
        on the choice.
        """
        check_positive_int(dim_x, "dim_x")
        check_positive_int(dim_y, "dim_y")
        check_positive_int(dim_z, "dim_z")
        p = dim_x * dim_y * dim_z
        require(offset + p <= vm.num_ranks,
                f"grid of {p} ranks at offset {offset} exceeds machine size {vm.num_ranks}")
        if offset == 0 and p == vm.num_ranks:
            return cls._root_grid(vm, (dim_x, dim_y, dim_z))
        ranks = (offset + np.arange(p)).reshape(dim_z, dim_y, dim_x).transpose(2, 1, 0)
        return cls._trusted(vm, ranks)

    @classmethod
    def tunable(cls, vm: VirtualMachine, c: int, d: int, offset: int = 0) -> "Grid3D":
        """The paper's ``c x d x c`` tunable grid (``P = c*c*d``)."""
        return cls.build(vm, c, d, c, offset=offset)

    @classmethod
    def cubic(cls, vm: VirtualMachine, p: int, offset: int = 0) -> "Grid3D":
        """A ``p x p x p`` cubic grid (3D-CQR2, CFR3D, MM3D)."""
        return cls.build(vm, p, p, p, offset=offset)

    # -- geometry -----------------------------------------------------------------

    @property
    def dims(self) -> Tuple[int, int, int]:
        return self._dims

    @property
    def dim_x(self) -> int:
        return self._dims[0]

    @property
    def dim_y(self) -> int:
        return self._dims[1]

    @property
    def dim_z(self) -> int:
        return self._dims[2]

    @property
    def size(self) -> int:
        return self._dims[0] * self._dims[1] * self._dims[2]

    @property
    def is_cubic(self) -> bool:
        return self.dim_x == self.dim_y == self.dim_z

    @property
    def is_root(self) -> bool:
        """Whether the grid is the x-fastest layout of its whole machine.

        Set by :meth:`build` at offset 0 over ``vm.num_ranks`` ranks (a
        subcube that is the whole grid is the grid itself): rank
        ``Pi[x, y, z]`` is ``x + dim_x*(y + dim_y*z)``, so the machine's
        rank space viewed as ``(dim_z, dim_y, dim_x)`` is the grid in
        memory order.
        """
        return self._root

    def charge_lines(self, vm: VirtualMachine, shape: Sequence[int],
                     axis: int, cost: CollectiveCost, phase: str) -> None:
        """Charge one collective per line along *axis* of the grid viewed as *shape*.

        *shape* is a C-order view of the rank array in memory order
        ``[z, y, x]`` (see the module docstring), e.g. ``(c, d, c)`` with
        ``axis=2`` for every row communicator.  A root grid charges the
        family as the machine's axis form; any other grid charges the same
        groups through their rank matrix.
        """
        if self._root and vm.num_ranks == self.size:
            vm.charge_comm_axis(shape, axis, cost, phase)
            return
        view = self.ranks.transpose(2, 1, 0).reshape(tuple(shape))
        vm.charge_comm_groups(lines_along(view, axis), cost, phase)

    @property
    def all_ranks_array(self) -> np.ndarray:
        """Every machine rank of the grid as a flat intp array.

        Raveled in the rank array's C order; the vectorized charging paths
        that consume it treat the group as a set, so the order is
        irrelevant there.
        """
        return self.ranks.reshape(-1)

    # -- subgrids -----------------------------------------------------------------

    def subcube(self, group: int, c: Optional[int] = None) -> "Grid3D":
        """Cubic subgrid ``Pi[:, group*c : (group+1)*c, :]`` (Alg. 8 line 6).

        Requires ``dim_x == dim_z`` and defaults ``c`` to that extent.
        """
        require(self.dim_x == self.dim_z,
                f"subcubes need dim_x == dim_z, got {self.dims}")
        c = self.dim_x if c is None else c
        require(c == self.dim_x, f"subcube extent {c} must equal dim_x {self.dim_x}")
        require(self.dim_y % c == 0,
                f"dim_y={self.dim_y} not divisible by c={c}")
        require(0 <= group < self.dim_y // c,
                f"group {group} out of range for dim_y={self.dim_y}, c={c}")
        if self.dim_y == c:
            return self
        return Grid3D._trusted(self.vm, self.ranks[:, group * c:(group + 1) * c, :])

    def matches(self, other: "Grid3D") -> bool:
        """Structural equality: same machine and same rank array.

        Distinct :class:`Grid3D` objects over identical ranks (e.g. the same
        subcube extracted in two CA-CQR passes) are interchangeable.  Two
        root grids compare their dims alone.
        """
        if self is other:
            return True
        if self.vm is not other.vm:
            return False
        if self._root and other._root:
            return self._dims == other._dims
        return np.array_equal(self.ranks, other.ranks)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Grid3D(dims={self.dims})"
