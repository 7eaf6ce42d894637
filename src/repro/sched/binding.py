"""Rank-family bindings: where a program's template ranks land on a machine.

A :class:`RankFamilyMap` carries an ``(instances, template_size)`` matrix
``maps`` with ``maps[i, t]`` the concrete machine rank playing template
rank ``t`` in instance ``i``.  Instances must be pairwise disjoint: a
bound replay charges all instances of an op as one disjoint group family
(:meth:`~repro.vmpi.machine.VirtualMachine.charge_comm_groups`
semantics), which is bit-identical to looping instances only because
disjoint charges commute.

The paper's communicator families and cyclic block layouts are pure
functions of *position* in a grid's rank array, so a positional map
carries a schedule recorded on a standalone template grid onto any
same-shape grid verbatim
-- the generalization of the subcube trick CA-CQR2's symbolic path
introduced.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require
from repro.vmpi.grid import Grid3D


class RankFamilyMap:
    """``maps[i, t]`` = machine rank of template rank ``t`` in instance ``i``."""

    __slots__ = ("maps",)

    def __init__(self, maps: np.ndarray, validate: bool = True):
        m = np.ascontiguousarray(np.asarray(maps, dtype=np.intp))
        require(m.ndim == 2,
                f"binding matrix must be 2D (instances x template), "
                f"got ndim={m.ndim}")
        if validate:
            flat = m.reshape(-1)
            require(np.unique(flat).size == flat.size,
                    "binding instances must be pairwise-disjoint rank sets")
        self.maps = m

    @property
    def instances(self) -> int:
        return self.maps.shape[0]

    @property
    def template_size(self) -> int:
        return self.maps.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RankFamilyMap(instances={self.instances}, "
                f"template_size={self.template_size})")

    # -- constructors -------------------------------------------------------------

    @classmethod
    def identity(cls, num_ranks: int) -> "RankFamilyMap":
        """One instance, template rank ``t`` -> machine rank ``t``."""
        return cls(np.arange(num_ranks, dtype=np.intp).reshape(1, -1),
                   validate=False)

    @classmethod
    def from_grids(cls, template: Grid3D, *targets: Grid3D) -> "RankFamilyMap":
        """Positional maps from *template* onto each same-shape target grid."""
        maps = np.empty((len(targets), template.size), dtype=np.intp)
        tpl_flat = template.ranks.reshape(-1)
        for i, target in enumerate(targets):
            require(target.dims == template.dims,
                    f"target grid dims {target.dims} do not match template "
                    f"dims {template.dims}")
            maps[i, tpl_flat] = target.ranks.reshape(-1)
        return cls(maps)

    @classmethod
    def subcubes(cls, grid: Grid3D, template: Grid3D) -> "RankFamilyMap":
        """One instance per cubic subcube of a ``c x d x c`` grid.

        ``maps[group][t]`` is the machine rank at the same ``(x, y, z)``
        position of subcube *group* as standalone template rank ``t`` --
        all ``d/c`` subcubes in one binding, without materializing ``d/c``
        :class:`Grid3D` objects.
        """
        c, d = grid.dim_x, grid.dim_y
        require(grid.dim_z == c and d % c == 0,
                f"subcube binding needs a c x d x c grid, got {grid.dims}")
        require(template.dims == (c, c, c),
                f"template grid must be {c}x{c}x{c}, got {template.dims}")
        groups = d // c
        # [x, d, z] -> [group, x, yy, z], flattened per group in rank-array
        # order, then inverted through the template's own layout.
        per_group = (grid.ranks.reshape(c, groups, c, c)
                     .transpose(1, 0, 2, 3).reshape(groups, -1))
        maps = np.empty((groups, template.size), dtype=np.intp)
        maps[:, template.ranks.reshape(-1)] = per_group
        # Subcubes partition the grid's (already distinct) ranks: trusted.
        return cls(maps, validate=False)
