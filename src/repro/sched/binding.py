"""Rank-family bindings: where a program's template ranks land on a machine.

A :class:`RankFamilyMap` carries an ``(instances, template_size)`` matrix
``maps`` with ``maps[i, t]`` the concrete machine rank playing template
rank ``t`` in instance ``i``.  Instances must be pairwise disjoint: a
template run writes one result to every instance, and a recorder's bound
splice records an op's instances as one group family
(:meth:`~repro.vmpi.machine.VirtualMachine.charge_comm_groups`
semantics), exact only because disjoint charges commute.

The paper's communicator families and cyclic block layouts are pure
functions of *position* in a grid's rank array, so a schedule recorded on
a standalone ``c x c x c`` template grid binds onto every cubic subcube
of a ``c x d x c`` grid verbatim (:meth:`RankFamilyMap.subcubes`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import require
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import Slabs, Tiling


class RankFamilyMap:
    """``maps[i, t]`` = machine rank of template rank ``t`` in instance ``i``.

    A binding whose instances are the *slabs* of the machine's rank space
    -- ranks ``0 .. P-1`` viewed as a C-order ``(outer, instances,
    inner)`` array, instance ``i`` being ``[:, i, :]`` in template order --
    keeps only that shape (``slabs``, a
    :class:`~repro.vmpi.machine.Slabs`) and builds ``maps`` on first use:
    a template run (:class:`~repro.sched.replay.TemplateRun`) then reads
    and writes machine state through reshaped views, with no O(P) index
    arrays.  :meth:`subcubes` over a root grid is such a binding, and so
    is :meth:`identity`.
    """

    __slots__ = ("_maps", "slabs", "_tidx")

    def __init__(self, maps: np.ndarray, validate: bool = True):
        m = np.ascontiguousarray(np.asarray(maps, dtype=np.intp))
        require(m.ndim == 2,
                f"binding matrix must be 2D (instances x template), "
                f"got ndim={m.ndim}")
        if validate:
            flat = m.reshape(-1)
            require(not (flat < 0).any(),
                    "binding ranks must be non-negative")
            require(np.unique(flat).size == flat.size,
                    "binding instances must be pairwise-disjoint rank sets")
        self._maps: Optional[np.ndarray] = m
        self.slabs: Optional[Slabs] = None
        self._tidx: Optional[np.ndarray] = None

    @classmethod
    def _from_slabs(cls, outer: int, instances: int,
                   inner: int) -> "RankFamilyMap":
        """The slab binding of an ``outer * instances * inner``-rank machine."""
        binding = cls.__new__(cls)
        binding._maps = None
        binding.slabs = Slabs(outer, instances, inner)
        binding._tidx = None
        return binding

    @property
    def maps(self) -> np.ndarray:
        if self._maps is None:
            outer, inst, inner = self.slabs  # type: ignore[misc]
            self._maps = np.ascontiguousarray(
                np.arange(outer * inst * inner, dtype=np.intp)
                .reshape(outer, inst, inner).transpose(1, 0, 2)
                .reshape(inst, outer * inner))
        return self._maps

    @property
    def instances(self) -> int:
        return self.maps.shape[0] if self.slabs is None else self.slabs.instances

    @property
    def template_size(self) -> int:
        if self.slabs is None:
            return self.maps.shape[1]
        return self.slabs.outer * self.slabs.inner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RankFamilyMap(instances={self.instances}, "
                f"template_size={self.template_size})")

    # -- machine-state access -----------------------------------------------------

    def covers(self, num_ranks: int) -> bool:
        """Whether the (disjoint) instances partition all *num_ranks* ranks."""
        return self.instances * self.template_size == num_ranks

    def require_fits(self, num_ranks: int) -> None:
        """Raise :class:`ValueError` unless every rank named is below
        *num_ranks*."""
        if self.slabs is not None:
            top = self.instances * self.template_size - 1
        else:
            top = int(self.maps.max(initial=-1))
        require(top < num_ranks,
                f"binding names rank {top}, past the end of a "
                f"{num_ranks}-rank machine")

    @property
    def tiling(self) -> Tiling:
        """Where the template's positions lie: :attr:`slabs`, or the
        binding itself."""
        return self if self.slabs is None else self.slabs

    def gather(self, state: np.ndarray) -> np.ndarray:
        """Per-rank *state* (last axis: machine ranks) by instance.

        Shape ``(..., outer, instances, inner)`` with template position
        ``t = o * inner + n``: a view of *state* for a slab binding, a
        gathered copy with ``outer == 1`` otherwise.
        """
        if self.slabs is not None:
            return self.slabs.gather(state)
        return state[..., self.maps][..., None, :, :]

    def common(self, state: np.ndarray) -> Optional[np.ndarray]:
        """Instance 0's columns of per-rank *state*, in template order, or
        ``None`` when another instance holds different values."""
        by_instance = self.gather(state)
        if not (by_instance == by_instance[..., :1, :]).all():
            return None
        return by_instance[..., 0, :].reshape((*by_instance.shape[:-3], -1))

    def scatter(self, state: np.ndarray, template: np.ndarray) -> None:
        """Write template-ordered *template* to every instance of *state*."""
        if self.slabs is not None:
            self.slabs.scatter(state, template)
        else:
            state[..., self.maps] = template[..., None, :]

    def position(self, rank: int) -> int:
        """Template position of machine rank *rank* (full-cover bindings)."""
        return int(self.template_index()[rank])

    def template_index(self) -> np.ndarray:
        """``tidx[rank]`` = template position of *rank* (full-cover bindings).

        Built on first call and kept.
        """
        if self._tidx is None:
            if self.slabs is not None:
                outer, _, inner = self.slabs
                positions = np.arange(outer * inner,
                                      dtype=np.intp).reshape(outer, 1, inner)
                self._tidx = np.broadcast_to(positions,
                                             self.slabs).reshape(-1)
            else:
                maps = self.maps
                tidx = np.empty(maps.size, dtype=np.intp)
                tidx[maps.reshape(-1)] = np.tile(np.arange(maps.shape[1]),
                                                 maps.shape[0])
                self._tidx = tidx
        return self._tidx

    # -- constructors -------------------------------------------------------------

    @classmethod
    def identity(cls, num_ranks: int) -> "RankFamilyMap":
        """One instance, template rank ``t`` -> machine rank ``t``."""
        return cls._from_slabs(1, 1, num_ranks)

    @classmethod
    def subcubes(cls, grid: Grid3D, template: Grid3D) -> "RankFamilyMap":
        """One instance per cubic subcube of a ``c x d x c`` grid.

        ``maps[group][t]`` is the machine rank at the same ``(x, y, z)``
        position of subcube *group* as standalone template rank ``t`` --
        all ``d/c`` subcubes in one binding, without materializing ``d/c``
        :class:`Grid3D` objects.  Over a root grid with a root template the
        subcubes are slabs: the machine's ranks viewed as ``[z, group, y
        mod c, x]`` hold subcube ``group`` at ``[:, group]``, already in
        the template's ``[z, y, x]`` rank order.
        """
        c, d = grid.dim_x, grid.dim_y
        require(grid.dim_z == c and d % c == 0,
                f"subcube binding needs a c x d x c grid, got {grid.dims}")
        require(template.dims == (c, c, c),
                f"template grid must be {c}x{c}x{c}, got {template.dims}")
        groups = d // c
        if grid.is_root and template.is_root:
            return cls._from_slabs(c, groups, c * c)
        # [x, d, z] -> [group, x, yy, z], flattened per group in rank-array
        # order, then inverted through the template's own layout.
        per_group = (grid.ranks.reshape(c, groups, c, c)
                     .transpose(1, 0, 2, 3).reshape(groups, -1))
        maps = np.empty((groups, template.size), dtype=np.intp)
        maps[:, template.ranks.reshape(-1)] = per_group
        # Subcubes partition the grid's (already distinct) ranks: trusted.
        return cls(maps, validate=False)
