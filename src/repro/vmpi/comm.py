"""Collective reductions on stacked blocks.

A communicator of the paper's grid is a slice of the rank array
(:mod:`repro.vmpi.grid`), and a numeric distributed matrix is one stacked
array indexed by the same grid coordinates
(:class:`~repro.vmpi.distmatrix.DistMatrix`).  A collective's data
movement is therefore an index into that array, and its reduction a sum
along one grid axis: :func:`ordered_sum`, which adds the group's members
in rank order exactly as a lock-step MPI reduction would.  The charge is
one machine call over the whole communicator family
(:meth:`~repro.vmpi.grid.Grid3D.charge_lines` for the lines along a grid
axis), with the butterfly cost formulas of
:mod:`repro.costmodel.collectives`.
"""

from __future__ import annotations

import numpy as np


def ordered_sum(stack: np.ndarray, axis: int) -> np.ndarray:
    """Sum *stack* along *axis* the way a collective sums its group.

    A float64 zero plus each slice in index order -- never ``np.sum``'s
    pairwise order -- so a reduction over a stacked grid axis has the
    bits of a member-by-member reduction in rank order.  *stack* is
    scratch: the sum accumulates in place into its first slice along
    *axis*, which is returned (a view, no allocation).
    """
    parts = np.moveaxis(stack, axis, 0)
    total = parts[0]
    total += 0.0                    # zero + parts[0], bit for bit
    for part in parts[1:]:
        total += part
    return total
