"""Virtual MPI: a single-process simulation of a distributed-memory machine.

The paper's implementation is C++/MPI on up to 131072 processes.  This
substrate replaces MPI with deterministic *lock-step orchestration*: every
virtual rank owns local blocks (slices of a grid-indexed array), and
collectives are block shuffles over rank groups -- indexing and ordered
sums along grid axes -- that simultaneously charge the paper's butterfly
cost formulas to each participant's ledger and synchronize their BSP
clocks.

Key pieces:

* :mod:`repro.vmpi.datatypes` -- the dual block backend.  ``NumericBlock``
  wraps a real numpy array (numerics are bit-faithful to a lock-step MPI
  run); ``SymbolicBlock`` carries only a shape so the same algorithm code
  can be cost-simulated at paper scale without allocating memory.
* :mod:`repro.vmpi.machine` -- the :class:`VirtualMachine`: array-backed
  rank state (clocks, running totals and interned-phase ledgers, held per
  rank class until a direct charge needs per-rank arrays), vectorized
  charging, pluggable trace sinks, report generation.
* :mod:`repro.vmpi.grid` -- 3D processor grids ``Pi[x, y, z]``: the
  paper's communicator families are slices of the rank array (fibers,
  faces, mod-c subgroups), plus cubic subcubes (the index algebra of
  Sections II-B and III-B).
* :mod:`repro.vmpi.comm` -- :func:`ordered_sum`, a collective's reduction
  along one grid axis of a stacked array, in rank order.
* :mod:`repro.vmpi.distmatrix` -- cyclically distributed matrices replicated
  over grid depth, with gather/scatter to global numpy arrays.  A numeric
  matrix is one stacked array indexed by grid coordinates, its depth
  replicas one stored plane viewed over ``z``, so a step over every rank
  is one array operation on that plane; symbolic matrices share one block
  across all ranks (``DistMatrix.shared``).  Either way a matrix costs
  O(1) Python objects whatever the rank count.

No layer holds per-rank Python objects: every algorithm step computes on
the stacked arrays and charges each communicator family in one machine
call.
"""

from repro.vmpi.datatypes import Block, NumericBlock, SymbolicBlock
from repro.vmpi.machine import TraceEvent, TraceRecorder, TraceSink, VirtualMachine
from repro.vmpi.grid import Grid3D
from repro.vmpi.distmatrix import DistMatrix, Replicated, dist_transpose
from repro.vmpi.trace import (
    format_phase_profile,
    idle_fraction,
    phase_profile,
    render_gantt,
)

__all__ = [
    "Block",
    "NumericBlock",
    "SymbolicBlock",
    "TraceEvent",
    "TraceRecorder",
    "TraceSink",
    "VirtualMachine",
    "Grid3D",
    "DistMatrix",
    "Replicated",
    "dist_transpose",
    "format_phase_profile",
    "idle_fraction",
    "phase_profile",
    "render_gantt",
]
