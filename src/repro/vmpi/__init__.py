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
  rank state (one clock vector, interned-phase ledger planes), vectorized
  charging, pluggable trace sinks, report generation.
* :mod:`repro.vmpi.comm` -- :class:`Communicator`: Bcast / Reduce /
  Allreduce / Allgather / pairwise exchange over ordered rank groups.
* :mod:`repro.vmpi.grid` -- 3D processor grids ``Pi[x, y, z]`` with slices,
  fibers, mod-c subgroups and cubic subcubes (the index algebra of
  Sections II-B and III-B).
* :mod:`repro.vmpi.distmatrix` -- cyclically distributed matrices replicated
  over grid depth, with gather/scatter to global numpy arrays.  A numeric
  matrix is one stacked array indexed by grid coordinates, so a step over
  every rank is one array operation; symbolic matrices share one block
  across all ranks (``DistMatrix.shared``).  Either way a matrix costs
  O(1) Python objects whatever the rank count.
"""

from repro.vmpi.datatypes import (
    Block,
    NumericBlock,
    SharedBlockMap,
    SymbolicBlock,
    make_block,
    zeros_block,
)
from repro.vmpi.machine import TraceEvent, TraceRecorder, TraceSink, VirtualMachine
from repro.vmpi.comm import Communicator
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
    "SharedBlockMap",
    "SymbolicBlock",
    "make_block",
    "zeros_block",
    "TraceEvent",
    "TraceRecorder",
    "TraceSink",
    "VirtualMachine",
    "Communicator",
    "Grid3D",
    "DistMatrix",
    "Replicated",
    "dist_transpose",
    "format_phase_profile",
    "idle_fraction",
    "phase_profile",
    "render_gantt",
]
