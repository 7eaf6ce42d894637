"""The alpha-beta-gamma cost model (Section II-A of the paper).

This package has these layers:

* :mod:`repro.costmodel.params` -- the model parameters ``(alpha, beta,
  gamma)`` and machine presets carrying the paper's published constants for
  Stampede2 and Blue Waters.
* :mod:`repro.costmodel.collectives` -- butterfly-schedule cost formulas for
  Transpose / Bcast / Reduce / Allreduce / Allgather (Section II-B).
* :mod:`repro.costmodel.ledger` -- per-rank cost accounting used by the
  virtual-MPI runtime, with named phase attribution so the paper's per-line
  cost tables (Tables II-VI) can be re-derived from measurements.
* :mod:`repro.costmodel.tables` -- the CholeskyQR family's one closed form:
  the paper's per-line cost tables (Tables II-VI), batched over candidate
  lanes.  A line equals the executed ledger's phase total bit for bit (the
  test suite asserts it); the planner's screen and every scalar cost are
  sums of the lines.  :mod:`repro.costmodel.batch` holds the shared lane
  helpers and the baseline screens, :mod:`repro.costmodel.asymptotics`
  the leading-order Table-I expressions.
* :mod:`repro.costmodel.performance` -- conversion of cost triples into
  modeled execution time and the paper's Gigaflops/s/node metric.
"""

from repro.costmodel.params import (
    CostParams,
    MachineSpec,
    STAMPEDE2,
    BLUE_WATERS,
    ABSTRACT_MACHINE,
    machine_by_name,
)
from repro.costmodel.collectives import (
    CollectiveCost,
    bcast_cost,
    reduce_cost,
    allreduce_cost,
    allgather_cost,
    transpose_cost,
)
from repro.costmodel.ledger import Cost, Ledger, CostReport
from repro.costmodel.performance import ExecutionModel, householder_qr_flops, cqr2_flops
from repro.costmodel.breakdown import TimeBreakdown, breakdown
from repro.costmodel.memory import (
    ca_cqr2_memory,
    cqr2_1d_memory,
    pgeqrf_memory,
    replication_overhead,
)

__all__ = [
    "CostParams",
    "MachineSpec",
    "STAMPEDE2",
    "BLUE_WATERS",
    "ABSTRACT_MACHINE",
    "machine_by_name",
    "CollectiveCost",
    "bcast_cost",
    "reduce_cost",
    "allreduce_cost",
    "allgather_cost",
    "transpose_cost",
    "Cost",
    "Ledger",
    "CostReport",
    "ExecutionModel",
    "householder_qr_flops",
    "cqr2_flops",
    "TimeBreakdown",
    "breakdown",
    "ca_cqr2_memory",
    "cqr2_1d_memory",
    "pgeqrf_memory",
    "replication_overhead",
]
