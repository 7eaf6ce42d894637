"""Crossover analysis: where does CA-CQR2 start beating the 2D baseline?

The paper's strong-scaling story is a crossover story: ScaLAPACK wins at
small node counts (CQR2's ~2x flop overhead dominates), CA-CQR2 wins at
large ones (2D QR's communication dominates).  The analysis is a planner
study (:func:`repro.study.study_from_dict`) comparing each side's best
runnable configuration under the validated cost model at every node
count -- the quantitative form of the paper's "at higher node counts,
the asymptotic communication improvement is expected to be of greater
benefit".  Its ``algorithms`` axis is ``[["ca_cqr2"], ["scalapack"]]``
with ``block_sizes: [16, 32, 64]`` and ``inverse_depths: [0]``; each
solver's candidates ignore the other's knob, so CA-CQR2 is screened at
the default base case and PGEQRF over three panel widths, and every
reported configuration passes its solver's capability checks.
:func:`points_from_table` reads the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.costmodel.params import MachineSpec
from repro.study import ResultTable


@dataclass(frozen=True)
class CrossoverPoint:
    """One node count's best-vs-best comparison."""

    nodes: int
    ca_seconds: float
    sl_seconds: float
    ca_grid: str
    sl_grid: str

    @property
    def ca_wins(self) -> bool:
        return self.ca_seconds < self.sl_seconds

    @property
    def speedup(self) -> float:
        return self.sl_seconds / self.ca_seconds


def points_from_table(table: ResultTable,
                      procs_per_node: int) -> List[CrossoverPoint]:
    """A crossover planner study's table as a best-vs-best point list.

    The study's ``procs`` axis is the node ladder times
    ``procs_per_node``, and its ``algorithms`` axis is
    ``[["ca_cqr2"], ["scalapack"]]``.  Node counts where either side
    has no feasible configuration are omitted.
    """
    points: List[CrossoverPoint] = []
    procs_seen: List[int] = []
    for row in table.rows:
        if row.point["procs"] not in procs_seen:
            procs_seen.append(row.point["procs"])
    for procs in procs_seen:
        ca = table.first(procs=procs, algorithms="ca_cqr2")
        sl = table.first(procs=procs, algorithms="scalapack")
        if ca is None or not ca.ok or sl is None or not sl.ok:
            continue
        points.append(CrossoverPoint(
            nodes=procs // procs_per_node,
            ca_seconds=ca.values["modeled_seconds"],
            sl_seconds=sl.values["modeled_seconds"],
            ca_grid=ca.values["config"], sl_grid=sl.values["config"]))
    return points


def find_crossover(points: List[CrossoverPoint]) -> Optional[int]:
    """Smallest node count from which CA-CQR2 stays ahead (None if never)."""
    winning_from: Optional[int] = None
    for pt in points:
        if pt.ca_wins:
            if winning_from is None:
                winning_from = pt.nodes
        else:
            winning_from = None
    return winning_from


def format_crossover_table(m: int, n: int, machine: MachineSpec,
                           points: List[CrossoverPoint]) -> str:
    """Render the sweep in the shape of the paper's narrative."""
    lines = [f"crossover sweep: {m} x {n} on {machine.name}",
             "=" * 60,
             f"{'nodes':>7} {'t_CA(s)':>10} {'t_SL(s)':>10} {'CA/SL':>7} "
             f"{'winner':>8}  best CA grid"]
    for pt in points:
        winner = "CA-CQR2" if pt.ca_wins else "ScaLAPACK"
        lines.append(f"{pt.nodes:>7} {pt.ca_seconds:>10.4f} {pt.sl_seconds:>10.4f} "
                     f"{pt.speedup:>7.2f} {winner:>8}  {pt.ca_grid}")
    cross = find_crossover(points)
    lines.append(f"crossover: {'N = ' + str(cross) if cross else 'not reached'}")
    return "\n".join(lines)
