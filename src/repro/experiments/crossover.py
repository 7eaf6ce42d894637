"""Crossover analysis: where does CA-CQR2 start beating the 2D baseline?

The paper's strong-scaling story is a crossover story: ScaLAPACK wins at
small node counts (CQR2's ~2x flop overhead dominates), CA-CQR2 wins at
large ones (2D QR's communication dominates).  This module declares the
analysis as a :class:`repro.study.Study` -- :func:`crossover_study`
sweeps a (nodes x side) grid comparing each side's best runnable
configuration under the validated cost model -- the quantitative form of
the paper's "at higher node counts, the asymptotic communication
improvement is expected to be of greater benefit".  Each side's best is
the planner's screen restricted to that side's algorithm, so both sides
are priced by the same path as :mod:`repro.plan` and every reported
configuration passes its solver's capability checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.costmodel.params import MachineSpec
from repro.plan import PlanResult, ProblemSpec
from repro.study import Axis, RawField, ResultTable, Study
from repro.study.builtin import _planned_evaluate
from repro.utils.validation import check_positive_int, require


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


#: Each side's planning restriction: CA-CQR2 at the default base case
#: (inverse depth 0), PGEQRF over three panel widths.
_SIDES = {"ca": {"algorithms": ("ca_cqr2",), "inverse_depths": (0,)},
          "scalapack": {"algorithms": ("scalapack",),
                        "block_sizes": (16, 32, 64)}}


def crossover_study(m: int, n: int, machine: MachineSpec,
                    node_counts: Sequence[int],
                    name: Optional[str] = None) -> Study:
    """The crossover campaign: best-vs-best modeled seconds per node count.

    Axes are the node ladder and the two sides (``ca`` = CA-CQR2's best
    feasible ``c x d x c`` grid, ``scalapack`` = PGEQRF's best runnable
    ``pr x pc x b``); metrics are the modeled seconds and the winning
    configuration label.
    """
    check_positive_int(m, "m")
    check_positive_int(n, "n")
    require(m >= n, f"need a tall matrix, got {m}x{n}")
    axes = (Axis("nodes", tuple(node_counts)),
            Axis("side", tuple(_SIDES)))

    def problem(point: Dict[str, object]) -> ProblemSpec:
        return ProblemSpec(m=m, n=n,
                           procs=point["nodes"] * machine.procs_per_node,
                           machine=machine, **_SIDES[point["side"]])

    def row(result: PlanResult) -> dict:
        best = result.best()
        return {"modeled_seconds": best.seconds, "config": best.config}

    return Study(
        name=name or f"crossover-{m}x{n}-{machine.name}",
        description=f"best CA-CQR2 vs best ScaLAPACK, {m} x {n} on "
                    f"{machine.name}",
        axes=axes,
        metrics=(RawField("modeled_seconds", "{:.4f}"),
                 RawField("config", "{}")),
        evaluate=_planned_evaluate(axes, problem, row),
        params={"m": m, "n": n, "machine": machine.name})


def points_from_table(table: ResultTable) -> List[CrossoverPoint]:
    """A crossover study's table as a best-vs-best point list.

    Node counts where either side has no feasible configuration are
    omitted.
    """
    points: List[CrossoverPoint] = []
    nodes_seen: List[int] = []
    for row in table.rows:
        if row.point["nodes"] not in nodes_seen:
            nodes_seen.append(row.point["nodes"])
    for nodes in nodes_seen:
        ca = table.first(nodes=nodes, side="ca")
        sl = table.first(nodes=nodes, side="scalapack")
        if ca is None or not ca.ok or sl is None or not sl.ok:
            continue
        points.append(CrossoverPoint(
            nodes=nodes, ca_seconds=ca.values["modeled_seconds"],
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
