"""Reading and rendering the algorithm comparison.

The figure specs in :mod:`repro.experiments.figures` pin the paper's exact
variant tuples.  The algorithm comparison answers the question a *user*
of the library asks: "for my matrix on my machine, which algorithm
should I run, and how does the answer change with scale?"  It is a
planner study (:func:`repro.study.study_from_dict`) with a ``procs``
axis and an ``algorithms`` axis of one registered algorithm per point,
``block_sizes: [32]`` and ``inverse_depths: [0]``, so a newly registered
algorithm shows up in the comparison automatically, and it never
reports a configuration its solver would refuse to run.  ``repro study
-m M -n N -P 256,4096`` runs it from the command line;
:func:`series_from_table` reads its table and the reproduction record
renders it through :func:`format_sweep_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.costmodel.params import MachineSpec
from repro.engine import solver_for
from repro.study import ResultTable


@dataclass(frozen=True)
class AlgorithmTiming:
    """One algorithm's modeled time at one scale point."""

    algorithm: str
    procs: int
    seconds: float
    config: str


def series_from_table(table: ResultTable) -> Dict[str, List[AlgorithmTiming]]:
    """An algorithm-comparison planner study's table as ``label -> timings``.

    Each feasible row is one algorithm's best plan at one processor
    count, keyed by the solver's display label.
    """
    series: Dict[str, List[AlgorithmTiming]] = {}
    for row in table.rows:
        if not row.ok:
            continue
        timing = AlgorithmTiming(
            algorithm=solver_for(row.values["algorithm"]).label,
            procs=row.point["procs"], seconds=row.values["modeled_seconds"],
            config=row.values["config"])
        series.setdefault(timing.algorithm, []).append(timing)
    return series


def fastest_at(series: Dict[str, List[AlgorithmTiming]], procs: int) -> Optional[str]:
    """Which algorithm wins at a given processor count (None if unseen)."""
    best: Optional[Tuple[float, str]] = None
    for label, timings in series.items():
        for t in timings:
            if t.procs == procs and (best is None or t.seconds < best[0]):
                best = (t.seconds, label)
    return best[1] if best else None


def format_sweep_table(m: int, n: int, machine: MachineSpec,
                       series: Dict[str, List[AlgorithmTiming]]) -> str:
    """Render an algorithm-comparison sweep (modeled seconds per algorithm)."""
    title = f"algorithm comparison: {m} x {n} on {machine.name} (modeled seconds)"
    if not series:
        return "\n".join([title, "=" * 72, "no feasible points"])
    procs_order: List[int] = []
    for timings in series.values():
        for t in timings:
            if t.procs not in procs_order:
                procs_order.append(t.procs)
    procs_order.sort()
    label_w = max(len(s) for s in series) + 2
    lines = [title,
             "=" * 72,
             " " * label_w + "".join(f"{p:>11}" for p in procs_order)]
    for label, timings in series.items():
        by_p = {t.procs: t for t in timings}
        cells = []
        for p in procs_order:
            cells.append(f"{by_p[p].seconds:>11.4f}" if p in by_p else f"{'-':>11}")
        lines.append(label.ljust(label_w) + "".join(cells))
    winners = [fastest_at(series, p) or "-" for p in procs_order]
    lines.append("winner".ljust(label_w)
                 + "".join(f"{w:>11}" for w in winners))
    return "\n".join(lines)
