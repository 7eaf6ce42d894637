"""Generic algorithm-comparison sweeps, declared as a :class:`repro.study.Study`.

The figure specs in :mod:`repro.experiments.figures` pin the paper's exact
variant tuples.  This module answers the question a *user* of the library
asks: "for my matrix on my machine, which algorithm should I run, and how
does the answer change with scale?"  It compares the modeled time of every
applicable algorithm across a processor sweep.

The campaign is :func:`algorithm_comparison_study`: an
(procs x algorithm) grid whose points are priced by the planner's
screen -- one screen-only lattice search restricted to one algorithm per
point, keeping its cheapest configuration -- so a newly registered
algorithm (its :meth:`~repro.engine.Solver.plan_candidates` and
:meth:`~repro.engine.Solver.screen_costs`) shows up in these sweeps
automatically, and a sweep never reports a configuration its solver
would refuse to run.  The study inherits streaming execution, JSONL
persistence/resume, and filter/pivot/rendering from :mod:`repro.study`
for free.  ``repro study -m M -n N -P 256,4096`` runs it from the
command line; the reproduction record renders it through
:func:`format_sweep_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.costmodel.params import MachineSpec
from repro.engine import solver_for, solvers
from repro.plan import PlanResult, ProblemSpec
from repro.study import Axis, RawField, ResultTable, Study
from repro.study.builtin import _planned_evaluate
from repro.utils.validation import require


@dataclass(frozen=True)
class AlgorithmTiming:
    """One algorithm's modeled time at one scale point."""

    algorithm: str
    procs: int
    seconds: float
    config: str


def algorithm_comparison_study(m: int, n: int, machine: MachineSpec,
                               proc_counts: Sequence[int],
                               block_size: int = 32,
                               algorithms: Optional[Sequence[str]] = None,
                               name: Optional[str] = None) -> Study:
    """The algorithm-comparison campaign: modeled best time per algorithm.

    Axes are the processor ladder and every registered algorithm (or an
    explicit subset, aliases named by their solver); metrics are the
    modeled seconds and the winning configuration label.  Each point is one algorithm's planning problem
    at the study's panel width and the default base case (inverse depth
    0); points where the algorithm is structurally inapplicable (TSQR
    needs ``m/P >= n``; 1D needs ``P | m``; CA needs a feasible grid) are
    ``None`` rows, mirroring how a practitioner's options narrow.
    """
    require(m >= n, f"need a tall matrix, got {m}x{n}")
    if algorithms is None:
        algorithms = [s.name for s in solvers()]
    axes = (Axis("procs", tuple(proc_counts)),
            Axis("algorithm", tuple(solver_for(a).name for a in algorithms)))

    def problem(point: Dict[str, object]) -> ProblemSpec:
        return ProblemSpec(m=m, n=n, procs=point["procs"], machine=machine,
                           algorithms=(point["algorithm"],),
                           block_sizes=(block_size,), inverse_depths=(0,))

    def row(result: PlanResult) -> dict:
        best = result.best()
        return {"label": solver_for(best.algorithm).label,
                "modeled_seconds": best.seconds, "config": best.config}

    return Study(
        name=name or f"algorithm-comparison-{m}x{n}-{machine.name}",
        description=f"modeled best time per algorithm, {m} x {n} on "
                    f"{machine.name}",
        axes=axes,
        metrics=(RawField("label", "{}"),
                 RawField("modeled_seconds", "{:.4f}"),
                 RawField("config", "{}")),
        evaluate=_planned_evaluate(axes, problem, row),
        params={"m": m, "n": n, "machine": machine.name,
                "block_size": block_size})


def series_from_table(table: ResultTable) -> Dict[str, List[AlgorithmTiming]]:
    """An algorithm-comparison study's table as ``label -> timings`` series."""
    series: Dict[str, List[AlgorithmTiming]] = {}
    for row in table.rows:
        if not row.ok:
            continue
        timing = AlgorithmTiming(algorithm=row.values["label"],
                                 procs=row.point["procs"],
                                 seconds=row.values["modeled_seconds"],
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
