"""Plain-text rendering of experiment results in the paper's reporting shape.

The paper's figures plot Gigaflops/s/node against node count (strong
scaling) or ladder position (weak scaling), one curve per variant tuple.
:func:`format_series_table` prints exactly those series as an aligned text
table with one column per x position, so a reader can compare against the
paper's plots point by point; :func:`format_best_series` is Figure 1's
best-of view and :func:`format_accuracy_table` the stability ladder.  The
reproduction record (:mod:`repro.experiments.reproduction`) and
``repro figures`` / ``repro accuracy`` print through these renderers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.accuracy import AccuracyRow
from repro.experiments.scaling import SeriesPoint


def format_series_table(title: str, series: Dict[str, List[SeriesPoint]],
                        value_fmt: str = "{:8.1f}") -> str:
    """Render ``label -> points`` as an aligned table (one column per x)."""
    x_order: List[str] = []
    for points in series.values():
        for pt in points:
            if pt.x_label not in x_order:
                x_order.append(pt.x_label)
    if not x_order:
        return "\n".join([title, "=" * len(title), "no feasible points"])
    label_width = max((len(s) for s in series), default=10)
    col_width = max(9, max((len(x) for x in x_order), default=4) + 1)

    lines = [title, "=" * len(title)]
    header = " " * label_width + "".join(x.rjust(col_width) for x in x_order)
    lines.append(header)
    for label, points in series.items():
        by_x = {p.x_label: p for p in points}
        cells = []
        for x in x_order:
            if x in by_x:
                cells.append(value_fmt.format(by_x[x].gigaflops_per_node).rjust(col_width))
            else:
                cells.append("-".rjust(col_width))
        lines.append(label.ljust(label_width) + "".join(cells))
    return "\n".join(lines)


def format_best_series(title: str, best_ca: List[SeriesPoint],
                       best_sl: List[SeriesPoint]) -> str:
    """Figure-1-style summary: best CA-CQR2 vs best ScaLAPACK plus speedups."""
    lines = [title, "=" * len(title)]
    sl_by_x = {p.x_label: p for p in best_sl}
    lines.append(f"{'x':>10} {'CA-CQR2':>10} {'ScaLAPACK':>10} {'speedup':>8}")
    for pt in best_ca:
        sl = sl_by_x.get(pt.x_label)
        if sl is None or sl.gigaflops_per_node <= 0:
            lines.append(f"{pt.x_label:>10} {pt.gigaflops_per_node:>10.1f} {'-':>10} {'-':>8}")
        else:
            sp = pt.gigaflops_per_node / sl.gigaflops_per_node
            lines.append(f"{pt.x_label:>10} {pt.gigaflops_per_node:>10.1f} "
                         f"{sl.gigaflops_per_node:>10.1f} {sp:>8.2f}")
    return "\n".join(lines)


def format_accuracy_table(rows: Sequence[AccuracyRow],
                          value_fmt: str = "{:>16.2e}") -> str:
    """Render the stability sweep: one row per condition number."""
    lines = ["Accuracy study: orthogonality ||Q'Q - I||_2 and relative residual",
             "-" * 72]
    conditions: List[float] = []
    for r in rows:
        if r.condition not in conditions:
            conditions.append(r.condition)
    algos: List[str] = []
    for r in rows:
        if r.algorithm not in algos:
            algos.append(r.algorithm)
    header = f"{'kappa(A)':>10} " + "".join(f"{a:>16}" for a in algos)
    lines.append(header)
    by_key = {(r.algorithm, r.condition): r for r in rows}
    for cond in conditions:
        cells = []
        for a in algos:
            r = by_key.get((a, cond))
            if r is None:
                cells.append(f"{'-':>16}")
            elif r.failed:
                cells.append(f"{'BREAKDOWN':>16}")
            else:
                cells.append(value_fmt.format(r.orthogonality))
        lines.append(f"{cond:>10.0e} " + "".join(cells))
    return "\n".join(lines)
