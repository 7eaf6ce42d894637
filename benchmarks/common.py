"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints
the resulting series in the paper's reporting shape (Gigaflops/s/node per
variant per scaling point), and archives the rendered table under
``benchmarks/results/`` so EXPERIMENTS.md can reference the exact output.

``pytest-benchmark`` times the harness evaluation itself (the analytic
model and/or the virtual-MPI simulation); the interesting *scientific*
output is the printed table, and each bench also asserts the paper's
qualitative claim so regressions in the model or algorithms fail loudly.

Benches that execute whole algorithms dispatch through
:mod:`repro.engine` (RunSpec + the registry) rather than hand-wiring the
VM/grid/distribute pipeline; only the per-line ledger studies, which need
custom phase prefixes on unregistered single-pass variants, still touch
the substrate directly.
"""

from __future__ import annotations

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def archive(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print()
    print(text)


def series_dict_to_markdown(series) -> str:
    """Compact alternative rendering used by a few archives."""
    lines = []
    for label, points in series.items():
        cells = ", ".join(f"{p.x_label}:{p.gigaflops_per_node:.1f}" for p in points)
        lines.append(f"- {label}: {cells}")
    return "\n".join(lines)


def render_strong_figure(fig) -> str:
    """Evaluate + render one strong-scaling panel with its speedup row."""
    from repro.experiments.report import format_series_table
    from repro.experiments.scaling import (speedup_at, strong_scaling_study,
                                           strong_series_from_table)

    series = strong_series_from_table(
        strong_scaling_study(fig).run(parallel=False))
    text = format_series_table(
        f"{fig.name}: {fig.m} x {fig.n} on {fig.machine.name} "
        f"(Gigaflops/s/node; paper: {fig.paper_note})", series)
    speed_cells = []
    for nodes in fig.nodes:
        sp = speedup_at(series, str(nodes))
        speed_cells.append(f"{nodes}:{sp:.2f}x" if sp else f"{nodes}:-")
    return text + "\nbest-CA / best-ScaLAPACK  " + "  ".join(speed_cells)


def render_weak_figure(fig) -> str:
    """Evaluate + render one weak-scaling panel with its speedup row."""
    from repro.experiments.report import format_series_table
    from repro.experiments.scaling import (speedup_at, weak_scaling_study,
                                           weak_series_from_table)

    series = weak_series_from_table(
        weak_scaling_study(fig).run(parallel=False))
    text = format_series_table(
        f"{fig.name}: {fig.base_m}*a x {fig.base_n}*b on {fig.machine.name} "
        f"(Gigaflops/s/node; paper: {fig.paper_note})", series)
    speed_cells = []
    for (a, b) in fig.ladder:
        x = f"({a},{b})"
        sp = speedup_at(series, x)
        speed_cells.append(f"{x}:{sp:.2f}x" if sp else f"{x}:-")
    return text + "\nbest-CA / best-ScaLAPACK  " + "  ".join(speed_cells)
