"""E7 -- Figure 4 (a,b,c): weak scaling on Blue Waters.

The contrast panel: on Blue Waters (8x lower flops-to-bandwidth ratio than
Stampede2, slower cores), ScaLAPACK's PGEQRF beats every CA-CQR2 variant
across the weak-scaling ladder -- communication-avoidance does not pay
when bandwidth is plentiful relative to compute.
"""

from __future__ import annotations

from benchmarks.common import archive, render_weak_figure

from repro.experiments.figures import FIG4
from repro.experiments.scaling import (speedup_at, weak_scaling_study,
                                       weak_series_from_table)


def evaluate_all():
    return {fig.name: weak_series_from_table(
                weak_scaling_study(fig).run(parallel=False))
            for fig in FIG4}


def bench_fig4(benchmark):
    all_series = benchmark(evaluate_all)
    text = "\n\n".join(render_weak_figure(fig) for fig in FIG4)
    archive("fig4_weak_bluewaters", text)

    for fig in FIG4:
        series = all_series[fig.name]
        for x in ("(2,1)", "(2,2)", "(8,4)"):
            sp = speedup_at(series, x)
            if sp is not None:
                assert sp < 1.05, (
                    f"{fig.name} at {x}: CA-CQR2 must not beat ScaLAPACK on BW")
