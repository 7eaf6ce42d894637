"""E8 -- Figure 5 (a-d): weak scaling on Stampede2.

Regenerates the four weak-scaling panels (``Nodes = 8 a b**2`` ladder).
The paper's headline: CA-CQR2 beats ScaLAPACK at the largest point (8,4)
= 1024 nodes by 1.1x / 1.3x / 1.7x / 1.9x, the win growing with the
row-to-column ratio across panels.
"""

from __future__ import annotations

from benchmarks.common import archive, render_weak_figure

from repro.experiments.figures import FIG5
from repro.experiments.scaling import (speedup_at, weak_scaling_study,
                                       weak_series_from_table)


def evaluate_all():
    return {fig.name: weak_series_from_table(
                weak_scaling_study(fig).run(parallel=False))
            for fig in FIG5}


def bench_fig5(benchmark):
    all_series = benchmark(evaluate_all)
    text = "\n\n".join(render_weak_figure(fig) for fig in FIG5)
    archive("fig5_weak_stampede2", text)

    speedups = []
    for fig in FIG5:
        sp = speedup_at(all_series[fig.name], "(8,4)")
        assert sp is not None
        assert 1.0 < sp < 2.6, f"{fig.name}: {sp:.2f}x out of the paper's band"
        speedups.append(sp)
    # The widest-matrix panel (fig5a) shows the smallest win, as in the paper.
    assert speedups[0] == min(speedups)
