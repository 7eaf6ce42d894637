"""E6 -- Figure 1(b): headline weak-scaling comparison on Stampede2.

Figure 1(b) is the best-variant view over the Figure 5 weak-scaling family
(131072*a*c x 1024*b*d): CA-CQR2 beats ScaLAPACK by 1.1x-1.9x at the
largest ladder point, with the win growing as the matrix family gets
taller and skinnier.
"""

from __future__ import annotations

from benchmarks.common import archive

from repro.experiments.figures import FIG1B_SOURCES
from repro.experiments.report import format_best_series
from repro.experiments.scaling import (best_per_point, weak_scaling_study,
                                       weak_series_from_table)


def evaluate_best():
    out = {}
    for fig in FIG1B_SOURCES:
        series = weak_series_from_table(
            weak_scaling_study(fig).run(parallel=False))
        out[fig.name] = (fig, best_per_point(series, "CA-CQR2"),
                         best_per_point(series, "ScaLAPACK"))
    return out


def bench_fig1b(benchmark):
    results = benchmark(evaluate_best)
    blocks = []
    for fig, ca, sl in results.values():
        blocks.append(format_best_series(
            f"fig1b[{fig.base_m}*a x {fig.base_n}*b]: best variants "
            f"(Gigaflops/s/node)", ca, sl))
    archive("fig1b_weak_stampede2", "\n\n".join(blocks))

    ratios = []
    for _fig, ca, sl in results.values():
        ca_by = {p.x_label: p for p in ca}
        sl_by = {p.x_label: p for p in sl}
        if "(8,4)" in ca_by and "(8,4)" in sl_by:
            ratios.append(ca_by["(8,4)"].gigaflops_per_node
                          / sl_by["(8,4)"].gigaflops_per_node)
    assert ratios, "no (8,4) points evaluated"
    assert all(1.0 < r < 2.6 for r in ratios), ratios
