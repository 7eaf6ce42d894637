"""E5 -- Figure 1(a): headline strong-scaling comparison on Stampede2.

The paper's Figure 1(a) shows, for four matrix shapes (2^25 x 2^10 down to
2^19 x 2^13), the best-performing grid choice at each node count for both
CA-CQR2 and ScaLAPACK.  This bench rebuilds it as the best-per-point
reduction over the Figure 7 panels, and asserts the headline 2.6x-3.3x
strong-scaling wins at 1024 nodes.
"""

from __future__ import annotations

from benchmarks.common import archive

from repro.experiments.figures import FIG1A_SOURCES
from repro.experiments.report import format_best_series
from repro.experiments.scaling import (best_per_point, strong_scaling_study,
                                       strong_series_from_table)


def evaluate_best():
    out = {}
    for fig in FIG1A_SOURCES:
        series = strong_series_from_table(
            strong_scaling_study(fig).run(parallel=False))
        out[fig.name] = (fig, best_per_point(series, "CA-CQR2"),
                         best_per_point(series, "ScaLAPACK"))
    return out


def bench_fig1a(benchmark):
    results = benchmark(evaluate_best)
    blocks = []
    for fig, ca, sl in results.values():
        blocks.append(format_best_series(
            f"fig1a[{fig.m} x {fig.n}]: best variants (Gigaflops/s/node)", ca, sl))
    archive("fig1a_strong_stampede2", "\n\n".join(blocks))

    for name, (_fig, ca, sl) in results.items():
        ca_by, sl_by = {p.x_label: p for p in ca}, {p.x_label: p for p in sl}
        ratio = ca_by["1024"].gigaflops_per_node / sl_by["1024"].gigaflops_per_node
        assert 1.8 < ratio < 4.5, f"{name}: {ratio:.2f}x at 1024 nodes"
        # CA-CQR2's best curve must decay more slowly than ScaLAPACK's.
        ca_decay = ca_by["64"].gigaflops_per_node / ca_by["1024"].gigaflops_per_node
        sl_decay = sl_by["64"].gigaflops_per_node / sl_by["1024"].gigaflops_per_node
        assert ca_decay < sl_decay
