"""Crossover analysis bench: where CA-CQR2 overtakes the 2D baseline.

Not a single paper figure but the quantitative form of its central
narrative: sweeping node counts with best-vs-best configurations, CA-CQR2
overtakes ScaLAPACK at some node count on Stampede2 and stays ahead, while
on Blue Waters the crossover does not arrive within the swept range.

The campaign is *declared* through the Study API
(:func:`repro.experiments.crossover.crossover_study`): one (nodes x side)
grid per machine, each side's best configuration picked by the planner's
screen, so the ScaLAPACK side only ever reports grids PGEQRF accepts
(``pc | b``).  ``REPRO_BENCH_TOY=1`` shrinks the grid to smoke-test
sizes; the paper-scale claims are only asserted at full size.
"""

from __future__ import annotations

import os

from benchmarks.common import archive

from repro.costmodel.params import BLUE_WATERS, STAMPEDE2
from repro.experiments.crossover import (
    crossover_study,
    find_crossover,
    format_crossover_table,
    points_from_table,
)

TOY = bool(os.environ.get("REPRO_BENCH_TOY"))
M, N = (2 ** 15, 2 ** 7) if TOY else (2 ** 21, 2 ** 12)
NODES = ((16, 64, 256) if TOY
         else (16, 32, 64, 128, 256, 512, 1024, 2048, 4096))


def run_both_machines():
    s2 = crossover_study(M, N, STAMPEDE2, NODES).run(parallel=False)
    bw = crossover_study(M, N, BLUE_WATERS, NODES).run(parallel=False)
    return s2, bw


def bench_crossover(benchmark):
    s2_table, bw_table = benchmark(run_both_machines)
    s2 = points_from_table(s2_table)
    bw = points_from_table(bw_table)
    text = (format_crossover_table(M, N, STAMPEDE2, s2)
            + "\n\n" + format_crossover_table(M, N, BLUE_WATERS, bw))
    archive("crossover", text)

    # The study covers both sides of every node count.
    assert len(s2_table) == len(NODES) * 2
    assert s2 and bw

    if TOY:
        return

    cross_s2 = find_crossover(s2)
    cross_bw = find_crossover(bw)
    assert cross_s2 is not None and cross_s2 <= 1024
    assert cross_bw is None or cross_bw > cross_s2
    assert s2[-1].speedup > 1.5
    # Speedup grows monotonically toward scale on Stampede2.
    speedups = [p.speedup for p in s2 if p.nodes >= 64]
    assert speedups == sorted(speedups)
