"""Algorithm-comparison sweep: all five QR algorithms across scale.

Beyond the paper's CA-CQR2-vs-ScaLAPACK figures, this bench places every
algorithm in the repository's model on one axis -- CA-CQR2 (best feasible
grid), 1D-CQR2 (Algorithm 7), TSQR (reference [5]'s tall-skinny kernel),
CAQR (the idealized communication-avoiding 2D QR), and the PGEQRF model --
for a representative tall matrix on both machines.

The campaign is *declared* through the Study API
(:func:`repro.experiments.sweeps.algorithm_comparison_study`): one
(procs x algorithm) grid per machine, each point's best configuration
picked by the planner's screen at the default base case, so every
reported configuration is one its solver runs.
``REPRO_BENCH_TOY=1`` shrinks the grid to smoke-test sizes (the CI
benchmarks job); the paper-scale claims are only asserted at full size.
"""

from __future__ import annotations

import os

from benchmarks.common import archive

from repro.costmodel.params import BLUE_WATERS, STAMPEDE2
from repro.experiments.sweeps import (
    algorithm_comparison_study,
    fastest_at,
    format_sweep_table,
    series_from_table,
)

TOY = bool(os.environ.get("REPRO_BENCH_TOY"))
M, N = (2 ** 14, 2 ** 6) if TOY else (2 ** 21, 2 ** 10)
PROCS = ((2 ** 4, 2 ** 8) if TOY
         else (2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16))


def run_both():
    s2 = algorithm_comparison_study(M, N, STAMPEDE2, PROCS).run(parallel=False)
    bw = algorithm_comparison_study(M, N, BLUE_WATERS, PROCS).run(parallel=False)
    return s2, bw


def bench_algorithm_comparison(benchmark):
    s2_table, bw_table = benchmark(run_both)
    s2 = series_from_table(s2_table)
    bw = series_from_table(bw_table)
    text = (format_sweep_table(M, N, STAMPEDE2, s2)
            + "\n\n" + format_sweep_table(M, N, BLUE_WATERS, bw))
    archive("algorithm_comparison", text)

    # The study covers the full grid on both machines.
    assert len(s2_table) == len(PROCS) * 5
    assert "CA-CQR2" in s2 and bw

    if TOY:
        return

    # At the largest scale on Stampede2, CA-CQR2 decisively beats the
    # implemented baselines (PGEQRF, 1D); only the idealized CAQR model
    # rivals it.
    by = {label: {t.procs: t.seconds for t in ts} for label, ts in s2.items()}
    top = max(PROCS)
    assert by["CA-CQR2"][top] < by["PGEQRF"][top] / 2
    assert by["CA-CQR2"][top] < by["1D-CQR2"][top] / 2
    assert fastest_at(s2, top) in ("CA-CQR2", "CAQR")
    # At the smallest scale a 2D algorithm wins (compute-bound regime).
    assert fastest_at(s2, min(PROCS)) in ("PGEQRF", "CAQR")
