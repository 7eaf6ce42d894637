"""E3 -- Tables III & IV: per-line costs of 1D-CQR and 1D-CQR2."""

from __future__ import annotations

from benchmarks.common import archive

from repro.core.cqr_1d import cqr2_1d, cqr_1d
from repro.costmodel.tables import (
    cqr2_1d_lines,
    cqr_1d_lines,
    format_line_table,
    lane_cost,
)
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine

M, N, PROCS = 2 ** 14, 64, 64


def run_both():
    vm1 = VirtualMachine(PROCS)
    g1 = Grid3D.build(vm1, 1, PROCS, 1)
    cqr_1d(vm1, DistMatrix.symbolic(g1, M, N), phase="cqr1d")

    vm2 = VirtualMachine(PROCS)
    g2 = Grid3D.build(vm2, 1, PROCS, 1)
    cqr2_1d(vm2, DistMatrix.symbolic(g2, M, N), phase="cqr2-1d")
    return vm1.report(), vm2.report()


def bench_tables3_4(benchmark):
    rep1, rep2 = benchmark(run_both)

    exp3 = cqr_1d_lines(M, N, PROCS)
    meas3 = {k: rep1.phase_total(k) for k in exp3}
    text3 = format_line_table(
        f"Table III: 1D-CQR per-line costs (m={M}, n={N}, P={PROCS})", exp3, meas3)

    exp4 = cqr2_1d_lines(M, N, PROCS)
    meas4 = {k: rep2.phase_total(k) for k in exp4}
    text4 = format_line_table(
        f"Table IV: 1D-CQR2 per-line costs (m={M}, n={N}, P={PROCS})", exp4, meas4)

    archive("table3_4_cqr1d_lines", text3 + "\n\n" + text4)

    for k, e in exp3.items():
        assert meas3[k] == lane_cost(e), k
    for k, e in exp4.items():
        assert meas4[k] == lane_cost(e), k
    # Table III structure: one allreduce of 2n^2 words is the only
    # communication; the n^3 CholInv is redundant on every rank.
    assert meas3["cqr1d.allreduce"].words == 2 * N * N
    assert meas3["cqr1d.cholinv"].flops == N ** 3
