"""E4 -- Tables V & VI: per-line costs of CA-CQR and CA-CQR2."""

from __future__ import annotations

from benchmarks.common import archive

from repro.core.cacqr import ca_cqr, ca_cqr2
from repro.core.cfr3d import default_base_case
from repro.costmodel.tables import (
    ca_cqr2_lines,
    ca_cqr_lines,
    format_line_table,
    lane_cost,
)
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine

M, N, C, D = 2 ** 12, 64, 4, 16


def run_both():
    vm1 = VirtualMachine(C * C * D)
    g1 = Grid3D.tunable(vm1, C, D)
    ca_cqr(vm1, DistMatrix.symbolic(g1, M, N), phase="cacqr")

    vm2 = VirtualMachine(C * C * D)
    g2 = Grid3D.tunable(vm2, C, D)
    ca_cqr2(vm2, DistMatrix.symbolic(g2, M, N), phase="cacqr2")
    return vm1.report(), vm2.report()


def bench_tables5_6(benchmark):
    rep1, rep2 = benchmark(run_both)
    n0 = default_base_case(N, C)

    exp5 = ca_cqr_lines(M, N, C, D, n0)
    meas5 = {k: rep1.phase_total(k) for k in exp5}
    text5 = format_line_table(
        f"Table V: CA-CQR per-line costs (m={M}, n={N}, grid {C}x{D}x{C})",
        exp5, meas5)

    exp6 = ca_cqr2_lines(M, N, C, D, n0)
    meas6 = {k: rep2.phase_total(k) for k in exp6}
    text6 = format_line_table(
        f"Table VI: CA-CQR2 per-line costs (m={M}, n={N}, grid {C}x{D}x{C})",
        exp6, meas6)

    archive("table5_6_cacqr_lines", text5 + "\n\n" + text6)

    for k, e in exp5.items():
        assert meas5[k] == lane_cost(e), k
    for k, e in exp6.items():
        assert meas6[k] == lane_cost(e), k
    # Table V structure: the Gram dance's five lines cost what the paper
    # charges (bcast mn/dc over c, reduce/allreduce/bcast of n^2/c^2).
    mloc, nloc = M // D, N // C
    assert meas5["cacqr.bcast-w"].words == 2 * mloc * nloc
    assert meas5["cacqr.allreduce-roots"].words == 2 * nloc * nloc
