"""E2 -- Table II: per-line costs of CFR3D, measured vs expected.

Runs CFR3D symbolically on the virtual machine and re-derives the paper's
per-line cost attribution from the phase-labeled ledger, printing it next
to the closed-form line table (which must match exactly).
The benchmark times the full symbolic execution.
"""

from __future__ import annotations

from benchmarks.common import archive

from repro.core.cfr3d import cfr3d
from repro.costmodel.tables import cfr3d_lines, format_line_table, lane_cost
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine

N, P, N0 = 256, 4, 16


def run_cfr3d_symbolic():
    vm = VirtualMachine(P ** 3)
    grid = Grid3D.cubic(vm, P)
    cfr3d(vm, DistMatrix.symbolic(grid, N, N), N0, phase="cfr3d")
    return vm.report()


def bench_table2(benchmark):
    report = benchmark(run_cfr3d_symbolic)
    lines = cfr3d_lines(N, P, N0)
    expected = {k: lane_cost(v) for k, v in lines.items()}
    measured = {k: report.phase_total(k) for k in expected}
    text = format_line_table(
        f"Table II: CFR3D per-line costs (n={N}, grid {P}^3, n0={N0})",
        lines, measured)
    archive("table2_cfr3d_lines", text)

    for key, exp in expected.items():
        assert measured[key] == exp, key
    # Table II structure: the four MM3D lines dominate bandwidth, the base
    # case dominates latency.
    mm_words = sum(v.words for k, v in expected.items() if ".mm3d-" in k)
    assert mm_words > expected["cfr3d.basecase.allgather"].words
    assert expected["cfr3d.basecase.allgather"].messages > 0
