"""E14 -- ablation: the c-sweep interpolation from 1D to 3D (Section III-B).

At fixed P and matrix size, sweeping the grid parameter ``c`` from 1 (the
1D algorithm) to P^(1/3) (the cubic 3D algorithm) interpolates the cost
structure of Table I: latency rises as ``c^2 log P``, the Gram-term
bandwidth falls as ``n^2/c^2``, the redundant-compute term falls as
``n^3/c^3``, and the memory footprint rises with replication.  The paper's
``m/d = n/c`` rule and the model-driven planner both pick an interior
``c`` for an interior aspect ratio.
"""

from __future__ import annotations

from benchmarks.common import archive

from repro import Session
from repro.core.cfr3d import default_base_case
from repro.core.tuning import GridShape, feasible_grids, optimal_grid
from repro.costmodel.memory import ca_cqr2_memory
from repro.costmodel.params import STAMPEDE2
from repro.costmodel.performance import ExecutionModel
from repro.costmodel.tables import ca_cqr2_lines, lane_cost, total

M, N, PROCS = 2 ** 21, 2 ** 11, 2 ** 12


def sweep():
    model = ExecutionModel(STAMPEDE2)
    rows = []
    for shape in feasible_grids(M, N, PROCS):
        n0 = default_base_case(N, shape.c)
        cost = lane_cost(total(ca_cqr2_lines(M, N, shape.c, shape.d, n0)))
        rows.append((shape, cost, ca_cqr2_memory(M, N, shape.c, shape.d),
                     model.seconds(cost)))
    return rows


def bench_gridshape(benchmark):
    rows = benchmark(sweep)
    best = Session().plan(m=M, n=N, procs=PROCS, machine=STAMPEDE2,
                          algorithms=("ca_cqr2",), inverse_depths=(0,),
                          refine=None).best()
    picked = GridShape(c=best.spec_fields["c"], d=best.spec_fields["d"])
    rule = optimal_grid(M, N, PROCS)
    lines = [f"Grid-shape ablation: CA-CQR2 {M} x {N}, P = {PROCS} (Stampede2)",
             "=" * 76,
             f"{'grid':>10} {'msgs':>10} {'words':>12} {'flops':>13} "
             f"{'mem(words)':>12} {'t(s)':>8}"]
    for shape, cost, mem, t in rows:
        tag = " <- autotuned" if shape == picked else (
            " <- m/d=n/c rule" if shape == rule else "")
        lines.append(f"{shape!s:>10} {cost.messages:>10.0f} {cost.words:>12.0f} "
                     f"{cost.flops:>13.3g} {mem:>12.0f} {t:>8.3f}{tag}")
    archive("ablation_gridshape", "\n".join(lines))

    by_c = {shape.c: (cost, mem) for shape, cost, mem, _ in rows}
    cs = sorted(by_c)
    assert cs[0] == 1 and cs[-1] >= 8, "sweep must span 1D to 3D"
    # Latency monotone up in c; redundant flops monotone down.
    msgs = [by_c[c][0].messages for c in cs]
    flops = [by_c[c][0].flops for c in cs]
    assert msgs == sorted(msgs)
    assert flops == sorted(flops, reverse=True)
    # The paper's rule and the planner land on an interior grid here.
    assert 1 < rule.c < PROCS ** (1 / 3) + 1
