"""E13 -- ablation: the InverseDepth / base-case-size trade-off.

Section II-D: the CFR3D base-case size ``n0`` trades synchronization
against communication and redundant compute -- smaller ``n0`` means more
recursion levels (more latency) but less redundant base-case CholInv work;
the paper's strong-scaling tuples carry this knob as ``InverseDepth``.
This bench sweeps InverseDepth at a fixed problem and prints the resulting
(messages, words, flops) and modeled time on both machines.
"""

from __future__ import annotations

from benchmarks.common import archive

from repro.core.tuning import inverse_depth_to_base_case
from repro.costmodel.params import BLUE_WATERS, STAMPEDE2
from repro.costmodel.performance import ExecutionModel
from repro.costmodel.tables import ca_cqr2_lines, lane_cost, total

M, N, C, D = 2 ** 21, 2 ** 12, 8, 2 ** 15 // (8 * 8) * 8  # P = c^2 d


def sweep():
    rows = []
    for depth in range(0, 5):
        n0 = inverse_depth_to_base_case(N, C, depth)
        cost = lane_cost(total(ca_cqr2_lines(M, N, C, D, n0)))
        t_s2 = ExecutionModel(STAMPEDE2).seconds(cost)
        t_bw = ExecutionModel(BLUE_WATERS).seconds(cost)
        rows.append((depth, n0, cost, t_s2, t_bw))
    return rows


def bench_inversedepth(benchmark):
    rows = benchmark(sweep)
    lines = [f"InverseDepth ablation: CA-CQR2 {M} x {N} on {C}x{D}x{C}",
             "=" * 72,
             f"{'depth':>5} {'n0':>6} {'msgs':>10} {'words':>12} "
             f"{'flops':>14} {'t(S2)':>9} {'t(BW)':>9}"]
    for depth, n0, cost, t_s2, t_bw in rows:
        lines.append(f"{depth:>5} {n0:>6} {cost.messages:>10.0f} "
                     f"{cost.words:>12.0f} {cost.flops:>14.3g} "
                     f"{t_s2:>9.3f} {t_bw:>9.3f}")
    archive("ablation_inversedepth", "\n".join(lines))

    # The trade: each extra level adds latency and removes redundant flops.
    msgs = [r[2].messages for r in rows]
    flops = [r[2].flops for r in rows]
    assert msgs == sorted(msgs)
    assert flops == sorted(flops, reverse=True)
    # Distinct depths actually change the cutoff (not saturated).
    assert rows[0][1] > rows[2][1]
