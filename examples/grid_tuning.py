"""Choosing the processor grid: the c-sweep and what it buys.

Run:  python examples/grid_tuning.py

For a fixed problem and processor count, enumerates every feasible
``c x d x c`` grid and prints the modeled latency / bandwidth / compute /
memory trade (Table I's interpolation from 1D to 3D), the paper's
``m/d = n/c`` rule, and the planner's pick on both machines (its
model-driven search restricted to CA-CQR2 grids).
"""

from repro import Session
from repro.core.cfr3d import default_base_case
from repro.core.tuning import GridShape, feasible_grids, optimal_grid
from repro.costmodel.memory import ca_cqr2_memory, replication_overhead
from repro.costmodel.params import BLUE_WATERS, STAMPEDE2
from repro.costmodel.performance import ExecutionModel
from repro.costmodel.tables import ca_cqr2_lines, lane_cost, total

M, N, PROCS = 2 ** 20, 2 ** 10, 2 ** 12


def planned_grid(machine) -> GridShape:
    """The CA-CQR2 grid minimizing modeled time on *machine*."""
    best = Session().plan(m=M, n=N, procs=PROCS, machine=machine,
                          algorithms=("ca_cqr2",), inverse_depths=(0,),
                          refine=None).best()
    return GridShape(c=best.spec_fields["c"], d=best.spec_fields["d"])


def main() -> None:
    print(f"problem: {M} x {N}  (m/n = {M // N}),  P = {PROCS}")
    print()
    header = (f"{'grid':>12} {'msgs':>10} {'words':>12} {'flops':>12} "
              f"{'mem(words)':>11} {'mem/2D':>7} {'t_S2(s)':>8} {'t_BW(s)':>8}")
    print(header)
    print("-" * len(header))
    s2 = ExecutionModel(STAMPEDE2)
    bw = ExecutionModel(BLUE_WATERS)
    for shape in feasible_grids(M, N, PROCS):
        cost = lane_cost(total(ca_cqr2_lines(M, N, shape.c, shape.d,
                                             default_base_case(N, shape.c))))
        mem = ca_cqr2_memory(M, N, shape.c, shape.d)
        over = replication_overhead(M, N, shape.c, shape.d)
        print(f"{shape!s:>12} {cost.messages:>10.0f} {cost.words:>12.0f} "
              f"{cost.flops:>12.3g} {mem:>11.0f} {over:>7.1f} "
              f"{s2.seconds(cost):>8.3f} {bw.seconds(cost):>8.3f}")
    print()
    rule = optimal_grid(M, N, PROCS)
    print(f"paper's m/d = n/c rule        : {rule}")
    print(f"autotuned for Stampede2       : {planned_grid(STAMPEDE2)}")
    print(f"autotuned for Blue Waters     : {planned_grid(BLUE_WATERS)}")
    print()
    print("Reading guide: larger c buys bandwidth (words fall ~1/c^2 on the")
    print("Gram side) and removes redundant compute, at the price of c^2 log P")
    print("synchronization and ~c-fold memory replication -- Section III-B's")
    print("interpolation between 1D-CQR2 (c=1) and 3D-CQR2 (c=P^(1/3)).")


if __name__ == "__main__":
    main()
