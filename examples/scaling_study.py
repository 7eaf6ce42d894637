"""A miniature of the paper's scaling study, through the Study API.

Run:  python examples/scaling_study.py

Reproduces, at reading speed, the shape of Figure 1: strong scaling of
CA-CQR2 vs the ScaLAPACK model on Stampede2 (CA-CQR2 wins at scale) and
the same sweep on Blue Waters (it does not), plus the planner's CA-CQR2
grid choice at each node count.

Each figure panel is one declarative campaign
(:func:`repro.experiments.scaling.strong_scaling_study`): a
(variant x nodes) grid executed uniformly through :mod:`repro.study`,
whose result table converts straight into the paper's reporting shape.
The numbers are identical to the pre-Study hand-rolled sweep.
"""

from repro import Session
from repro.core.tuning import GridShape
from repro.experiments.figures import FIG6, FIG7
from repro.experiments.report import format_best_series, format_series_table
from repro.experiments.scaling import (
    best_per_point,
    speedup_at,
    strong_scaling_study,
    strong_series_from_table,
)


def study(fig) -> None:
    table = strong_scaling_study(fig).run(parallel=False)
    series = strong_series_from_table(table)
    print(format_series_table(
        f"{fig.name}: {fig.m} x {fig.n} on {fig.machine.name} (Gf/s/node)",
        series))
    ca = best_per_point(series, "CA-CQR2")
    sl = best_per_point(series, "ScaLAPACK")
    print()
    print(format_best_series("best-variant comparison", ca, sl))
    print()


def autotuner_trace(fig) -> None:
    print(f"autotuned grids for {fig.m} x {fig.n} on {fig.machine.name}:")
    session = Session()
    for nodes in fig.nodes:
        procs = nodes * fig.machine.procs_per_node
        try:
            best = session.plan(m=fig.m, n=fig.n, procs=procs,
                                machine=fig.machine, algorithms=("ca_cqr2",),
                                inverse_depths=(0,), refine=None).best()
        except ValueError:
            continue
        shape = GridShape(c=best.spec_fields["c"], d=best.spec_fields["d"])
        print(f"  N={nodes:>5}: grid {shape} ({shape.subcubes} subcubes)")
    print()


def headline_speedup(fig, nodes: str) -> float:
    series = strong_series_from_table(
        strong_scaling_study(fig).run(parallel=False))
    return speedup_at(series, nodes)


def main() -> None:
    # Stampede2: the paper's headline win (Figure 7b).
    study(FIG7[1])
    autotuner_trace(FIG7[1])

    # Blue Waters: the counter-case (Figure 6b).
    study(FIG6[1])

    s2 = headline_speedup(FIG7[1], "1024")
    bw = headline_speedup(FIG6[1], "1024")
    print(f"CA-CQR2 / ScaLAPACK at 1024 nodes: "
          f"Stampede2 {s2:.2f}x  vs  Blue Waters {bw:.2f}x")
    print("-> communication-avoidance pays exactly where flops are cheap "
          "relative to bandwidth (the paper's architectural argument).")


if __name__ == "__main__":
    main()
