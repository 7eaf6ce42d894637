"""The reproduction record: every number of the paper's evaluation, in one text.

:func:`record` renders, in one pass, each figure panel of Figures 1 and
4-7 beside the paper's stated headline, Table I's asymptotics, Tables
II-VI's per-line costs against the virtual machine's ledgers, the
crossover points, the algorithm comparison, Section IV's flop-count
claims, three ablations and the accuracy study.  ``REPRODUCTION.md`` at
the repository root is its committed output::

    python -m repro.experiments.reproduction > REPRODUCTION.md

``tests/test_reproduction.py`` asserts the file equals :func:`record`
byte for byte, so a change that moves a reproduced number shows up as a
diff of that file.  :func:`render_figure` is the one renderer of a
figure panel; ``repro figures`` prints through it too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Sequence, Tuple, Union

from repro.core.cacqr import ca_cqr, ca_cqr2
from repro.core.cfr3d import cfr3d, default_base_case
from repro.core.cqr_1d import cqr2_1d, cqr_1d
from repro.core.panels import panel_overhead_ratio
from repro.core.panels_dist import ca_panel_cqr2
from repro.core.tuning import (GridShape, feasible_grids,
                               inverse_depth_to_base_case, optimal_grid)
from repro.costmodel.asymptotics import (ca_cqr_asymptotic, cfr3d_asymptotic,
                                         cqr_1d_asymptotic, mm3d_asymptotic)
from repro.costmodel.memory import ca_cqr2_memory
from repro.costmodel.params import BLUE_WATERS, STAMPEDE2
from repro.costmodel.performance import (ExecutionModel, cqr2_flops,
                                         householder_qr_flops)
from repro.costmodel.tables import (ca_cqr2_lines, ca_cqr_lines, cfr3d_lines,
                                    cqr2_1d_lines, cqr_1d_lines,
                                    format_line_table, lane_cost, mm3d_lines,
                                    total)
from repro.engine import available_algorithms
from repro.experiments.accuracy import accuracy_study, rows_from_table
from repro.experiments.crossover import (format_crossover_table,
                                         points_from_table)
from repro.experiments.figures import (FIG1A_SOURCES, FIG1B_SOURCES, FIG4,
                                       FIG5, FIG6, FIG7)
from repro.experiments.report import (format_accuracy_table,
                                      format_best_series, format_series_table)
from repro.experiments.scaling import (SeriesPoint, StrongScalingFigure,
                                       WeakScalingFigure, best_per_point,
                                       speedup_at, strong_scaling_study,
                                       strong_series_from_table,
                                       weak_scaling_study,
                                       weak_series_from_table)
from repro.experiments.sweeps import format_sweep_table, series_from_table
from repro.session import Session
from repro.study import study_from_dict
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine

Figure = Union[StrongScalingFigure, WeakScalingFigure]

#: The one command that rewrites the committed record.
REGENERATE = "python -m repro.experiments.reproduction > REPRODUCTION.md"


# ---------------------------------------------------------------------------
# Figures 1 and 4-7
# ---------------------------------------------------------------------------

def _series(fig: Figure) -> Dict[str, List[SeriesPoint]]:
    if isinstance(fig, StrongScalingFigure):
        return strong_series_from_table(strong_scaling_study(fig).run(parallel=False))
    return weak_series_from_table(weak_scaling_study(fig).run(parallel=False))


def _shape(fig: Figure) -> str:
    if isinstance(fig, StrongScalingFigure):
        return f"{fig.m} x {fig.n}"
    return f"{fig.base_m}*a x {fig.base_n}*b"


def _x_labels(fig: Figure) -> List[str]:
    if isinstance(fig, StrongScalingFigure):
        return [str(nodes) for nodes in fig.nodes]
    return [f"({a},{b})" for a, b in fig.ladder]


def render_figure(fig: Figure) -> str:
    """One panel's Gigaflops/s/node table and its best-CA / best-ScaLAPACK row."""
    series = _series(fig)
    text = format_series_table(
        f"{fig.name}: {_shape(fig)} on {fig.machine.name} "
        f"(Gigaflops/s/node; paper: {fig.paper_note})", series)
    cells = []
    for x in _x_labels(fig):
        sp = speedup_at(series, x)
        cells.append(f"{x}:{sp:.2f}x" if sp else f"{x}:-")
    return text + "\nbest-CA / best-ScaLAPACK  " + "  ".join(cells)


def _best_variants(name: str, sources: Sequence[Figure]) -> str:
    """Figure 1: the best CA-CQR2 and best ScaLAPACK curve of each source panel."""
    blocks = []
    for fig in sources:
        series = _series(fig)
        blocks.append(format_best_series(
            f"{name}[{_shape(fig)}]: best variants "
            f"(Gigaflops/s/node; paper: {fig.paper_note})",
            best_per_point(series, "CA-CQR2"), best_per_point(series, "ScaLAPACK")))
    return "\n\n".join(blocks)


def _panels(figs: Sequence[Figure]) -> str:
    return "\n\n".join(render_figure(fig) for fig in figs)


# ---------------------------------------------------------------------------
# Tables I-VI
# ---------------------------------------------------------------------------

def _table1() -> str:
    """Table I: exact costs next to their leading-order terms."""

    def row(label, lines, asym_value, kind):
        exact = lane_cost(total(lines))
        value = {"lat": exact.messages, "bw": exact.words, "fl": exact.flops}[kind]
        ratio = value / asym_value if asym_value else float("nan")
        return f"{label:<28} {value:>14.0f} {asym_value:>14.0f} {ratio:>8.2f}"

    out = ["Table I verification: exact cost vs leading-order term",
           "=" * 70,
           f"{'case':<28} {'exact':>14} {'asymptotic':>14} {'ratio':>8}",
           "-- MM3D bandwidth ~ (mn+nk+mk)/P^(2/3) --"]
    for p in (2, 4, 8, 16):
        n = 64 * p
        out.append(row(f"mm3d n={n} p^3={p ** 3}", mm3d_lines(n, n, n, p),
                       mm3d_asymptotic(n, n, n, p ** 3).bandwidth, "bw"))
    out.append("-- CFR3D bandwidth ~ n^2/P^(2/3) --")
    for p in (2, 4, 8):
        n = 128 * p
        out.append(row(f"cfr3d n={n} p^3={p ** 3}",
                       cfr3d_lines(n, p, default_base_case(n, p)),
                       cfr3d_asymptotic(n, p ** 3).bandwidth, "bw"))
    out.append("-- 1D-CQR bandwidth ~ n^2 (flat in P) --")
    for p in (4, 16, 64):
        m = 64 * p
        out.append(row(f"1d-cqr m={m} P={p}", cqr_1d_lines(m, 32, p),
                       cqr_1d_asymptotic(m, 32, p).bandwidth, "bw"))
    for heading, attr, kind in (
            ("bandwidth ~ mn/(dc) + n^2/c^2", "bandwidth", "bw"),
            ("flops ~ mn^2/(c^2 d) + n^3/c^3", "flops", "fl")):
        out.append(f"-- CA-CQR {heading} (fixed c=2) --")
        for d in (4, 16, 64):
            m, n, c = 256 * d, 256, 2
            out.append(row(f"ca-cqr d={d}",
                           ca_cqr_lines(m, n, c, d, default_base_case(n, c)),
                           getattr(ca_cqr_asymptotic(m, n, c, d), attr), kind))
    return "\n".join(out)


def _matched(title: str, lines, vm: VirtualMachine) -> str:
    """A per-line table beside the ledger the run charged to *vm*."""
    report = vm.report()
    return format_line_table(title, lines, {k: report.phase_total(k) for k in lines})


def _lines_tables() -> str:
    """Tables II-VI: closed-form lines with the VM match column."""
    n, p, n0 = 256, 4, 16
    vm = VirtualMachine(p ** 3)
    cfr3d(vm, DistMatrix.symbolic(Grid3D.cubic(vm, p), n, n), n0, phase="cfr3d")
    blocks = [_matched(f"Table II: CFR3D per-line costs (n={n}, grid {p}^3, n0={n0})",
                       cfr3d_lines(n, p, n0), vm)]

    m, n, procs = 2 ** 14, 64, 64
    for table, name, run, lines, phase in (
            ("III", "1D-CQR", cqr_1d, cqr_1d_lines(m, n, procs), "cqr1d"),
            ("IV", "1D-CQR2", cqr2_1d, cqr2_1d_lines(m, n, procs), "cqr2-1d")):
        vm = VirtualMachine(procs)
        run(vm, DistMatrix.symbolic(Grid3D.build(vm, 1, procs, 1), m, n), phase=phase)
        blocks.append(_matched(
            f"Table {table}: {name} per-line costs (m={m}, n={n}, P={procs})", lines, vm))

    m, n, c, d = 2 ** 12, 64, 4, 16
    n0 = default_base_case(n, c)
    for table, name, run, lines, phase in (
            ("V", "CA-CQR", ca_cqr, ca_cqr_lines(m, n, c, d, n0), "cacqr"),
            ("VI", "CA-CQR2", ca_cqr2, ca_cqr2_lines(m, n, c, d, n0), "cacqr2")):
        vm = VirtualMachine(c * c * d)
        run(vm, DistMatrix.symbolic(Grid3D.tunable(vm, c, d), m, n), phase=phase)
        blocks.append(_matched(
            f"Table {table}: {name} per-line costs (m={m}, n={n}, grid {c}x{d}x{c})",
            lines, vm))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Crossover, algorithm comparison, flop claims
# ---------------------------------------------------------------------------

def _crossover() -> str:
    """Where CA-CQR2 overtakes ScaLAPACK, best configuration against best."""
    m, n = 2 ** 21, 2 ** 12
    nodes = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
    return "\n\n".join(
        format_crossover_table(m, n, machine, points_from_table(
            study_from_dict({
                "kind": "planner", "m": m, "n": n, "machine": machine,
                "procs": [k * machine.procs_per_node for k in nodes],
                "algorithms": [["ca_cqr2"], ["scalapack"]],
                "block_sizes": [16, 32, 64], "inverse_depths": [0],
            }).run(parallel=False), machine.procs_per_node))
        for machine in (STAMPEDE2, BLUE_WATERS))


def _algorithm_comparison() -> str:
    """Every registered algorithm's best modeled time across scale."""
    m, n = 2 ** 21, 2 ** 10
    procs = [2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16]
    return "\n\n".join(
        format_sweep_table(m, n, machine, series_from_table(
            study_from_dict({
                "kind": "planner", "m": m, "n": n, "machine": machine,
                "procs": procs,
                "algorithms": [[a] for a in available_algorithms()],
                "block_sizes": [32], "inverse_depths": [0],
            }).run(parallel=False)))
        for machine in (STAMPEDE2, BLUE_WATERS))


def _flop_claims() -> str:
    """Section IV: charged flops against ``4mn^2 + 5n^3/3`` and Householder."""
    out = ["Section IV flop-count claims",
           "=" * 60,
           f"{'algorithm':<16} {'total flops':>14} {'4mn^2+5n^3/3':>14} "
           f"{'ratio':>7} {'vs HQR':>7}"]
    for label, m, n, c, d in (("1D-CQR2", 2 ** 12, 32, 1, 16),
                              ("CA-CQR2 c=2", 2 ** 12, 32, 2, 16),
                              ("CA-CQR2 c=4", 2 ** 12, 64, 4, 16)):
        vm = VirtualMachine(c * c * d)
        (cqr2_1d if c == 1 else ca_cqr2)(
            vm, DistMatrix.symbolic(Grid3D.tunable(vm, c, d), m, n))
        flops = vm.report().total_cost.flops
        claim = cqr2_flops(m, n)
        out.append(f"{label:<16} {flops:>14.3g} {claim:>14.3g} "
                   f"{flops / claim:>7.2f} {flops / householder_qr_flops(m, n):>7.2f}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def _gridshape() -> str:
    """The c sweep from 1D to 3D at fixed P (Section III-B)."""
    m, n, procs = 2 ** 21, 2 ** 11, 2 ** 12
    best = Session(plan_cache=None).plan(
        m=m, n=n, procs=procs, machine=STAMPEDE2, algorithms=("ca_cqr2",),
        inverse_depths=(0,), refine=None).best()
    picked = GridShape(c=best.spec_fields["c"], d=best.spec_fields["d"])
    rule = optimal_grid(m, n, procs)
    model = ExecutionModel(STAMPEDE2)
    out = [f"Grid-shape ablation: CA-CQR2 {m} x {n}, P = {procs} (Stampede2)",
           "=" * 76,
           f"{'grid':>10} {'msgs':>10} {'words':>12} {'flops':>13} "
           f"{'mem(words)':>12} {'t(s)':>8}"]
    for shape in feasible_grids(m, n, procs):
        cost = lane_cost(total(ca_cqr2_lines(m, n, shape.c, shape.d,
                                             default_base_case(n, shape.c))))
        tag = " <- autotuned" if shape == picked else (
            " <- m/d=n/c rule" if shape == rule else "")
        out.append(f"{shape!s:>10} {cost.messages:>10.0f} {cost.words:>12.0f} "
                   f"{cost.flops:>13.3g} {ca_cqr2_memory(m, n, shape.c, shape.d):>12.0f} "
                   f"{model.seconds(cost):>8.3f}{tag}")
    return "\n".join(out)


def _inverse_depth() -> str:
    """The CFR3D base-case size: latency against redundant flops (Section II-D)."""
    m, n, c, d = 2 ** 21, 2 ** 12, 8, 2 ** 12
    out = [f"InverseDepth ablation: CA-CQR2 {m} x {n} on {c}x{d}x{c}",
           "=" * 72,
           f"{'depth':>5} {'n0':>6} {'msgs':>10} {'words':>12} "
           f"{'flops':>14} {'t(S2)':>9} {'t(BW)':>9}"]
    for depth in range(5):
        n0 = inverse_depth_to_base_case(n, c, depth)
        cost = lane_cost(total(ca_cqr2_lines(m, n, c, d, n0)))
        out.append(f"{depth:>5} {n0:>6} {cost.messages:>10.0f} "
                   f"{cost.words:>12.0f} {cost.flops:>14.3g} "
                   f"{ExecutionModel(STAMPEDE2).seconds(cost):>9.3f} "
                   f"{ExecutionModel(BLUE_WATERS).seconds(cost):>9.3f}")
    return "\n".join(out)


def _panels_ablation() -> str:
    """Panel-blocked CQR2 (Section V): flop overhead against panel width."""
    n = 2 ** 12
    out = [f"Panel-CQR2 ablation ({n} x {n} model sweep)",
           "=" * 60,
           f"{'panel width':>12} {'flops / Householder':>20}"]
    for b in (n, n // 4, n // 16, n // 64):
        out.append(f"{b:>12} {panel_overhead_ratio(n, n, b):>20.2f}")
    out += ["", "executed 64 x 32 on a 2x4x2 grid:",
            f"{'panel width':>12} {'flops/rank':>14} {'msgs/rank':>12}"]
    for b in (32, 16, 8):
        vm = VirtualMachine(16)
        ca_panel_cqr2(vm, DistMatrix.symbolic(Grid3D.tunable(vm, 2, 4), 64, 32),
                      panel_width=b)
        cost = vm.report().max_cost
        out.append(f"{b:>12} {cost.flops:>14.0f} {cost.messages:>12.0f}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Accuracy
# ---------------------------------------------------------------------------

def _accuracy() -> str:
    """The stability ladder, each orthogonality error rounded to its decade.

    The low digits of a measured error depend on which BLAS kernel the
    CPU picks; the decade does not.
    """

    rows = rows_from_table(accuracy_study(
        m=1024, n=64, conditions=(1e1, 1e3, 1e5, 1e7, 1e9, 1e11, 1e13, 1e15),
        seed=1234).run(parallel=False))
    return format_accuracy_table(
        [r if r.failed else replace(
            r, orthogonality=10.0 ** round(math.log10(r.orthogonality)))
         for r in rows], value_fmt="{:>16.0e}")


# ---------------------------------------------------------------------------
# The record
# ---------------------------------------------------------------------------

_HEADER = f"""# Reproduction record

Every number of the paper's evaluation that this repository reproduces,
rendered by `repro.experiments.reproduction.record()`.  Do not edit this
file by hand; regenerate it with

    {REGENERATE}

`tests/test_reproduction.py` fails when this file and the generator
disagree.  A change that moves a number here commits the regenerated file
and names every moved number, and why, in CHANGES.md.

The figures, crossover, comparison and ablations are modeled from the
calibrated cost model; Tables II-VI, the flop claims and the executed
panel sweep are charged by the virtual machine; the accuracy study runs
real factorizations.
"""

#: (heading, renderer) of every section, in the record's order.
_SECTIONS: Tuple[Tuple[str, Callable[[], str]], ...] = (
    ("Figure 1(a): strong scaling on Stampede2, best variants of Figure 7",
     lambda: _best_variants("fig1a", FIG1A_SOURCES)),
    ("Figure 1(b): weak scaling on Stampede2, best variants of Figure 5",
     lambda: _best_variants("fig1b", FIG1B_SOURCES)),
    ("Figure 4: weak scaling on Blue Waters", lambda: _panels(FIG4)),
    ("Figure 5: weak scaling on Stampede2", lambda: _panels(FIG5)),
    ("Figure 6: strong scaling on Blue Waters", lambda: _panels(FIG6)),
    ("Figure 7: strong scaling on Stampede2", lambda: _panels(FIG7)),
    ("Table I: asymptotic costs", _table1),
    ("Tables II-VI: per-line costs against the virtual machine", _lines_tables),
    ("Crossover: best CA-CQR2 against best ScaLAPACK", _crossover),
    ("Algorithm comparison", _algorithm_comparison),
    ("Section IV: flop-count claims", _flop_claims),
    ("Ablation: grid shape", _gridshape),
    ("Ablation: InverseDepth", _inverse_depth),
    ("Ablation: panel width", _panels_ablation),
    ("Accuracy: orthogonality error, rounded to the nearest decade "
     "(1024 x 64, seed 1234)", _accuracy),
)


def record() -> str:
    """The full reproduction record, as committed in ``REPRODUCTION.md``."""
    parts = [_HEADER]
    for heading, render in _SECTIONS:
        parts.append(f"## {heading}\n\n```text\n{render()}\n```\n")
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover - the regeneration command
    sys.stdout.write(record())
