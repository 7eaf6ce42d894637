"""Strong/weak scaling drivers and the paper's variant-tuple encoding.

The paper labels every curve with a tuple:

* CA-CQR2 strong scaling: ``(d, c, InverseDepth, ppn, tpr)`` where ``d`` is
  written as a multiple of the node count ``N`` (e.g. ``16N`` or ``N/4``);
* CA-CQR2 weak scaling: ``(d/c, InverseDepth, ppn, tpr)`` where ``d/c`` is
  a multiple of ``a/b`` from the weak-scaling ladder;
* ScaLAPACK: ``(pr, BlockSize, ppn, tpr)`` with ``pr`` a multiple of ``N``
  (strong) or of ``ab`` (weak).

The dataclasses below encode those tuples, resolve them at each scaling
point (skipping points where the tuple is infeasible -- non-integer grid,
``d < c``, divisibility failure -- exactly the points the paper's curves do
not span), and evaluate the modeled Gigaflops/s/node from CA-CQR2's
closed-form line table (:mod:`repro.costmodel.tables`, validated against
execution), a batch of one lane per point.

A figure panel *is* a campaign: :func:`strong_scaling_study` /
:func:`weak_scaling_study` declare one panel as a
:class:`repro.study.Study` over a (variant x scaling-point) grid, which
brings streaming execution, JSONL persistence/resume, and uniform
rendering to every curve in the paper; :func:`strong_series_from_table`
/ :func:`weak_series_from_table` turn a panel's table into the
``label -> [SeriesPoint...]`` curves the reports and speedups read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.scalapack_qr import pgeqrf_cost
from repro.core.tuning import inverse_depth_to_base_case
from repro.costmodel.params import MachineSpec
from repro.costmodel.performance import ExecutionModel
from repro.costmodel.tables import ca_cqr2_lines, lane_cost, total
from repro.study import Axis, RawField, ResultTable, Study


def _icbrt(x: int) -> Optional[int]:
    """Exact integer cube root, or ``None``."""
    if x <= 0:
        return None
    c = round(x ** (1.0 / 3.0))
    for cand in (c - 1, c, c + 1):
        if cand > 0 and cand ** 3 == x:
            return cand
    return None


@dataclass(frozen=True)
class SeriesPoint:
    """One evaluated point of one curve."""

    x_label: str
    nodes: int
    gigaflops_per_node: float
    detail: str = ""


# ---------------------------------------------------------------------------
# CA-CQR2 variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CAStrongVariant:
    """Strong-scaling tuple ``(d, c, InverseDepth, ppn, tpr)``, ``d = d_num*N/d_den``."""

    d_num: int
    d_den: int
    c: int
    inverse_depth: int
    ppn: int
    tpr: int

    @property
    def label(self) -> str:
        if self.d_den == 1:
            d_str = f"{self.d_num}N" if self.d_num != 1 else "1N"
        else:
            d_str = f"N/{self.d_den}"
        return f"CA-CQR2-({d_str},{self.c},{self.inverse_depth},{self.ppn},{self.tpr})"

    def resolve(self, nodes: int, m: int, n: int) -> Optional[Tuple[int, int, int]]:
        """``(c, d, n0)`` at this node count, or ``None`` if infeasible."""
        if (self.d_num * nodes) % self.d_den != 0:
            return None
        d = self.d_num * nodes // self.d_den
        procs = self.ppn * nodes
        c = self.c
        if c * c * d != procs or d % c != 0 or d < c:
            return None
        if m % d != 0 or n % c != 0 or n < c:
            return None
        n0 = inverse_depth_to_base_case(n, c, self.inverse_depth)
        return c, d, n0

    def gigaflops(self, machine: MachineSpec, nodes: int, m: int, n: int) -> Optional[float]:
        resolved = self.resolve(nodes, m, n)
        if resolved is None:
            return None
        c, d, n0 = resolved
        model = ExecutionModel(machine.with_ppn(self.ppn))
        cost = lane_cost(total(ca_cqr2_lines(m, n, c, d, n0)))
        return model.gigaflops_per_node_from_cost(m, n, cost, nodes)


@dataclass(frozen=True)
class CAWeakVariant:
    """Weak-scaling tuple ``(d/c, InverseDepth, ppn, tpr)``; ``d/c = r_num*a/(r_den*b)``."""

    ratio_num: int
    ratio_den: int
    inverse_depth: int
    ppn: int
    tpr: int

    @property
    def label(self) -> str:
        num = f"{self.ratio_num}a" if self.ratio_num != 1 else "1a"
        den = f"{self.ratio_den}b" if self.ratio_den != 1 else "b"
        return f"CA-CQR2-({num}/{den},{self.inverse_depth},{self.ppn},{self.tpr})"

    def resolve(self, a: int, b: int, nodes: int, m: int, n: int) -> Optional[Tuple[int, int, int]]:
        procs = self.ppn * nodes
        # d/c = ratio  =>  c**3 = P / ratio = P * r_den * b / (r_num * a).
        num = procs * self.ratio_den * b
        den = self.ratio_num * a
        if num % den != 0:
            return None
        c = _icbrt(num // den)
        if c is None:
            return None
        ratio_times_c = self.ratio_num * a * c
        if ratio_times_c % (self.ratio_den * b) != 0:
            return None
        d = ratio_times_c // (self.ratio_den * b)
        if c * c * d != procs or d % c != 0 or d < c:
            return None
        if m % d != 0 or n % c != 0 or n < c:
            return None
        n0 = inverse_depth_to_base_case(n, c, self.inverse_depth)
        return c, d, n0

    def gigaflops(self, machine: MachineSpec, a: int, b: int, nodes: int,
                  m: int, n: int) -> Optional[float]:
        resolved = self.resolve(a, b, nodes, m, n)
        if resolved is None:
            return None
        c, d, n0 = resolved
        model = ExecutionModel(machine.with_ppn(self.ppn))
        cost = lane_cost(total(ca_cqr2_lines(m, n, c, d, n0)))
        return model.gigaflops_per_node_from_cost(m, n, cost, nodes)


# ---------------------------------------------------------------------------
# ScaLAPACK variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaLAPACKStrongVariant:
    """Strong-scaling tuple ``(pr, BlockSize, ppn, tpr)``; ``pr = pr_factor*N``."""

    pr_factor: int
    block_size: int
    ppn: int
    tpr: int

    @property
    def label(self) -> str:
        return f"ScaLAPACK-({self.pr_factor}N,{self.block_size},{self.ppn},{self.tpr})"

    def resolve(self, nodes: int) -> Optional[Tuple[int, int]]:
        procs = self.ppn * nodes
        pr = self.pr_factor * nodes
        if pr <= 0 or procs % pr != 0:
            return None
        pc = procs // pr
        return pr, pc

    def gigaflops(self, machine: MachineSpec, nodes: int, m: int, n: int) -> Optional[float]:
        resolved = self.resolve(nodes)
        if resolved is None:
            return None
        pr, pc = resolved
        if pr > m or pc > n:
            return None
        model = ExecutionModel(machine.with_ppn(self.ppn))
        cost = pgeqrf_cost(m, n, pr, pc, self.block_size,
                           kernel_efficiency=machine.qr_kernel_efficiency)
        return model.gigaflops_per_node_from_cost(m, n, cost, nodes)


@dataclass(frozen=True)
class ScaLAPACKWeakVariant:
    """Weak-scaling tuple ``(pr, BlockSize, ppn, tpr)``; ``pr = pr_factor*a*b``."""

    pr_factor: int
    block_size: int
    ppn: int
    tpr: int

    @property
    def label(self) -> str:
        return f"ScaLAPACK-({self.pr_factor}ab,{self.block_size},{self.ppn},{self.tpr})"

    def gigaflops(self, machine: MachineSpec, a: int, b: int, nodes: int,
                  m: int, n: int) -> Optional[float]:
        procs = self.ppn * nodes
        pr = self.pr_factor * a * b
        if pr <= 0 or procs % pr != 0:
            return None
        pc = procs // pr
        if pr > m or pc > n:
            return None
        model = ExecutionModel(machine.with_ppn(self.ppn))
        cost = pgeqrf_cost(m, n, pr, pc, self.block_size,
                           kernel_efficiency=machine.qr_kernel_efficiency)
        return model.gigaflops_per_node_from_cost(m, n, cost, nodes)


# ---------------------------------------------------------------------------
# Figure specs + evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrongScalingFigure:
    """A strong-scaling panel: fixed ``m x n``, a node ladder, curve variants."""

    name: str
    machine: MachineSpec
    m: int
    n: int
    nodes: Tuple[int, ...]
    ca_variants: Tuple[CAStrongVariant, ...]
    sl_variants: Tuple[ScaLAPACKStrongVariant, ...]
    paper_note: str = ""


@dataclass(frozen=True)
class WeakScalingFigure:
    """A weak-scaling panel: ``m = m0*a``, ``n = n0*b``, nodes = ``k*a*b**2``."""

    name: str
    machine: MachineSpec
    base_m: int
    base_n: int
    nodes_factor: int
    ladder: Tuple[Tuple[int, int], ...]
    ca_variants: Tuple[CAWeakVariant, ...]
    sl_variants: Tuple[ScaLAPACKWeakVariant, ...]
    paper_note: str = ""


def strong_scaling_study(fig: StrongScalingFigure) -> Study:
    """One strong-scaling panel as a (variant x nodes) campaign.

    Infeasible (variant, nodes) points -- exactly the points the paper's
    curves do not span -- are recorded as infeasible rows.
    """
    variants = tuple(fig.ca_variants) + tuple(fig.sl_variants)

    def evaluate(point: Dict[str, object]) -> Optional[dict]:
        gf = point["variant"].gigaflops(fig.machine, point["nodes"],
                                        fig.m, fig.n)
        if gf is None:
            return None
        return {"gigaflops_per_node": gf}

    return Study(
        name=f"{fig.name}-strong-scaling",
        description=f"{fig.m} x {fig.n} on {fig.machine.name}; "
                    f"{fig.paper_note}",
        axes=(Axis("variant", variants,
                   labels=tuple(v.label for v in variants)),
              Axis("nodes", tuple(fig.nodes))),
        metrics=(RawField("gigaflops_per_node", "{:8.1f}"),),
        evaluate=evaluate,
        params={"figure": fig.name, "m": fig.m, "n": fig.n,
                "machine": fig.machine.name})


def weak_scaling_study(fig: WeakScalingFigure) -> Study:
    """One weak-scaling panel as a (variant x ladder-step) campaign."""
    variants = tuple(fig.ca_variants) + tuple(fig.sl_variants)

    def evaluate(point: Dict[str, object]) -> Optional[dict]:
        a, b = point["step"]
        nodes = fig.nodes_factor * a * b * b
        m, n = fig.base_m * a, fig.base_n * b
        gf = point["variant"].gigaflops(fig.machine, a, b, nodes, m, n)
        if gf is None:
            return None
        return {"gigaflops_per_node": gf, "nodes": nodes,
                "detail": f"{m}x{n}"}

    return Study(
        name=f"{fig.name}-weak-scaling",
        description=f"{fig.base_m}*a x {fig.base_n}*b on "
                    f"{fig.machine.name}; {fig.paper_note}",
        axes=(Axis("variant", variants,
                   labels=tuple(v.label for v in variants)),
              Axis("step", tuple(fig.ladder),
                   labels=tuple(f"({a},{b})" for a, b in fig.ladder))),
        metrics=(RawField("gigaflops_per_node", "{:8.1f}"),
                 RawField("nodes", "{}"), RawField("detail", "{}")),
        evaluate=evaluate,
        params={"figure": fig.name, "base_m": fig.base_m,
                "base_n": fig.base_n, "nodes_factor": fig.nodes_factor,
                "machine": fig.machine.name})


def strong_series_from_table(table: ResultTable) -> Dict[str, List[SeriesPoint]]:
    """A strong-scaling study's table as ``label -> [SeriesPoint...]``."""
    series: Dict[str, List[SeriesPoint]] = {}
    for row in table.rows:
        if not row.ok:
            continue
        nodes = row.point["nodes"]
        series.setdefault(row.point["variant"], []).append(
            SeriesPoint(x_label=str(nodes), nodes=nodes,
                        gigaflops_per_node=row.values["gigaflops_per_node"]))
    return series


def weak_series_from_table(table: ResultTable) -> Dict[str, List[SeriesPoint]]:
    """A weak-scaling study's table as ``label -> [SeriesPoint...]``."""
    series: Dict[str, List[SeriesPoint]] = {}
    for row in table.rows:
        if not row.ok:
            continue
        series.setdefault(row.point["variant"], []).append(
            SeriesPoint(x_label=row.point["step"],
                        nodes=row.values["nodes"],
                        gigaflops_per_node=row.values["gigaflops_per_node"],
                        detail=row.values["detail"]))
    return series


def best_per_point(series: Dict[str, List[SeriesPoint]],
                   label_filter: str) -> List[SeriesPoint]:
    """Best curve value at each x among labels containing *label_filter*.

    This is how Figure 1 is built from Figures 5/7: "the best performing
    choice of processor grid at each node count".
    """
    by_x: Dict[str, SeriesPoint] = {}
    order: List[str] = []
    for label, points in series.items():
        if label_filter not in label:
            continue
        for pt in points:
            if pt.x_label not in by_x:
                order.append(pt.x_label)
                by_x[pt.x_label] = pt
            elif pt.gigaflops_per_node > by_x[pt.x_label].gigaflops_per_node:
                by_x[pt.x_label] = pt
    return [by_x[x] for x in order]


def speedup_at(series: Dict[str, List[SeriesPoint]], x_label: str) -> Optional[float]:
    """Best-CA over best-ScaLAPACK ratio at one x (the paper's headline factors)."""
    ca = {p.x_label: p for p in best_per_point(series, "CA-CQR2")}
    sl = {p.x_label: p for p in best_per_point(series, "ScaLAPACK")}
    if x_label not in ca or x_label not in sl:
        return None
    denom = sl[x_label].gigaflops_per_node
    if denom <= 0:
        return None
    return ca[x_label].gigaflops_per_node / denom
