"""Distributed panel-blocked CA-CQR2 (the Section V subpanel algorithm).

This is the distributed realization of :mod:`repro.core.panels`: factor the
``m x n`` matrix in column panels of width ``b``, each orthogonalized by a
full CA-CQR2 call on the same ``c x d x c`` grid, with the trailing matrix
updated through the *same communication schedule* as the Gram dance:

1. ``W = Q_p.T @ C`` via :func:`~repro.core.cacqr._cross_product_replicated`
   (row broadcast of ``Q_p``'s panels, local GEMM, group reduce, strided
   allreduce, depth broadcast) -- ``W`` lands on every subcube in the
   cyclic layout MM3D expects;
2. ``C <- C - Q_p W`` with one MM3D + elementwise subtraction per subcube.

Compared to plain CA-CQR2 this reduces the flop overhead from ``4 m n**2``
toward ``2 m n**2 (1 + b/n)`` (panel CQR2 cost + GEMM-rate updates) at the
price of ``n/b``-fold more synchronization -- the trade the paper's
conclusion proposes for near-square matrices.

Numerically the scheme is block Gram-Schmidt with CQR2 panels; it is
intended for the well-conditioned regime (the scaling workloads).  The
ill-conditioned regime belongs to :func:`repro.core.shifted.ca_shifted_cqr3`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.cacqr import _cross_product_replicated, ca_cqr2
from repro.core.elementwise import dist_sub
from repro.core.mm3d import mm3d
from repro.sched import (ChargeProgram, RankFamilyMap, ScheduleRecorder,
                         compiled_replay_enabled)
from repro.utils.validation import check_positive_int, require
from repro.vmpi.datatypes import Block, NumericBlock
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine


@dataclass
class PanelCACQR2Result:
    """Result of :func:`ca_panel_cqr2`.

    ``q`` is distributed like the input; ``r`` is the assembled global
    upper-triangular factor (numeric mode only -- ``None`` for symbolic
    cost runs).
    """

    q: DistMatrix
    r: Optional[np.ndarray]
    panels: int


@functools.lru_cache(maxsize=8)
def _panel_cqr2_program(c: int, d: int, m: int, b: int,
                        base_case_size: Optional[int],
                        ) -> Tuple[ChargeProgram, Grid3D]:
    """Compile one panel's full-grid CA-CQR2 call.

    Every panel of a given factorization runs the *identical* shape-only
    schedule (same ``m x b`` panel on the same ``c x d x c`` grid), so it
    is recorded once on a same-shaped template machine under the
    placeholder phase prefix ``"@"`` and replayed per panel with the phase
    table rebased -- the per-panel Python orchestration (grid walks,
    block-dict churn, recursion) runs once instead of ``n/b`` times.
    """
    rec = ScheduleRecorder(c * d * c)
    rec_grid = Grid3D.build(rec, c, d, c)
    panel = DistMatrix.symbolic(rec_grid, m, b)
    ca_cqr2(rec, panel, base_case_size, phase="@")
    return rec.program(), rec_grid


@functools.lru_cache(maxsize=256)
def _panel_update_program(c: int, rows_per_subcube: int, b: int,
                          rest_n: int) -> Tuple[ChargeProgram, Grid3D]:
    """Compile one subcube's trailing update ``C <- C - Q_p @ W``.

    The MM3D + elementwise subtraction pair is identical on every
    subcube, so one ``c x c x c`` template recording replays onto all
    ``d/c`` subcubes as a single bound program (collapsed when their
    entry state is symmetric).  Keyed per trailing width ``rest_n`` --
    each panel index has its own -- and memoized across runs.
    """
    rec = ScheduleRecorder(c * c * c)
    rec_grid = Grid3D.build(rec, c, c, c)
    q0 = DistMatrix.symbolic(rec_grid, rows_per_subcube, b)
    w0 = DistMatrix.symbolic(rec_grid, b, rest_n)
    rest0 = DistMatrix.symbolic(rec_grid, rows_per_subcube, rest_n)
    update = mm3d(rec, q0, w0, phase="@.mm3d")
    dist_sub(rec, rest0, update, "@.sub")
    return rec.program(), rec_grid


def _ca_panel_cqr2_compiled(vm: VirtualMachine, a: DistMatrix, b: int,
                            base_case_size: Optional[int],
                            phase: str) -> PanelCACQR2Result:
    """Symbolic panel factorization via compiled charge programs.

    Bit-identical to the panel loop: the panel CQR2 program replays once
    per panel (phase table rebased to ``.panel{i}.cqr2``), the Gram-dance
    cross product charges directly (its schedule is one vectorized pass
    already), and the per-subcube trailing update replays family-batched
    across all ``d/c`` subcubes.
    """
    g = a.grid
    c, d = g.dim_x, g.dim_y
    num_panels = a.n // b
    rows_per_subcube = c * (a.m // d)

    program, rec_grid = _panel_cqr2_program(c, d, a.m, b, base_case_size)
    cqr2_bound = program.specialize(RankFamilyMap.from_grids(rec_grid, g))
    for p_idx in range(num_panels):
        cqr2_bound.replay(vm, phases=program.phases_with_prefix(
            "@", f"{phase}.panel{p_idx}.cqr2"))
        rest_n = a.n - (p_idx + 1) * b
        if rest_n == 0:
            break
        # W = Q_p^T @ C through the real Gram dance -- already one
        # vectorized pass over communicator families, so charging it
        # directly is as fast as any replay would be.
        q_p = DistMatrix.symbolic(g, a.m, b)
        rest = DistMatrix.symbolic(g, a.m, rest_n)
        _cross_product_replicated(vm, q_p, rest,
                                  f"{phase}.panel{p_idx}.update",
                                  symmetric=False)
        upd_prog, upd_grid = _panel_update_program(c, rows_per_subcube, b,
                                                   rest_n)
        bound = upd_prog.specialize(RankFamilyMap.subcubes(g, upd_grid))
        bound.replay(vm, phases=upd_prog.phases_with_prefix(
            "@", f"{phase}.panel{p_idx}.update"))
    return PanelCACQR2Result(q=DistMatrix.symbolic(g, a.m, a.n), r=None,
                             panels=num_panels)


def ca_panel_cqr2(vm: VirtualMachine, a: DistMatrix, panel_width: int,
                  base_case_size: Optional[int] = None,
                  phase: str = "panel-cacqr2") -> PanelCACQR2Result:
    """Factor ``A = QR`` with CA-CQR2 panels of width *panel_width*.

    Parameters
    ----------
    vm:
        Virtual machine charged for all communication and computation.
    a:
        Tall ``m x n`` :class:`DistMatrix` on a ``c x d x c`` grid.
    panel_width:
        Panel width ``b``; must be a multiple of ``c`` and divide ``n``.
        ``b = n`` degenerates to one plain CA-CQR2 call.
    base_case_size:
        CFR3D cutoff for the per-panel CA-CQR2 calls (default: optimal for
        the panel width).
    """
    g = a.grid
    c, d = g.dim_x, g.dim_y
    check_positive_int(panel_width, "panel_width")
    require(a.n % panel_width == 0,
            f"panel_width={panel_width} must divide n={a.n}")
    require(panel_width % c == 0,
            f"panel_width={panel_width} must be a multiple of c={c}")
    b = panel_width
    num_panels = a.n // b
    numeric = a.is_numeric

    if not numeric and num_panels > 1 and compiled_replay_enabled():
        # Symbolic multi-panel runs replay compiled programs instead of
        # looping the Python orchestration per panel (numeric panels hold
        # distinct data; a single panel is already one plain CQR2 call).
        return _ca_panel_cqr2_compiled(vm, a, b, base_case_size, phase)

    trailing = a
    q_panel_blocks: Dict[int, List[Block]] = (
        {r: [] for r in a.blocks} if numeric else {})
    r_global = np.zeros((a.n, a.n)) if numeric else None

    for p_idx in range(num_panels):
        col_lo = p_idx * b
        panel = trailing.column_panel(0, b)
        rest = trailing.column_panel(b, trailing.n) if trailing.n > b else None

        # Orthogonalize the panel with a full CA-CQR2 on the whole grid.
        res = ca_cqr2(vm, panel, base_case_size,
                      phase=f"{phase}.panel{p_idx}.cqr2")
        if numeric:
            for rank, blk in res.q.blocks.items():
                q_panel_blocks[rank].append(blk)
            r_global[col_lo:col_lo + b, col_lo:col_lo + b] = \
                np.triu(res.r.to_global())

        if rest is None:
            break

        # W = Q_p^T @ C through the Gram-dance schedule (full GEMM rate).
        w = _cross_product_replicated(
            vm, res.q, rest, f"{phase}.panel{p_idx}.update", symmetric=False)

        # Per-subcube: C <- C - Q_p @ W.
        new_rest_blocks: Dict[int, Block] = {}
        for group in range(d // c):
            w_sub = w[group]
            q_sub = res.q.subcube(group)
            rest_sub = rest.subcube(group)
            update = mm3d(vm, q_sub, w_sub,
                          phase=f"{phase}.panel{p_idx}.update.mm3d")
            new_rest = dist_sub(vm, rest_sub, update,
                                f"{phase}.panel{p_idx}.update.sub")
            if numeric:
                new_rest_blocks.update(new_rest.blocks)
                if group == 0:
                    r_global[col_lo:col_lo + b, col_lo + b:] = w_sub.to_global()

        trailing = (DistMatrix(g, a.m, rest.n, new_rest_blocks) if numeric
                    else DistMatrix.symbolic(g, a.m, rest.n))

    if not numeric:
        return PanelCACQR2Result(q=DistMatrix.symbolic(g, a.m, a.n), r=None,
                                 panels=num_panels)
    q_blocks: Dict[int, Block] = {
        rank: NumericBlock(np.hstack([blk.data for blk in parts]))  # type: ignore[attr-defined]
        for rank, parts in q_panel_blocks.items()}
    q = DistMatrix(g, a.m, a.n, q_blocks)
    return PanelCACQR2Result(q=q, r=r_global, panels=num_panels)
