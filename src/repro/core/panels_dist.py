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

Each panel's CA-CQR2 is a plain :func:`~repro.core.cacqr.ca_cqr2` call, so
symbolic panels are charged however CA-CQR2 is: compiled unless
:func:`~repro.sched.compiled_replay_disabled`, on a plain machine, traced
or not, by one ``c**3``-rank template run per panel, and each trailing
update by one more (the one subcube of a cubic grid included); the
per-subcube loop is the oracle, and the route where a template run
declines.

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
from typing import List, Optional, Tuple

import numpy as np

from repro.core.cacqr import SubcubeResults, _cross_product_replicated, ca_cqr2
from repro.core.elementwise import dist_sub
from repro.core.mm3d import mm3d, mm3d_stacked
from repro.sched import (ChargeProgram, RankFamilyMap, ScheduleRecorder,
                         TemplateRun, compiled_replay_enabled)
from repro.utils.validation import check_positive_int, require
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


@functools.lru_cache(maxsize=256)
def _panel_update_program(c: int, rows_per_subcube: int, b: int,
                          rest_n: int) -> Tuple[ChargeProgram, Grid3D]:
    """Compile one subcube's trailing update ``C <- C - Q_p @ W``.

    The MM3D + elementwise subtraction pair is identical on every
    subcube, so one ``c x c x c`` template recording charges all ``d/c``
    subcubes in one :class:`~repro.sched.TemplateRun`.  Keyed per
    trailing width ``rest_n`` -- each panel index has its own -- and
    memoized across runs.
    """
    rec = ScheduleRecorder(c * c * c)
    rec_grid = Grid3D.build(rec, c, c, c)
    q0 = DistMatrix.symbolic(rec_grid, rows_per_subcube, b)
    w0 = DistMatrix.symbolic(rec_grid, b, rest_n)
    rest0 = DistMatrix.symbolic(rec_grid, rows_per_subcube, rest_n)
    update = mm3d(rec, q0, w0, phase="@.mm3d")
    dist_sub(rec, rest0, update, "@.sub")
    return rec.program(), rec_grid


def _update_trailing(vm: VirtualMachine, q: DistMatrix, w: SubcubeResults,
                     rest: DistMatrix, phase: str) -> DistMatrix:
    """``C <- C - Q_p @ W``: one MM3D + elementwise subtraction per subcube.

    The pair is identical on every subcube, so, compiled unless
    :func:`~repro.sched.compiled_replay_disabled`, one ``c x c x c``
    template program charges all of them (one, on a cubic grid) as one
    template run, or is spliced into a recorder, and numeric runs
    subtract one stacked product covering every subcube's rows.
    Otherwise it runs subcube by subcube (the oracle).
    """
    g = rest.grid
    c = g.dim_x
    if compiled_replay_enabled():
        program, rec_grid = _panel_update_program(c, c * rest.local_rows,
                                                  q.n, rest.n)
        binding = RankFamilyMap.subcubes(g, rec_grid)
        names = program.phases_with_prefix("@", phase)
        run = TemplateRun.seed(vm, binding, names)
        if run is not None:
            run.complete([(program, names)])
        elif isinstance(vm, ScheduleRecorder):
            vm.extend(program, binding, names)
        if run is not None or isinstance(vm, ScheduleRecorder):
            if rest.data is None:
                return DistMatrix.symbolic(g, rest.m, rest.n)
            update = mm3d_stacked(q.data, w[0].data)  # type: ignore[arg-type]
            return DistMatrix.from_plane(g, rest.m, rest.n,
                                         rest.plane - update[:, :, :1])
    parts = [dist_sub(vm, rest.subcube(k),
                      mm3d(vm, q.subcube(k), w[k], phase=f"{phase}.mm3d"),
                      f"{phase}.sub")
             for k in range(len(w))]
    if rest.data is None:
        return DistMatrix.symbolic(g, rest.m, rest.n)
    return DistMatrix.from_plane(g, rest.m, rest.n,
                                 np.concatenate([p.plane for p in parts], axis=1))


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

    Numeric panels compute on the stacked blocks: ``Q``'s panels are
    concatenated column-wise at the end, and ``R``'s block rows are
    assembled from each panel's CQR2 ``R`` and cross product ``W``.
    """
    g = a.grid
    c = g.dim_x
    check_positive_int(panel_width, "panel_width")
    require(a.n % panel_width == 0,
            f"panel_width={panel_width} must divide n={a.n}")
    require(panel_width % c == 0,
            f"panel_width={panel_width} must be a multiple of c={c}")
    b = panel_width
    num_panels = a.n // b
    numeric = a.is_numeric

    trailing = a
    q_parts: List[np.ndarray] = []
    r_global = np.zeros((a.n, a.n)) if numeric else None
    for p_idx in range(num_panels):
        col_lo = p_idx * b
        panel = trailing.column_panel(0, b)

        # Orthogonalize the panel with a full CA-CQR2 on the whole grid.
        res = ca_cqr2(vm, panel, base_case_size,
                      phase=f"{phase}.panel{p_idx}.cqr2")
        q_p = res.q
        if numeric:
            q_parts.append(q_p.plane)
            r_global[col_lo:col_lo + b, col_lo:col_lo + b] = \
                np.triu(res.r.to_global())
        if trailing.n == b:
            break
        rest = trailing.column_panel(b, trailing.n)

        # W = Q_p^T @ C through the Gram-dance schedule (full GEMM rate),
        # then C <- C - Q_p @ W on every subcube.
        update = f"{phase}.panel{p_idx}.update"
        w = _cross_product_replicated(vm, q_p, rest, update, symmetric=False)
        trailing = _update_trailing(vm, q_p, w, rest, update)
        if numeric:
            r_global[col_lo:col_lo + b, col_lo + b:] = w[0].to_global()

    q = (DistMatrix.from_plane(g, a.m, a.n, np.concatenate(q_parts, axis=-1))
         if numeric else DistMatrix.symbolic(g, a.m, a.n))
    return PanelCACQR2Result(q=q, r=r_global, panels=num_panels)
