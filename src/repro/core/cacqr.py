"""CA-CQR and CA-CQR2 (Algorithms 8-9): CholeskyQR2 on a tunable 3D grid.

The ``m x n`` matrix ``A`` lives on a ``c x d x c`` grid ``Pi[x, y, z]``
(``P = c**2 d``), cyclically partitioned into ``m/d x n/c`` local blocks
(rows over ``y``, columns over ``x``) and replicated over depth ``z``.

One CA-CQR pass:

1. **Row broadcast** (line 1): ``Pi[z, y, z]`` broadcasts its block along
   ``Pi[:, y, z]`` as ``W`` -- slice ``z`` obtains ``A``'s columns of
   residue ``z``.
2. **Local Gram** (line 2): ``X = W.T @ A_local``, the rows-``y`` partial of
   the Gram block ``(A.T A)[z::c, x::c]``.
3. **Contiguous-group Reduce** (line 3): within each y-group of size ``c``,
   reduce onto the root with ``y mod c == z``, summing the group's row
   partials.
4. **Strided Allreduce** (line 4): across the ``d/c`` group roots (stride
   ``c`` along ``y``), completing the sum over all rows.  Every subcube's
   root set now holds the full Gram matrix, cyclically distributed.
5. **Depth broadcast** (line 5): along ``Pi[x, y, :]`` from root
   ``z = y mod c``, replicating the Gram over depth.  Rank ``(x, y, z)``
   now holds ``Z[(y mod c)::c, x::c]`` -- within its subcube, exactly the
   cyclic slice-replicated layout CFR3D requires.
6. **d/c simultaneous CFR3D calls** (lines 6-7) on the cubic subgrids
   ``Pi[:, g*c:(g+1)*c, :]`` produce ``R.T`` and ``R**-T`` redundantly per
   subcube -- after which *no further cross-subcube communication is
   needed*.  Every subcube factors a bit-identical Gram matrix, so with
   ``d > c`` the simulation computes these numerics once, uncharged, on
   subcube 0's stacked blocks, and charges all ``d/c`` subcubes by
   replaying one compiled subcube program (:mod:`repro.sched`); the
   per-subcube loop remains as the oracle under
   :func:`~repro.sched.compiled_replay_disabled`.
7. **MM3D per subcube** (line 8) forms ``Q = A R**-1`` on each subcube's
   own rows -- the one step whose data differ between subcubes, computed
   for all of them by one stacked multiply.

CA-CQR2 runs two passes and merges ``R = R2 R1`` with one more per-subcube
MM3D (Algorithm 9), computed once and copied to every subcube in the same
way.

Setting ``c = 1`` degenerates to 1D-CQR2 (no column partitioning, one
Allreduce); ``c = d = P**(1/3)`` gives the cubic 3D-CQR2.  The cost
interpolates accordingly (Table I):

``O(c**2 log P) alpha + O(mn/(dc) + n**2/c**2) beta + O(mn**2/(c**2 d) + n**3/c**3) gamma``.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.cfr3d import cfr3d, default_base_case
from repro.core.mm3d import mm3d, mm3d_stacked
from repro.costmodel import collectives as cc
from repro.kernels import flops as fl
from repro.kernels.blas import local_mm_tn
from repro.kernels.cholesky import CholeskyFailure
from repro.sched import (
    ChargeProgram,
    RankFamilyMap,
    ScheduleRecorder,
    compiled_replay_enabled,
)
from repro.utils.validation import require
from repro.vmpi.comm import ordered_sum
from repro.vmpi.datatypes import SymbolicBlock
from repro.vmpi.distmatrix import DistMatrix, dist_transpose
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine


@dataclass
class CACQRResult:
    """Result of a CA-CQR / CA-CQR2 call.

    Attributes
    ----------
    q:
        The orthogonal factor, distributed on the full ``c x d x c`` grid
        exactly like the input.
    r_subcubes:
        Per-subcube copies of ``R`` (every subcube holds an identical
        redundant copy).  Compiled runs return a lazy
        :class:`SubcubeResults`.
    r:
        The triangular factor on subcube 0's cubic grid,
        ``r_subcubes[0]``.
    """

    q: DistMatrix
    r_subcubes: Sequence[DistMatrix]

    @property
    def r(self) -> DistMatrix:
        return self.r_subcubes[0]


class SubcubeResults(Sequence):
    """The ``d/c`` identical per-subcube ``m x n`` matrices of a ``c x d x c`` grid.

    Every cubic subcube holds the same blocks, so the sequence stores them
    once -- one shape-only block (symbolic) or subcube 0's ``(c, c, c,
    m/c, n/c)`` stacked *template* (numeric) -- and builds subcube ``k``'s
    :class:`DistMatrix` (and its :class:`Grid3D`) only when indexed: O(1)
    Python objects whatever ``d/c`` is.  A numeric subcube gets its own
    copy of the template, so no two ranks' blocks alias.
    """

    __slots__ = ("grid", "m", "n", "block", "template")

    def __init__(self, grid: Grid3D, m: int, n: int,
                 template: Optional[np.ndarray] = None):
        self.grid = grid
        self.m = m
        self.n = n
        self.block = SymbolicBlock((m // grid.dim_x, n // grid.dim_x))
        self.template = template

    def __len__(self) -> int:
        return self.grid.dim_y // self.grid.dim_x

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"subcube {k} out of range [0, {len(self)})")
        sub = self.grid.subcube(k)
        if self.template is None:
            return DistMatrix.shared(sub, self.m, self.n, self.block)
        return DistMatrix.stacked(sub, self.m, self.n, self.template.copy())


def _validate(a: DistMatrix) -> Tuple[int, int]:
    g = a.grid
    require(g.dim_x == g.dim_z,
            f"CA-CQR needs a c x d x c grid, got dims {g.dims}")
    c, d = g.dim_x, g.dim_y
    require(d % c == 0, f"grid depth d={d} must be a multiple of c={c}")
    require(a.m >= a.n, f"CA-CQR needs a tall matrix, got {a.m}x{a.n}")
    require(a.n % c == 0, f"n={a.n} must be divisible by c={c}")
    require(a.m % d == 0, f"m={a.m} must be divisible by d={d}")
    return c, d


def _gram_replicated(vm: VirtualMachine, a: DistMatrix,
                     phase: str) -> SubcubeResults:
    """Algorithm 8 lines 1-5: every rank ends with its subcube's cyclic Gram block."""
    return _cross_product_replicated(vm, a, a, phase, symmetric=True)


def _cross_product_replicated(vm: VirtualMachine, w_source: DistMatrix,
                              target: DistMatrix, phase: str,
                              symmetric: bool) -> SubcubeResults:
    """The Gram dance generalized to ``Z = W_source.T @ target``.

    With ``w_source is target`` this is Algorithm 8 lines 1-5 (the Gram
    matrix, charged at the symmetric Syrk rate).  With a *different*
    ``w_source`` -- e.g. a panel's Q factor against the trailing matrix --
    the identical communication schedule computes the cross product
    ``W = Q_p.T C`` needed by the panel-blocked variant, charged at the
    full GEMM rate.  Either way every rank ends holding the cyclic block
    ``Z[(y mod c)::c, x::c]`` of the result, replicated over depth, which
    is exactly the subcube layout downstream MM3D/CFR3D calls expect: the
    result is one :class:`SubcubeResults` entry per subcube.

    Each of Algorithm 8's lines 1/3/4/5 sweeps a family of pairwise
    disjoint, equal-cost communicator groups over the uniform cyclic
    layout, and every family is the set of lines along one axis of the
    rank array viewed in memory order ``[z, y, x]`` (see
    :mod:`repro.vmpi.grid`): the row broadcast along ``x`` and the depth
    broadcast along ``z`` of ``(c, d, c)``, the contiguous Reduce and the
    strided Allreduce along ``y mod c`` and ``group`` of ``(c, d/c, c, c)``
    = ``[z, group, y mod c, x]``.  Each line is one
    :meth:`~repro.vmpi.grid.Grid3D.charge_lines` call -- on a root grid the
    machine's gather-free axis form -- and line 2's local product is
    identical on every rank.  Disjoint charges commute, so clocks and
    ledgers are bit-identical to charging group by group.
    """
    g = w_source.grid
    require(g.matches(target.grid), "cross-product operands must share a grid")
    require(w_source.m == target.m,
            f"row counts disagree: {w_source.m} vs {target.m}")
    c, d = g.dim_x, g.dim_y
    require(d % c == 0, f"grid depth d={d} must be a multiple of c={c}")
    zyx = (c, d, c)
    by_group = (c, d // c, c, c)             # [z, group, y mod c, x]

    # Line 1: row broadcast of the root-z column panel of W's source.
    w_shape = (w_source.local_rows, w_source.local_cols)
    g.charge_lines(vm, zyx, 2, cc.bcast_cost(w_shape[0] * w_shape[1], c),
                   f"{phase}.bcast-w")

    # Line 2: local X = W.T @ target, identical on every rank.  Symmetric
    # (self) products are charged at the Syrk rate -- the paper's
    # critical-path flop count (4 m n**2 + (5/3) n**3 for CQR2) assumes the
    # implementation exploits the Gram matrix's symmetry; the numeric
    # backend still forms the plain product.
    t_shape = (target.local_rows, target.local_cols)
    partial, flops = local_mm_tn(SymbolicBlock(w_shape), SymbolicBlock(t_shape))
    vm.charge_flops_group(g.all_ranks_array,
                          flops / 2.0 if symmetric else flops,
                          f"{phase}.local-gram")

    # Line 3: reduce within each contiguous y-group of size c, root at
    # group position z (i.e. the member with y mod c == z).
    g.charge_lines(vm, by_group, 2, cc.reduce_cost(partial.words, c),
                   f"{phase}.reduce-group")

    # Line 4: allreduce across the d/c group roots (stride-c y-subgroups).
    # Non-root residues join their own subgroup's allreduce with data that
    # is never consumed; the cost is charged either way.
    gram_words = partial.words
    g.charge_lines(vm, by_group, 1, cc.allreduce_cost(gram_words, d // c),
                   f"{phase}.allreduce-roots")

    # Line 5: depth broadcast from root z = y mod c.
    g.charge_lines(vm, zyx, 0, cc.bcast_cost(gram_words, c),
                   f"{phase}.bcast-depth")

    if target.data is None:
        return SubcubeResults(g, w_source.n, target.n)
    return SubcubeResults(g, w_source.n, target.n,
                          _cross_product_stacked(w_source.data, target.data))  # type: ignore[arg-type]


def _cross_product_stacked(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Lines 1-5's numerics on stacked blocks: subcube 0's ``(c, c, c, ., .)`` result.

    The row broadcast is a stride-0 view of the root blocks (``W[x, y, z]
    = w[z, y, z]``) and the local products one stacked ``np.matmul``.  The
    contiguous-group Reduce sums each group's ``c`` partials in ``y``
    order; the strided Allreduce sums, for each residue ``z``, the ``d/c``
    group sums in group order (only the roots' results are ever read, so
    the non-root residues' all-zero sums are not formed); the depth
    broadcast gives rank ``(x, y, z')`` the sum of residue ``y mod c``.
    """
    c, d = t.shape[0], t.shape[1]
    zs = np.arange(c)
    w_panels = w[zs, :, zs].transpose(1, 0, 2, 3)[None]  # (1, d, c, ., .)
    partials = np.matmul(w_panels.swapaxes(-1, -2), t)   # (c, d, c, ., .)
    by_group = partials.reshape(c, d // c, c, *partials.shape[2:])
    group_sums = ordered_sum(by_group, axis=2)           # [x, group, z]
    full = ordered_sum(group_sums, axis=1)               # [x, residue z]
    return np.repeat(full[:, :, None], c, axis=2)


def _apply_gram_shift(vm: VirtualMachine, g: Grid3D, gram: SubcubeResults,
                      n: int, shift: float, phase: str) -> SubcubeResults:
    """The distributed Gram matrix plus ``shift * I``.

    Rank ``(x, y, z)`` holds the cyclic block ``Z[(y mod c)::c, x::c]``; its
    local diagonal entries correspond to global diagonal entries only when
    ``x == y mod c``, at local positions ``(k, k)``.  A purely local
    operation -- the "minimal modification" the paper's Section V mentions
    for shifted CholeskyQR -- charged to that diagonal rank family (one
    rank per ``(y, z)``) in one call.
    """
    c = g.dim_x
    per_rank_diag = n // c
    ys = np.arange(g.dim_y)
    diag_ranks = g.ranks[ys % c, ys, :].reshape(-1)
    vm.charge_flops_group(diag_ranks, float(per_rank_diag), f"{phase}.shift")
    if gram.template is None:
        return gram
    shifted = gram.template.copy()
    diag = np.arange(per_rank_diag)
    for x in range(c):
        shifted[x, x][:, diag, diag] += shift
    return SubcubeResults(g, n, n, shifted)


@functools.lru_cache(maxsize=64)
def _subcube_pass_program(c: int, n: int, rows_per_subcube: int,
                          base_case_size: int) -> Tuple[ChargeProgram, Grid3D]:
    """Compile one subcube's CFR3D + form-Q/form-R stage (Algorithm 8
    lines 6-8) on a standalone ``c x c x c`` template grid.

    Recorded once per ``(c, n, rows, n0)`` under the placeholder phase
    prefix ``"@"`` and memoized: both CA-CQR2 passes (and every caller
    with the same shapes) reuse the identical program through
    :meth:`~repro.sched.program.ChargeProgram.phases_with_prefix`.
    Returns the program together with its template grid, whose layout the
    subcube binding inverts.
    """
    rec = ScheduleRecorder(c * c * c)
    rec_grid = Grid3D.build(rec, c, c, c)
    z0 = DistMatrix.symbolic(rec_grid, n, n)
    l0, y0 = cfr3d(rec, z0, base_case_size, phase="@.cfr3d")
    rinv0 = dist_transpose(rec, y0, "@.form-q.transpose")
    a0 = DistMatrix.symbolic(rec_grid, rows_per_subcube, n)
    mm3d(rec, a0, rinv0, phase="@.form-q.mm3d",
         flop_fraction=fl.TRMM_FRACTION)
    dist_transpose(rec, l0, "@.form-r.transpose")
    return rec.program(), rec_grid


@functools.lru_cache(maxsize=64)
def _merge_program(c: int, n: int) -> Tuple[ChargeProgram, Grid3D]:
    """Compile the per-subcube ``R = R2 R1`` merge MM3D (Algorithm 9)."""
    rec = ScheduleRecorder(c * c * c)
    rec_grid = Grid3D.build(rec, c, c, c)
    mm3d(vm=rec,
         a=DistMatrix.symbolic(rec_grid, n, n),
         b=DistMatrix.symbolic(rec_grid, n, n),
         phase="@.merge-r.mm3d",
         flop_fraction=fl.TRI_TRI_FRACTION)
    return rec.program(), rec_grid


def _use_subcube_replay(vm: VirtualMachine, a: DistMatrix) -> bool:
    """Whether the compiled subcube-replay path applies.

    Symbolic and numeric runs alike, with more than one subcube
    (otherwise the loop is already minimal), and outside
    :func:`repro.sched.compiled_replay_disabled` (the loop oracle that
    equivalence tests diff replay against).  Charges come from the
    replayed program either way; numeric runs first compute the stage's
    numerics uncharged (``vm=None``): CFR3D, the transposes and the merge
    on subcube 0's stacked blocks, form-Q's MM3D for every subcube at
    once.  Replay composes with an attached trace sink -- the per-op
    strategy emits every rank's events with exact timestamps -- so
    tracing does not force the loop.
    """
    g = a.grid
    return g.dim_y > g.dim_x and compiled_replay_enabled()


def _subcube_pass_numeric(vm: VirtualMachine, a: DistMatrix,
                          gram: DistMatrix, base_case_size: int,
                          phase: str) -> CACQRResult:
    """Algorithm 8 lines 6-8 for every subcube, charging nothing to *vm*.

    CFR3D and the transposes run once, on subcube 0's Gram blocks; only
    form-Q's MM3D sees distinct data per subcube (``A``'s rows), and one
    stacked multiply covers them all.
    """
    try:
        l, y = cfr3d(None, gram, base_case_size)
    except CholeskyFailure:
        # Fail from the real machine instead: re-running subcube 0's
        # CFR3D there leaves exactly the loop's partial charges behind,
        # so a caller's retry (sCQR3) starts from the loop's state.
        cfr3d(vm, gram, base_case_size, phase=f"{phase}.cfr3d")
        raise
    rinv = dist_transpose(None, y, "form-q.transpose")
    q = mm3d_stacked(a.data, rinv.data)  # type: ignore[arg-type]
    r = dist_transpose(None, l, "form-r.transpose")
    return CACQRResult(q=DistMatrix.stacked(a.grid, a.m, a.n, q),
                       r_subcubes=SubcubeResults(a.grid, a.n, a.n, r.data))


def ca_cqr(vm: VirtualMachine, a: DistMatrix, base_case_size: Optional[int] = None,
           phase: str = "cacqr", gram_shift: Optional[float] = None) -> CACQRResult:
    """One CA-CQR pass (Algorithm 8).

    Parameters
    ----------
    vm:
        Virtual machine charged for all communication and computation.
    a:
        Tall ``m x n`` :class:`DistMatrix` on a ``c x d x c`` grid.
    base_case_size:
        CFR3D recursion cutoff ``n0`` (per subcube); defaults to the
        communication-optimal :func:`~repro.core.cfr3d.default_base_case`.
    phase:
        Ledger phase prefix (sub-steps: ``.bcast-w``, ``.local-gram``,
        ``.reduce-group``, ``.allreduce-roots``, ``.bcast-depth``,
        ``.cfr3d.*``, ``.form-q.*``).
    gram_shift:
        Optional diagonal shift added to the Gram matrix before CFR3D --
        the shifted-CholeskyQR regularization (see
        :func:`repro.core.shifted.ca_shifted_cqr3`).

    Returns
    -------
    CACQRResult
        ``Q`` on the full grid; ``R`` per subcube.
    """
    c, d = _validate(a)
    g = a.grid
    gram = _gram_replicated(vm, a, phase)
    if gram_shift is not None:
        gram = _apply_gram_shift(vm, g, gram, a.n, gram_shift, phase)
    if base_case_size is None:
        base_case_size = default_base_case(a.n, c)

    numeric = a.is_numeric
    if _use_subcube_replay(vm, a):
        # Compiled path: all d/c subcubes run the *identical* schedule on
        # disjoint rank sets, so compile it once on a standalone c x c x c
        # template grid (memoized across passes and calls) and replay it
        # onto every subcube in one bound program -- the subcube loop
        # stops scaling with d/c (the c = 1, d = P degenerate grid has P
        # subcubes).  Numerics run first, so a CholeskyFailure leaves the
        # machine exactly as the loop would.
        program, rec_grid = _subcube_pass_program(c, a.n, c * a.local_rows,
                                                  base_case_size)
        if numeric:
            result = _subcube_pass_numeric(vm, a, gram[0], base_case_size,
                                           phase)
        else:
            result = CACQRResult(q=DistMatrix.symbolic(g, a.m, a.n),
                                 r_subcubes=SubcubeResults(g, a.n, a.n))
        bound = program.specialize(RankFamilyMap.subcubes(g, rec_grid))
        bound.replay(vm, phases=program.phases_with_prefix("@", phase))
        return result

    q_parts: List[np.ndarray] = []
    r_subcubes: List[DistMatrix] = []
    for group in range(d // c):
        # Line 7: CFR3D gives L = R.T and Y = R**-T on the subcube.
        l, y = cfr3d(vm, gram[group], base_case_size, phase=f"{phase}.cfr3d")
        # Line 8: Q = A @ R**-1 with R**-1 = Y.T (one transpose, then MM3D).
        # R**-1 is triangular, so the multiply is charged at the TRMM rate.
        rinv = dist_transpose(vm, y, f"{phase}.form-q.transpose")
        q_sub = mm3d(vm, a.subcube(group), rinv, phase=f"{phase}.form-q.mm3d",
                     flop_fraction=fl.TRMM_FRACTION)
        if numeric:
            q_parts.append(q_sub.data)  # type: ignore[arg-type]
        r_subcubes.append(dist_transpose(vm, l, f"{phase}.form-r.transpose"))

    q = (DistMatrix.stacked(g, a.m, a.n, np.concatenate(q_parts, axis=1))
         if numeric else DistMatrix.symbolic(g, a.m, a.n))
    return CACQRResult(q=q, r_subcubes=r_subcubes)


def ca_cqr2(vm: VirtualMachine, a: DistMatrix, base_case_size: Optional[int] = None,
            phase: str = "cacqr2") -> CACQRResult:
    """CA-CQR2 (Algorithm 9): two CA-CQR passes plus the per-subcube R merge.

    Returns ``Q`` (distributed like ``a``) and ``R = R2 @ R1`` computed by
    one MM3D per subcube (each subcube already holds both factors, so the
    merge needs no cross-subcube communication).
    """
    c, d = _validate(a)
    first = ca_cqr(vm, a, base_case_size, phase=f"{phase}.pass1")
    second = ca_cqr(vm, first.q, base_case_size, phase=f"{phase}.pass2")

    g = a.grid
    if _use_subcube_replay(vm, a):
        # Same compiled path as the per-subcube CFR3D stage: the merge
        # MM3D is identical per subcube, so one memoized template program
        # replays onto all of them (and numeric runs multiply once).
        program, rec_grid = _merge_program(c, a.n)
        template = None
        if a.is_numeric:
            template = mm3d(None, second.r, first.r).data
        bound = program.specialize(RankFamilyMap.subcubes(g, rec_grid))
        bound.replay(vm, phases=program.phases_with_prefix("@", phase))
        return CACQRResult(q=second.q,
                           r_subcubes=SubcubeResults(g, a.n, a.n, template))

    r_subcubes: List[DistMatrix] = []
    for group in range(d // c):
        r2 = second.r_subcubes[group]
        r1 = first.r_subcubes[group]
        # Triangular x triangular with triangular result: n**3/3 flops.
        merged = mm3d(vm, r2, r1, phase=f"{phase}.merge-r.mm3d",
                      flop_fraction=fl.TRI_TRI_FRACTION)
        r_subcubes.append(merged)
    return CACQRResult(q=second.q, r_subcubes=r_subcubes)


def cqr2_3d(vm: VirtualMachine, a: DistMatrix, base_case_size: Optional[int] = None,
            phase: str = "cqr2-3d") -> CACQRResult:
    """3D-CQR2 (Section III-A): the cubic-grid special case ``c = d = P**(1/3)``.

    Implemented by requiring a cubic grid and delegating to CA-CQR2, whose
    Gram dance degenerates exactly to the 3D scheme (one contiguous group,
    a singleton strided allreduce, one subcube).
    """
    require(a.grid.is_cubic,
            f"3D-CQR2 requires a cubic grid, got dims {a.grid.dims}")
    return ca_cqr2(vm, a, base_case_size, phase=phase)
