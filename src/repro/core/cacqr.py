"""CA-CQR and CA-CQR2 (Algorithms 8-9): CholeskyQR2 on a tunable 3D grid.

The ``m x n`` matrix ``A`` lives on a ``c x d x c`` grid ``Pi[x, y, z]``
(``P = c**2 d``), cyclically partitioned into ``m/d x n/c`` local blocks
(rows over ``y``, columns over ``x``) and replicated over depth ``z``.

One CA-CQR pass:

1. **Row broadcast** (line 1): ``Pi[z, y, z]`` broadcasts its block along
   ``Pi[:, y, z]`` as ``W`` -- slice ``z`` obtains ``A``'s columns of
   residue ``z``.
2. **Local Gram** (line 2): ``X = W.T @ A_local``, the rows-``y`` partial of
   the Gram block ``(A.T A)[z::c, x::c]``.  The Gram is symmetric (the
   paper charges it at the Syrk rate), so the numerics multiply only the
   ``x >= z`` partials and fill each ``x < z`` one with its mirror's
   transpose: the plain product's bits (Syrk itself rounds differently).
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
   needed*.  Every subcube factors a bit-identical Gram matrix, so --
   compiled unless :func:`~repro.sched.compiled_replay_disabled` -- the
   simulation computes these numerics once, uncharged, on subcube 0's
   stacked blocks, for ``d > c`` and the cubic ``d == c`` (one subcube)
   alike.  The charges come from compiled programs (:mod:`repro.sched`;
   CFR3D's is captured one recursion level at a time, see
   :mod:`repro.core.cfr3d`): on a plain machine, traced or not, whose
   subcubes hold identical state, the *whole* schedule -- both Gram
   dances (line 4 joins ranks in identical state, so it needs no second
   subcube), both subcube passes and the merge -- runs once on a
   ``c**3``-rank template seeded from subcube 0 and is written back to
   every subcube once, in class space: beyond the report's rank-order
   sums, the cost of simulating CA-CQR2 does not depend on ``d``.  Nor,
   per op, on ``c``: the template runs on rank classes
   (:class:`~repro.sched.replay.TemplateRun`), and every subcube rank
   does the same cyclic work except at CFR3D's transposes, which are
   free self-exchanges on the diagonal ``x == y``.  So the ``c**3``
   positions hold two states -- the ``c**2`` diagonal ones and the rest
   -- and each op costs two class updates.  A recorder splices the
   programs bound to every subcube; asymmetric entry state or another
   machine subclass runs the per-subcube loop, the oracle under
   :func:`~repro.sched.compiled_replay_disabled`.
7. **MM3D per subcube** (line 8) forms ``Q = A R**-1`` on each subcube's
   own rows -- the one step whose data differ between subcubes, computed
   for all of them by one stacked multiply.

CA-CQR2 runs two passes and merges ``R = R2 R1`` with one more per-subcube
MM3D (Algorithm 9), computed once and charged in the same template run.

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

from repro.core.cfr3d import _cfr3d_program, cfr3d, default_base_case
from repro.core.mm3d import chunks, mm3d, mm3d_stacked
from repro.costmodel import collectives as cc
from repro.kernels import flops as fl
from repro.kernels.blas import local_mm_tn
from repro.kernels.cholesky import CholeskyFailure
from repro.obs import span
from repro.sched import (
    ChargeProgram,
    RankFamilyMap,
    ScheduleRecorder,
    TemplateRun,
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
    once -- one shape-only block (symbolic) or subcube 0's ``(c, c, 1,
    m/c, n/c)`` *template* plane (numeric) -- and builds subcube ``k``'s
    :class:`DistMatrix` (and its :class:`Grid3D`) only when indexed: O(1)
    Python objects whatever ``d/c`` is.  A numeric subcube gets its own
    copy of the one plane, so distinct subcubes' blocks never alias.
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
        return DistMatrix.from_plane(sub, self.m, self.n, self.template.copy())


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
    result is one :class:`SubcubeResults` entry per subcube.  Charges
    (:func:`_charge_cross_product`) and numerics
    (:func:`_cross_product_stacked`) are separate steps.
    """
    g = w_source.grid
    require(g.matches(target.grid), "cross-product operands must share a grid")
    require(w_source.m == target.m,
            f"row counts disagree: {w_source.m} vs {target.m}")
    c, d = g.dim_x, g.dim_y
    require(d % c == 0, f"grid depth d={d} must be a multiple of c={c}")
    _charge_cross_product(vm, g, (w_source.local_rows, w_source.local_cols),
                          (target.local_rows, target.local_cols), phase,
                          symmetric, groups=d // c)
    if target.data is None:
        return SubcubeResults(g, w_source.n, target.n)
    return SubcubeResults(g, w_source.n, target.n,
                          _cross_product_stacked(w_source.data, target.data))  # type: ignore[arg-type]


def _charge_cross_product(vm: VirtualMachine, g: Grid3D,
                          w_shape: Tuple[int, int], t_shape: Tuple[int, int],
                          phase: str, symmetric: bool, groups: int) -> None:
    """Charge Algorithm 8 lines 1-5 on *g*, whose y extent holds *groups* subcubes'
    worth of line-4 partners.

    Each of lines 1/3/4/5 sweeps a family of pairwise disjoint,
    equal-cost communicator groups over the uniform cyclic layout, and
    every family is the set of lines along one axis of the rank array
    viewed in memory order ``[z, y, x]`` (see :mod:`repro.vmpi.grid`):
    the row broadcast along ``x`` and the depth broadcast along ``z`` of
    ``(c, dim_y, c)``, the contiguous Reduce and the strided Allreduce
    along ``y mod c`` and ``group`` of ``(c, dim_y/c, c, c)`` = ``[z,
    group, y mod c, x]``.  Each line is one
    :meth:`~repro.vmpi.grid.Grid3D.charge_lines` call -- on a root grid
    the machine's gather-free axis form -- and line 2's local product is
    identical on every rank.  Disjoint charges commute, so clocks and
    ledgers are bit-identical to charging group by group.

    On the whole ``c x d x c`` grid ``groups = d/c``.  On one subcube's
    ``c x c x c`` template standing for all of them (CA-CQR2's template
    run) ``groups`` stays ``d/c`` while line 4's lines shrink to length
    1: they are charged the ``d/c``-member Allreduce, and since every
    member sits at the same position of identical subcube states, the
    group's clock max is each member's own clock -- bit-identical.
    """
    c = g.dim_x
    zyx = (c, g.dim_y, c)
    by_group = (c, g.dim_y // c, c, c)         # [z, group, y mod c, x]

    # Line 1: row broadcast of the root-z column panel of W's source.
    g.charge_lines(vm, zyx, 2, cc.bcast_cost(w_shape[0] * w_shape[1], c),
                   f"{phase}.bcast-w")

    # Line 2: local X = W.T @ target, identical on every rank.  Symmetric
    # (self) products are charged at the Syrk rate -- the paper's
    # critical-path flop count (4 m n**2 + (5/3) n**3 for CQR2) assumes the
    # implementation exploits the Gram matrix's symmetry; the numeric
    # backend forms the x >= z rank blocks and mirrors the rest.
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
    g.charge_lines(vm, by_group, 1, cc.allreduce_cost(partial.words, groups),
                   f"{phase}.allreduce-roots")

    # Line 5: depth broadcast from root z = y mod c.
    g.charge_lines(vm, zyx, 0, cc.bcast_cost(partial.words, c),
                   f"{phase}.bcast-depth")


def _cross_product_stacked(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Lines 1-5's numerics on stacked blocks: subcube 0's ``(c, c, 1, ., .)`` plane.

    The grid face is walked in chunks of whole ``y``-groups of ``c`` rank
    rows (:func:`~repro.core.mm3d.chunks`).  Per chunk, the row broadcast
    gathers (copies) the root blocks (``W[x, y, z] = w[z, y, z]``) and
    the local products are stacked ``np.matmul`` calls into one reused
    buffer.  For the symmetric Gram (*w* is *t*, ``c > 1``) only the
    blocks ``x >= z`` are multiplied: block ``(x, y, z)`` with ``x < z``
    is the transpose of its mirror ``(z, y, x)``, bit for bit, since
    ``A.T @ B == (B.T @ A).T`` bytewise on the BLAS
    (``tests/test_stacked_numerics.py`` pins it).  The contiguous-group
    Reduce sums each group's ``c`` partials in ``y`` order; the strided
    Allreduce adds, for each residue ``z``, the ``d/c`` group sums to a
    float64 zero in group order (only the roots' results are ever read,
    so the non-root residues' all-zero sums are not formed); the depth
    broadcast gives rank ``(x, y, z')`` the sum of residue ``y mod c`` --
    the same on every slice ``z'``, so it is the plane's block ``[x, y]``.
    """
    c = t.shape[0]
    groups = t.shape[1] // c
    rows, k, n = t.shape[-2], w.shape[-1], t.shape[-1]
    mirror = w is t and c > 1
    zs = np.arange(c)
    total = np.zeros((c, c, 1, k, n))
    full = total[:, :, 0]                                # [x, residue z]
    parts = chunks(groups, c * c * (c * k * n + rows * k))
    buf = np.empty((c, parts[0].stop * c, c, k, n))
    for gs in parts:
        ys = slice(gs.start * c, gs.stop * c)
        partials = buf[:, :ys.stop - ys.start]           # (c, y, c, ., .)
        w_t = w[zs, ys, zs].swapaxes(-1, -2)             # [z, y]: a copy
        if mirror:
            for z in range(c):
                np.matmul(w_t[z][None], t[z:, ys, z], out=partials[z:, :, z])
            for z in range(1, c):
                partials[:z, :, z] = partials[z, :, :z].transpose(1, 0, 3, 2)
        else:
            np.matmul(w_t.swapaxes(0, 1)[None], t[:, ys], out=partials)
        by_group = partials.reshape(c, -1, c, c, k, n)   # [x, group, y mod c, z]
        group_sums = ordered_sum(by_group, axis=2)       # [x, group, z]
        for g in range(group_sums.shape[1]):
            full += group_sums[:, g]
    return total


def _apply_gram_shift(vm: VirtualMachine, g: Grid3D, gram: SubcubeResults,
                      n: int, shift: float, phase: str) -> SubcubeResults:
    """The distributed Gram matrix plus ``shift * I``.

    A purely local operation -- the "minimal modification" the paper's
    Section V mentions for shifted CholeskyQR: charged by
    :func:`_charge_gram_shift`, computed by :func:`_shift_gram`.
    """
    _charge_gram_shift(vm, g, n, phase)
    return _shift_gram(g, gram, n, shift)


def _charge_gram_shift(vm: VirtualMachine, g: Grid3D, n: int,
                       phase: str) -> None:
    """Charge the shift to the diagonal-block owners, in one call.

    Rank ``(x, y, z)`` holds the cyclic block ``Z[(y mod c)::c, x::c]``;
    its local diagonal entries correspond to global diagonal entries only
    when ``x == y mod c``, at local positions ``(k, k)`` -- one rank per
    ``(y, z)``.
    """
    c = g.dim_x
    ys = np.arange(g.dim_y)
    diag_ranks = g.ranks[ys % c, ys, :].reshape(-1)
    vm.charge_flops_group(diag_ranks, float(n // c), f"{phase}.shift")


def _shift_gram(g: Grid3D, gram: SubcubeResults, n: int,
                shift: float) -> SubcubeResults:
    """:func:`_apply_gram_shift`'s numerics on subcube 0's template plane."""
    if gram.template is None:
        return gram
    c = g.dim_x
    shifted = gram.template.copy()
    diag = np.arange(n // c)
    for x in range(c):
        shifted[x, x][:, diag, diag] += shift
    return SubcubeResults(g, n, n, shifted)


@functools.lru_cache(maxsize=64)
def _gram_program(c: int, groups: int, local_rows: int, local_cols: int,
                  shifted: bool) -> ChargeProgram:
    """Compile one subcube's share of the Gram dance (Algorithm 8 lines
    1-5, plus the sCQR3 shift when *shifted*) on a ``c x c x c`` template.

    Recorded under the placeholder phase prefix ``"@"`` with line 4
    charged as the ``groups``-member Allreduce over lines of length 1
    (see :func:`_charge_cross_product`), so it is exact only on a
    template standing for ``groups`` identical subcubes: CA-CQR2's
    template run, never a recorder's bound splice.
    """
    with span("sched.capture", ranks=c * c * c) as sp:
        rec = ScheduleRecorder(c * c * c)
        rec_grid = Grid3D.build(rec, c, c, c)
        block = (local_rows, local_cols)
        _charge_cross_product(rec, rec_grid, block, block, "@",
                              symmetric=True, groups=groups)
        if shifted:
            _charge_gram_shift(rec, rec_grid, c * local_cols, "@")
        program = rec.program()
        sp.set(ops=len(program))
    return program


@functools.lru_cache(maxsize=64)
def _subcube_pass_program(c: int, n: int, rows_per_subcube: int,
                          base_case_size: int) -> Tuple[ChargeProgram, Grid3D]:
    """Compile one subcube's CFR3D + form-Q/form-R stage (Algorithm 8
    lines 6-8) on a standalone ``c x c x c`` template grid.

    Recorded once per ``(c, n, rows, n0)`` under the placeholder phase
    prefix ``"@"`` and memoized: both CA-CQR2 passes (and every caller
    with the same shapes) reuse the identical program through
    :meth:`~repro.sched.program.ChargeProgram.phases_with_prefix`.  The
    CFR3D part is spliced from :func:`~repro.core.cfr3d._cfr3d_program`,
    memoized per ``(c, n, n0)`` and so shared across row counts; only
    form-Q and form-R are recorded here.  The ``sched.capture`` span's
    ``levels`` counts the CFR3D levels this capture recorded (its nested
    level captures open no span of their own).  Returns the program
    together with its template grid, whose layout the subcube binding
    inverts.
    """
    with span("sched.capture", ranks=c * c * c) as sp:
        misses = _cfr3d_program.cache_info().misses
        rec = ScheduleRecorder(c * c * c)
        rec_grid = Grid3D.build(rec, c, c, c)
        rec.extend(_cfr3d_program(c, n, base_case_size))
        # CFR3D's L and Y, shape-only: the charges below read shapes only.
        factor = DistMatrix.symbolic(rec_grid, n, n)
        rinv0 = dist_transpose(rec, factor, "@.form-q.transpose")
        a0 = DistMatrix.symbolic(rec_grid, rows_per_subcube, n)
        mm3d(rec, a0, rinv0, phase="@.form-q.mm3d",
             flop_fraction=fl.TRMM_FRACTION)
        dist_transpose(rec, factor, "@.form-r.transpose")
        program = rec.program()
        sp.set(ops=len(program),
               levels=_cfr3d_program.cache_info().misses - misses)
    return program, rec_grid


@functools.lru_cache(maxsize=64)
def _merge_program(c: int, n: int) -> Tuple[ChargeProgram, Grid3D]:
    """Compile the per-subcube ``R = R2 R1`` merge MM3D (Algorithm 9)."""
    with span("sched.capture", ranks=c * c * c) as sp:
        rec = ScheduleRecorder(c * c * c)
        rec_grid = Grid3D.build(rec, c, c, c)
        mm3d(vm=rec,
             a=DistMatrix.symbolic(rec_grid, n, n),
             b=DistMatrix.symbolic(rec_grid, n, n),
             phase="@.merge-r.mm3d",
             flop_fraction=fl.TRI_TRI_FRACTION)
        program = rec.program()
        sp.set(ops=len(program))
    return program, rec_grid


def _subcube_pass_numeric(a: DistMatrix, gram: DistMatrix,
                          base_case_size: int) -> CACQRResult:
    """Algorithm 8 lines 6-8 for every subcube, charging nothing.

    CFR3D and the transposes run once, on subcube 0's Gram blocks; only
    form-Q's MM3D sees distinct data per subcube (``A``'s rows), and one
    stacked multiply covers them all.  On a :class:`CholeskyFailure` the
    caller fails from the real machine instead: once the charges up to
    this pass's Gram dance are in, re-running subcube 0's CFR3D there
    leaves exactly the loop's partial charges behind, so a caller's retry
    (sCQR3) starts from the loop's state.
    """
    l, y = cfr3d(None, gram, base_case_size)
    rinv = dist_transpose(None, y, "form-q.transpose")
    q = mm3d_stacked(a.data, rinv.data)  # type: ignore[arg-type]
    r = dist_transpose(None, l, "form-r.transpose")
    return CACQRResult(q=DistMatrix.stacked(a.grid, a.m, a.n, q),
                       r_subcubes=SubcubeResults(a.grid, a.n, a.n, r.plane))


def _compiled_run(vm: VirtualMachine, a: DistMatrix, base_case_size: int,
                  phases: Sequence[str], gram_shift: Optional[float] = None,
                  merge_phase: Optional[str] = None) -> Optional[CACQRResult]:
    """CA-CQR passes (one per entry of *phases*) and, with *merge_phase*,
    CA-CQR2's ``R = R2 R1`` merge, charged from ``c**3``-rank programs;
    ``None``, *vm* untouched, where the caller must run its loop.

    The ``d/c`` subcubes run identical schedules, so the numerics run
    once, uncharged, and the whole schedule is charged as one
    :class:`~repro.sched.TemplateRun` seeded from subcube 0 and
    installed on every subcube in class space.  A
    :class:`~repro.sched.ScheduleRecorder` records each Gram dance (its
    program is exact only on the template, see :func:`_gram_program`)
    and splices the pass and merge programs bound to every subcube.
    """
    if not compiled_replay_enabled():
        return None
    g = a.grid
    c, d, n = g.dim_x, g.dim_y, a.n
    block = (a.local_rows, a.local_cols)
    gram_program = _gram_program(c, d // c, *block, gram_shift is not None)
    pass_program, rec_grid = _subcube_pass_program(c, n, c * a.local_rows,
                                                   base_case_size)
    segments: List[Tuple[ChargeProgram, List[str]]] = []
    for phase in phases:
        segments.append((gram_program,
                         gram_program.phases_with_prefix("@", phase)))
        segments.append((pass_program,
                         pass_program.phases_with_prefix("@", phase)))
    if merge_phase is not None:
        merge_program, _ = _merge_program(c, n)
        segments.append((merge_program,
                         merge_program.phases_with_prefix("@", merge_phase)))
    binding = RankFamilyMap.subcubes(g, rec_grid)
    run = TemplateRun.seed(vm, binding,
                           [name for _, names in segments for name in names])
    if run is None and not isinstance(vm, ScheduleRecorder):
        return None

    def charge(count: int) -> None:
        """Charge the first *count* segments."""
        if run is not None:
            run.complete(segments[:count])
            return
        for k, (program, names) in enumerate(segments[:count]):
            if program is gram_program:
                phase = phases[k // 2]
                _charge_cross_product(vm, g, block, block, phase,
                                      symmetric=True, groups=d // c)
                if gram_shift is not None:
                    _charge_gram_shift(vm, g, n, phase)
            else:
                vm.extend(program, binding, names)  # type: ignore[attr-defined]

    results: List[CACQRResult] = []
    q = a
    for k, phase in enumerate(phases):
        if not a.is_numeric:
            results.append(CACQRResult(q=DistMatrix.symbolic(g, a.m, n),
                                       r_subcubes=SubcubeResults(g, n, n)))
            continue
        gram = SubcubeResults(g, n, n, _cross_product_stacked(q.data, q.data))  # type: ignore[arg-type]
        if gram_shift is not None:
            gram = _shift_gram(g, gram, n, gram_shift)
        try:
            results.append(_subcube_pass_numeric(q, gram[0], base_case_size))
        except CholeskyFailure:
            charge(2 * k + 1)
            cfr3d(vm, gram[0], base_case_size, phase=f"{phase}.cfr3d")
            raise
        q = results[-1].q

    r_subcubes = results[-1].r_subcubes
    if merge_phase is not None:
        template = None
        if a.is_numeric:
            template = mm3d(None, results[-1].r, results[0].r).plane
        r_subcubes = SubcubeResults(g, n, n, template)
    charge(len(segments))
    return CACQRResult(q=results[-1].q, r_subcubes=r_subcubes)


def _ca_cqr_pass(vm: VirtualMachine, a: DistMatrix, base_case_size: int,
                 phase: str, gram_shift: Optional[float] = None) -> CACQRResult:
    """One CA-CQR pass, subcube by subcube on the real machine (the loop)."""
    g = a.grid
    c, d = g.dim_x, g.dim_y
    gram = _gram_replicated(vm, a, phase)
    if gram_shift is not None:
        gram = _apply_gram_shift(vm, g, gram, a.n, gram_shift, phase)

    numeric = a.is_numeric
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
            q_parts.append(q_sub.plane)
        r_subcubes.append(dist_transpose(vm, l, f"{phase}.form-r.transpose"))

    q = (DistMatrix.from_plane(g, a.m, a.n, np.concatenate(q_parts, axis=1))
         if numeric else DistMatrix.symbolic(g, a.m, a.n))
    return CACQRResult(q=q, r_subcubes=r_subcubes)


def ca_cqr(vm: VirtualMachine, a: DistMatrix, base_case_size: Optional[int] = None,
           phase: str = "cacqr", gram_shift: Optional[float] = None) -> CACQRResult:
    """One CA-CQR pass (Algorithm 8).

    Compiled unless :func:`~repro.sched.compiled_replay_disabled`, the
    subcube stage is computed once and charged from compiled programs
    (:func:`_compiled_run`), on a cubic grid (``d == c``, one subcube)
    too: on a plain machine, traced or not, whose subcubes hold
    identical state (a fresh one, say), the whole pass -- Gram dance,
    shift and per-subcube stage -- on one ``c**3``-rank template
    standing for every subcube.  Otherwise, and under
    :func:`~repro.sched.compiled_replay_disabled`, it loops over the
    subcubes (the oracle).  Every route charges bit-identical clocks,
    ledgers and trace events.

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
    c, _ = _validate(a)
    if base_case_size is None:
        base_case_size = default_base_case(a.n, c)
    result = _compiled_run(vm, a, base_case_size, [phase],
                           gram_shift=gram_shift)
    if result is not None:
        return result
    return _ca_cqr_pass(vm, a, base_case_size, phase, gram_shift)


def ca_cqr2(vm: VirtualMachine, a: DistMatrix, base_case_size: Optional[int] = None,
            phase: str = "cacqr2") -> CACQRResult:
    """CA-CQR2 (Algorithm 9): two CA-CQR passes plus the per-subcube R merge.

    Returns ``Q`` (distributed like ``a``) and ``R = R2 @ R1`` computed by
    one MM3D per subcube (each subcube already holds both factors, so the
    merge needs no cross-subcube communication).  Compiled unless
    :func:`~repro.sched.compiled_replay_disabled`, both passes and the
    merge are charged by one :func:`_compiled_run`: as *one* template
    run where :func:`ca_cqr`'s applies, so the machine's subcubes are
    written once.  The loop below is the oracle, and the route wherever
    the template run declines.
    """
    c, d = _validate(a)
    if base_case_size is None:
        base_case_size = default_base_case(a.n, c)
    result = _compiled_run(vm, a, base_case_size,
                           [f"{phase}.pass1", f"{phase}.pass2"],
                           merge_phase=phase)
    if result is not None:
        return result
    first = _ca_cqr_pass(vm, a, base_case_size, f"{phase}.pass1")
    second = _ca_cqr_pass(vm, first.q, base_case_size, f"{phase}.pass2")

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
