"""Built-in :class:`~repro.engine.registry.Solver` adapters.

One adapter per QR algorithm in the repository: the paper's CA-CQR2 on
the tunable ``c x d x c`` grid, the 1D-CQR2 parallelization, the TSQR
kernel, the ScaLAPACK-style 2D blocked QR (PGEQRF), and CAQR.  Each
bundles the capability checks, grid construction, executed path, and
planner counterpart (runnable candidates plus their batched closed-form
costs) that the CLI, the planner, the modeled sweeps, and the benchmark
harness all dispatch through.  CA-CQR2 and 1D-CQR2 screen with the sum of
their per-line tables (:mod:`repro.costmodel.tables`); the baselines with
their batch forms in :mod:`repro.costmodel.batch`.  Only PGEQRF's counts
read the machine (its flop term divides by ``qr_kernel_efficiency``); the
lattice planner evaluates counts once per distinct machine, so no solver
declares which machine fields it reads.

CAQR note: the repository carries CAQR's *cost model* only; its executed
counterpart is the TSQR-panel machinery in
:mod:`repro.baselines.scalapack_qr` (whose panel factorization *is*
TSQR), so the CAQR solver shares the ScaLAPACK executed path while
screening with the batched form of :func:`repro.baselines.caqr.caqr_cost`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.scalapack_qr import default_scalapack_grid, scalapack_qr
from repro.baselines.tsqr import tsqr_1d
from repro.core.cacqr import ca_cqr2
from repro.core.cqr_1d import cqr2_1d
from repro.core.tuning import (
    GridShape,
    feasible_grids,
    inverse_depth_to_base_case,
    optimal_grid,
)
from repro.costmodel import batch, tables
from repro.costmodel.memory import ca_cqr2_memory, cqr2_1d_memory, pgeqrf_memory
from repro.costmodel.params import MachineSpec
from repro.engine.registry import (
    CapabilityError,
    PlanCandidate,
    QRFactors,
    Solver,
    capability,
    register,
)
from repro.engine.result import Grid2DShape
from repro.engine.spec import RunSpec
from repro.utils.validation import check_positive_int
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine


def _require_tall(spec: RunSpec) -> Tuple[int, int]:
    m, n = spec.shape
    capability(m >= n, f"need a tall 2D matrix, got shape ({m}, {n})")
    return m, n


class CACQR2Solver(Solver):
    """CA-CQR2 (Algorithm 9) on the tunable ``c x d x c`` grid."""

    name = "ca_cqr2"
    label = "CA-CQR2"
    aliases = ("cacqr2", "ca_cqr", "cqr2_3d")
    supports_symbolic = True
    requires = "tall matrix; c x d x c grid with c | d, c | n, d | m"

    def resolve(self, spec: RunSpec) -> RunSpec:
        m, n = spec.shape
        if spec.c is None or spec.d is None:
            capability(spec.c is None and spec.d is None,
                       "pass both c and d (or neither, with a processor count); "
                       "a half-specified grid would be silently replaced")
            capability(spec.procs is not None,
                       "pass either an explicit (c, d) grid or a processor count")
            try:
                shape = optimal_grid(m, n, spec.procs)
            except ValueError as exc:
                raise CapabilityError(str(exc)) from None
            spec = spec.replace(c=shape.c, d=shape.d)
        return spec.replace(procs=spec.c * spec.c * spec.d)

    def validate(self, spec: RunSpec) -> None:
        super().validate(spec)
        m, n = _require_tall(spec)
        check_positive_int(spec.c, "c")
        check_positive_int(spec.d, "d")
        c, d = spec.c, spec.d
        capability(d % c == 0, f"grid depth d={d} must be a multiple of c={c}")
        capability(n % c == 0, f"n={n} must be divisible by c={c}")
        capability(m % d == 0, f"m={m} must be divisible by d={d}")

    def total_procs(self, spec: RunSpec) -> int:
        return spec.c * spec.c * spec.d

    def grid_shape(self, spec: RunSpec) -> GridShape:
        return GridShape(c=spec.c, d=spec.d)

    def build_grid(self, vm: VirtualMachine, spec: RunSpec) -> Grid3D:
        return Grid3D.tunable(vm, spec.c, spec.d)

    def execute(self, vm: VirtualMachine, dist: DistMatrix,
                spec: RunSpec) -> QRFactors:
        result = ca_cqr2(vm, dist, base_case_size=spec.base_case_size)
        if not dist.is_numeric:
            return None, None
        return result.q.to_global(), np.triu(result.r.to_global())

    def plan_candidates(self, m: int, n: int, procs: int,
                        machine: MachineSpec,
                        block_sizes: Tuple[int, ...],
                        inverse_depths: Tuple[int, ...],
                        ) -> Iterable[PlanCandidate]:
        for shape in feasible_grids(m, n, procs):
            seen = set()
            for depth in inverse_depths:
                n0 = inverse_depth_to_base_case(n, shape.c, depth)
                if n0 in seen:          # deeper levels clamp; drop duplicates
                    continue
                seen.add(n0)
                yield PlanCandidate(
                    algorithm=self.name,
                    config=f"{shape},n0={n0}",
                    spec_fields={"c": shape.c, "d": shape.d,
                                 "base_case_size": n0, "procs": shape.procs},
                    memory_words=ca_cqr2_memory(m, n, shape.c, shape.d),
                    symbolic_ok=m % shape.d == 0)

    def screen_costs(self, m: int, n: int, machine: MachineSpec,
                     candidates: Sequence[PlanCandidate]) -> np.ndarray:
        fields = [cand.spec_fields for cand in candidates]
        return tables.total(tables.ca_cqr2_lines(
            m, n,
            np.array([f["c"] for f in fields], dtype=np.int64),
            np.array([f["d"] for f in fields], dtype=np.int64),
            np.array([f["base_case_size"] for f in fields], dtype=np.int64)))


class CQR21DSolver(Solver):
    """1D-CQR2 (Algorithm 7): row-distributed CholeskyQR2."""

    name = "cqr2_1d"
    label = "1D-CQR2"
    aliases = ("1d", "cqr1d", "cqr2-1d")
    supports_symbolic = True
    requires = "tall matrix; P | m for the symbolic layout"

    def resolve(self, spec: RunSpec) -> RunSpec:
        capability(spec.procs is not None,
                   f"{self.name} needs an explicit processor count")
        return spec

    def validate(self, spec: RunSpec) -> None:
        super().validate(spec)
        m, _ = _require_tall(spec)
        check_positive_int(spec.procs, "procs")
        if spec.mode == "symbolic":
            capability(m % spec.procs == 0,
                       f"symbolic layout needs P | m, got m={m}, P={spec.procs}")

    def total_procs(self, spec: RunSpec) -> int:
        return spec.procs

    def grid_shape(self, spec: RunSpec) -> GridShape:
        return GridShape(c=1, d=spec.procs)

    def build_grid(self, vm: VirtualMachine, spec: RunSpec) -> Grid3D:
        return Grid3D.build(vm, 1, spec.procs, 1)

    def execute(self, vm: VirtualMachine, dist: DistMatrix,
                spec: RunSpec) -> QRFactors:
        q, r = cqr2_1d(vm, dist)
        if not dist.is_numeric:
            return None, None
        return q.to_global(), np.triu(r.to_global())

    def plan_candidates(self, m: int, n: int, procs: int,
                        machine: MachineSpec,
                        block_sizes: Tuple[int, ...],
                        inverse_depths: Tuple[int, ...],
                        ) -> Iterable[PlanCandidate]:
        if m % procs == 0:
            yield PlanCandidate(
                algorithm=self.name, config=f"P={procs}",
                spec_fields={"procs": procs},
                memory_words=cqr2_1d_memory(m, n, procs), symbolic_ok=True)

    def screen_costs(self, m: int, n: int, machine: MachineSpec,
                     candidates: Sequence[PlanCandidate]) -> np.ndarray:
        procs = np.array([c.spec_fields["procs"] for c in candidates],
                         dtype=np.int64)
        return tables.total(tables.cqr2_1d_lines(m, n, procs))


class TSQRSolver(Solver):
    """Binary-tree TSQR (reference [5]'s tall-skinny kernel)."""

    name = "tsqr"
    label = "TSQR"
    aliases = ()
    supports_symbolic = False
    requires = "tall matrix with P | m and m/P >= n; numeric only"

    def resolve(self, spec: RunSpec) -> RunSpec:
        capability(spec.procs is not None,
                   f"{self.name} needs an explicit processor count")
        return spec

    def validate(self, spec: RunSpec) -> None:
        super().validate(spec)
        m, n = _require_tall(spec)
        check_positive_int(spec.procs, "procs")
        capability(m % spec.procs == 0,
                   f"TSQR needs P | m, got m={m}, P={spec.procs}")
        capability(m // spec.procs >= n,
                   f"TSQR needs m/P >= n, got {m}/{spec.procs} < {n}")

    def total_procs(self, spec: RunSpec) -> int:
        return spec.procs

    def grid_shape(self, spec: RunSpec) -> GridShape:
        return GridShape(c=1, d=spec.procs)

    def build_grid(self, vm: VirtualMachine, spec: RunSpec) -> Grid3D:
        return Grid3D.build(vm, 1, spec.procs, 1)

    def execute(self, vm: VirtualMachine, dist: DistMatrix,
                spec: RunSpec) -> QRFactors:
        q, r = tsqr_1d(vm, dist)
        return q.to_global(), r.to_global()

    def plan_candidates(self, m: int, n: int, procs: int,
                        machine: MachineSpec,
                        block_sizes: Tuple[int, ...],
                        inverse_depths: Tuple[int, ...],
                        ) -> Iterable[PlanCandidate]:
        if m % procs == 0 and m // procs >= n:
            # Live operands: the local panel, its Q, and the replicated
            # n x n tree factor (planner estimate; no paper counterpart).
            yield PlanCandidate(
                algorithm=self.name, config=f"P={procs}",
                spec_fields={"procs": procs},
                memory_words=2.0 * (m // procs) * n + float(n) * n,
                symbolic_ok=False)

    def screen_costs(self, m: int, n: int, machine: MachineSpec,
                     candidates: Sequence[PlanCandidate]) -> np.ndarray:
        procs = np.array([c.spec_fields["procs"] for c in candidates],
                         dtype=np.int64)
        return batch.tsqr_cost_batch(m, n, procs)


def _default_block_size(n: int, pc: int) -> Optional[int]:
    """Largest panel width <= 32 that divides n and is a multiple of pc."""
    for b in range(min(32, n), 0, -1):
        if n % b == 0 and b % pc == 0:
            return b
    return None


class ScaLAPACKSolver(Solver):
    """ScaLAPACK-style 2D blocked Householder QR (PGEQRF)."""

    name = "scalapack"
    label = "PGEQRF"
    aliases = ("pgeqrf", "scalapack_qr")
    supports_symbolic = False
    requires = ("tall matrix on a pr x pc grid with pr | m, pc | b, b | n, "
                "m/pr >= b; numeric only")

    def resolve(self, spec: RunSpec) -> RunSpec:
        m, n = spec.shape
        if spec.pr is None or spec.pc is None:
            capability(spec.pr is None and spec.pc is None,
                       "pass both pr and pc (or neither, with a processor count); "
                       "a half-specified grid would be silently replaced")
            capability(spec.procs is not None,
                       "pass either an explicit (pr, pc) grid or a processor count")
            pr, pc = default_scalapack_grid(m, n, spec.procs)
            spec = spec.replace(pr=pr, pc=pc)
        if spec.block_size is None:
            spec = spec.replace(block_size=_default_block_size(n, spec.pc))
            capability(spec.block_size is not None,
                       f"no feasible panel width for n={n} on pc={spec.pc}")
        return spec.replace(procs=spec.pr * spec.pc)

    def validate(self, spec: RunSpec) -> None:
        super().validate(spec)
        m, n = _require_tall(spec)
        check_positive_int(spec.pr, "pr")
        check_positive_int(spec.pc, "pc")
        check_positive_int(spec.block_size, "block_size")
        b = spec.block_size
        capability(n % b == 0, f"n={n} must be divisible by block_size={b}")
        capability(b % spec.pc == 0,
                   f"block_size={b} must be divisible by pc={spec.pc}")
        capability(m % spec.pr == 0,
                   f"the cyclic layout needs pr | m, got m={m}, pr={spec.pr}")
        capability(m // spec.pr >= b,
                   f"local row count {m}//{spec.pr} must be at least "
                   f"block_size={b} for the TSQR panel factorization")

    def total_procs(self, spec: RunSpec) -> int:
        return spec.pr * spec.pc

    def grid_shape(self, spec: RunSpec) -> Grid2DShape:
        return Grid2DShape(pr=spec.pr, pc=spec.pc)

    def build_grid(self, vm: VirtualMachine, spec: RunSpec) -> Grid3D:
        return Grid3D.build(vm, spec.pc, spec.pr, 1)

    def execute(self, vm: VirtualMachine, dist: DistMatrix,
                spec: RunSpec) -> QRFactors:
        q, r = scalapack_qr(vm, dist, spec.block_size)
        return q.to_global(), r.to_global()

    def _grid_candidates(self, m: int, n: int,
                         procs: int) -> Iterable[Tuple[int, int]]:
        pr = 1
        while pr <= procs:
            pc = procs // pr
            if pr * pc == procs and pr <= m and pc <= n:
                yield pr, pc
            pr *= 2

    def plan_candidates(self, m: int, n: int, procs: int,
                        machine: MachineSpec,
                        block_sizes: Tuple[int, ...],
                        inverse_depths: Tuple[int, ...],
                        ) -> Iterable[PlanCandidate]:
        for pr, pc in self._grid_candidates(m, n, procs):
            if m % pr != 0:
                continue
            for b in block_sizes:
                # Mirror validate(): executable plans only.
                if n % b != 0 or b % pc != 0 or m // pr < b:
                    continue
                yield PlanCandidate(
                    algorithm=self.name, config=f"pr={pr},pc={pc},b={b}",
                    spec_fields={"pr": pr, "pc": pc, "block_size": b,
                                 "procs": pr * pc},
                    memory_words=pgeqrf_memory(m, n, pr, pc, b),
                    symbolic_ok=False)

    def screen_costs(self, m: int, n: int, machine: MachineSpec,
                     candidates: Sequence[PlanCandidate]) -> np.ndarray:
        fields = [cand.spec_fields for cand in candidates]
        return batch.pgeqrf_cost_batch(
            m, n,
            np.array([f["pr"] for f in fields], dtype=np.int64),
            np.array([f["pc"] for f in fields], dtype=np.int64),
            np.array([f["block_size"] for f in fields], dtype=np.int64),
            kernel_efficiency=machine.qr_kernel_efficiency)


class CAQRSolver(ScaLAPACKSolver):
    """CAQR (Demmel et al. [5]): TSQR-panel 2D QR.

    Shares the executed TSQR-panel path with :class:`ScaLAPACKSolver`
    (see the module docstring) but models costs with the idealized CAQR
    counts.
    """

    name = "caqr"
    label = "CAQR"
    aliases = ()

    def screen_costs(self, m: int, n: int, machine: MachineSpec,
                     candidates: Sequence[PlanCandidate]) -> np.ndarray:
        fields = [cand.spec_fields for cand in candidates]
        return batch.caqr_cost_batch(
            m, n,
            np.array([f["pr"] for f in fields], dtype=np.int64),
            np.array([f["pc"] for f in fields], dtype=np.int64),
            np.array([f["block_size"] for f in fields], dtype=np.int64))


def register_builtin() -> None:
    """Register the five built-in algorithms (idempotent)."""
    register(CACQR2Solver())
    register(CQR21DSolver())
    register(TSQRSolver())
    register(ScaLAPACKSolver())
    register(CAQRSolver())
