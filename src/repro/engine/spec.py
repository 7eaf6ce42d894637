"""Run specifications: what to factor, with which algorithm, on what machine.

A :class:`RunSpec` is a declarative description of one QR run -- the
algorithm name, the matrix (either a reproducible :class:`MatrixSpec`
generator or an explicit array), the process-grid parameters, the machine
preset, and numeric-vs-symbolic mode.  Specs are plain picklable
dataclasses so the batch runner can ship them to worker processes, and
:func:`fingerprint` derives a stable content hash for the on-disk result
cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.costmodel.params import MachineSpec, machine_by_name
from repro.utils.matgen import matrix_with_condition, random_matrix
from repro.utils.validation import ValidationError, check_positive_int, require

#: Modes a run can execute in: ``numeric`` runs the real distributed
#: algorithm on data; ``symbolic`` runs shape-only blocks through the same
#: schedule, producing the cost report without any flops on real data.
MODES = ("numeric", "symbolic")

#: The most ranks one run may simulate.  A machine starts as one class of
#: zeros, and a symbolic CA-CQR2 on its root grid keeps clocks, running
#: totals and phases in class space: only its report's rank-order sums
#: touch every rank, one slab of ``P / c`` values at a time (at 2**24
#: ranks, c = 16, peak RSS is 69 MB, 59 MB of it imports; 0.3 s warm on
#: a 2-vCPU guest).  Any run that charges ranks directly expands that
#: state to 32 bytes of clock and running totals per rank, plus 25 per
#: phase it charges: 512 MiB before any phase at 2**24 ranks (a
#: 2**33-rank request died allocating 256 GiB).  That is 16x the symbolic
#: CA-CQR2 ladder's top point (2**20 ranks, run in CI) and 256x the
#: paper's largest machine (1024 Stampede2 nodes x 64 = 2**16).
MAX_RANKS = 2 ** 24


@dataclass(frozen=True)
class MatrixSpec:
    """Reproducible description of a test matrix (see :mod:`repro.utils.matgen`).

    ``kind="gaussian"`` is the paper's scaling workload; ``kind="conditioned"``
    prescribes the 2-norm condition number (the accuracy-study workload,
    requires ``condition``).
    """

    m: int
    n: int
    kind: str = "gaussian"
    condition: Optional[float] = None
    seed: int = 0
    sv_mode: str = "geometric"

    def __post_init__(self) -> None:
        check_positive_int(self.m, "m")
        check_positive_int(self.n, "n")
        require(self.kind in ("gaussian", "conditioned"),
                f"unknown matrix kind {self.kind!r}")
        if self.kind == "conditioned":
            require(self.condition is not None and self.condition >= 1.0,
                    "conditioned matrices need condition >= 1")

    def materialize(self) -> np.ndarray:
        """Generate the matrix (deterministic given the spec)."""
        if self.kind == "conditioned":
            return matrix_with_condition(self.m, self.n, self.condition,
                                         rng=self.seed, mode=self.sv_mode)
        return random_matrix(self.m, self.n, rng=self.seed)


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One QR run, declaratively.

    Exactly one of ``matrix`` (generator) or ``data`` (explicit array)
    describes the input.  Grid parameters are algorithm-specific and
    optional -- each solver fills in its own defaults from ``procs``
    (e.g. the paper's ``m/d = n/c`` rule for CA-CQR2) during
    :meth:`~repro.engine.registry.Solver.prepare`.
    """

    algorithm: str
    matrix: Optional[MatrixSpec] = None
    data: Optional[np.ndarray] = None
    procs: Optional[int] = None
    #: CA-family ``c x d x c`` grid.
    c: Optional[int] = None
    d: Optional[int] = None
    #: 2D-baseline ``pr x pc`` grid.
    pr: Optional[int] = None
    pc: Optional[int] = None
    block_size: Optional[int] = None
    machine: Union[str, MachineSpec] = "abstract"
    mode: str = "numeric"
    base_case_size: Optional[int] = None
    #: ``"auto"`` delegates the grid choice to the planner
    #: (:mod:`repro.plan`) instead of the solver's own default rule;
    #: ``algorithm="auto"`` additionally lets the planner pick the
    #: algorithm.  Auto specs are resolved to concrete ones by
    #: :meth:`repro.Session.resolve` before execution or caching.
    grid: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.algorithm, str):
            raise ValidationError(
                f"must be a string, got {type(self.algorithm).__name__}",
                field="algorithm")
        require(self.mode in MODES,
                f"mode must be one of {MODES}, got {self.mode!r}")
        require(self.grid in (None, "auto"),
                f'grid must be None or "auto", got {self.grid!r}')
        require(self.matrix is not None or self.data is not None,
                "a RunSpec needs either a MatrixSpec or an explicit data array")
        if self.data is not None:
            arr = np.asarray(self.data)
            require(arr.ndim == 2, f"data must be 2D, got ndim={arr.ndim}")
            # O(1): a dtype check.  Finiteness needs a scan of every entry,
            # so materialize() checks it once per run instead of on every
            # replace().
            if arr.dtype.kind not in "biuf":
                raise ValidationError(
                    f"data must be a real array, got dtype {arr.dtype}",
                    field="data")
            require(self.mode == "numeric",
                    "symbolic runs take a MatrixSpec (shapes only), not data")
        for field, factors in (("procs", (self.procs,)),
                               ("d", (self.c, self.c, self.d)),
                               ("pc", (self.pr, self.pc))):
            if all(isinstance(f, (int, np.integer)) and not isinstance(f, bool)
                   for f in factors):
                ranks = math.prod(int(f) for f in factors)
                if ranks > MAX_RANKS:
                    raise ValidationError(
                        f"{ranks} ranks exceed the {MAX_RANKS}-rank limit "
                        f"of a simulated machine", field=field)

    @property
    def shape(self) -> Tuple[int, int]:
        """Global ``(m, n)`` of the input matrix."""
        if self.data is not None:
            return tuple(np.asarray(self.data).shape)  # type: ignore[return-value]
        return (self.matrix.m, self.matrix.n)  # type: ignore[union-attr]

    def machine_spec(self) -> MachineSpec:
        """The resolved machine preset (names resolved via the registry)."""
        if isinstance(self.machine, MachineSpec):
            return self.machine
        return machine_by_name(self.machine)

    def materialize(self) -> np.ndarray:
        """The input matrix as a float64 array (numeric mode only).

        Raises :class:`~repro.utils.validation.ValidationError` if explicit
        ``data`` holds a NaN or an infinity.
        """
        if self.data is not None:
            arr = np.asarray(self.data, dtype=np.float64)
            if not np.isfinite(arr).all():
                raise ValidationError("data must be finite; it holds NaN or "
                                      "infinite entries", field="data")
            return arr
        return np.asarray(self.matrix.materialize(), dtype=np.float64)  # type: ignore[union-attr]

    def replace(self, **changes) -> "RunSpec":
        """A copy of the spec with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def field_values(obj) -> tuple:
    """A flat dataclass's field values in declaration order.

    Equal to ``dataclasses.astuple(obj)`` for dataclasses whose fields
    are scalars, without its recursive deep copy; cache keys feed its
    ``repr``.
    """
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def fingerprint(spec: RunSpec, canonical_algorithm: Optional[str] = None) -> str:
    """Stable content hash of a spec, for cache keys.

    Two specs that describe the same computation -- same algorithm (after
    alias resolution), same input bytes, same grid, machine, and mode --
    hash identically across processes and sessions.  Auto specs must be
    resolved first (:meth:`repro.Session.resolve`): their identity is
    the concrete configuration the planner chose, so a resolved spec and
    the equivalent explicit one share a cache entry.
    """
    require(spec.algorithm != "auto" and spec.grid != "auto",
            "resolve auto specs (Session.resolve) before "
            "fingerprinting; an unresolved spec has no stable identity")
    h = hashlib.sha256()

    def feed(*parts: object) -> None:
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")

    feed("repro-engine-v1", canonical_algorithm or spec.algorithm)
    if spec.data is not None:
        arr = np.ascontiguousarray(np.asarray(spec.data, dtype=np.float64))
        feed("data", arr.shape, hashlib.sha256(arr.tobytes()).hexdigest())
    else:
        feed("matrix", field_values(spec.matrix))
    feed(spec.procs, spec.c, spec.d, spec.pr, spec.pc, spec.block_size,
         spec.mode, spec.base_case_size)
    feed(field_values(spec.machine_spec()))
    return h.hexdigest()
