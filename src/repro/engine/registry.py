"""The algorithm registry: one pluggable dispatch path for every QR variant.

Each algorithm registers a :class:`Solver` adapter that knows four things:

* **capabilities** -- structural requirements on the spec (tall matrix,
  divisibility such as ``d % c == 0``, numeric-only execution), checked
  up front with :exc:`CapabilityError` rather than deep inside a kernel;
* **grid construction** -- how to turn the spec's parameters into the
  :class:`~repro.vmpi.grid.Grid3D` the executed algorithm runs on;
* **execution** -- the distributed algorithm itself, returning global
  ``(Q, R)`` factors (or ``(None, None)`` in symbolic mode);
* **planner counterpart** -- every runnable configuration at a problem
  point (:meth:`Solver.plan_candidates`) and its batched analytic costs
  (:meth:`Solver.screen_costs`); the planner, the modeled sweeps and
  the crossover study all rank configurations through this one screen.

New algorithms land by subclassing :class:`Solver` and calling
:func:`register` -- no call-site edits in the planner, the CLI, the
sweeps, or the benchmark harness.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.costmodel.params import MachineSpec
from repro.engine.result import AnyGridShape
from repro.engine.spec import RunSpec
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D
from repro.vmpi.machine import VirtualMachine

QRFactors = Tuple[Optional["np.ndarray"], Optional["np.ndarray"]]  # noqa: F821


class EngineError(ValueError):
    """Base class for engine dispatch errors."""


class UnknownAlgorithmError(EngineError):
    """The requested algorithm name matches no registered solver."""


class CapabilityError(EngineError):
    """The spec violates a structural requirement of the chosen algorithm."""


def capability(condition: bool, message: str) -> None:
    """Raise :exc:`CapabilityError` with *message* unless *condition* holds."""
    if not condition:
        raise CapabilityError(message)


@dataclass(frozen=True)
class PlanCandidate:
    """One fully-specified configuration a solver offers the planner.

    A plan candidate is *actionable*: ``spec_fields`` are the exact
    :class:`~repro.engine.spec.RunSpec` overrides that execute this
    configuration, so a chosen plan resolves an ``algorithm="auto"``
    spec into a directly runnable one, and a modeled sweep's winner is
    always a configuration the solver accepts.
    """

    #: Canonical registry name of the algorithm this configures.
    algorithm: str
    #: Human-readable configuration label, e.g. ``"4x64x4,n0=32"``.
    config: str
    #: RunSpec field overrides (``c``/``d``/``pr``/``pc``/``block_size``/
    #: ``procs``/``base_case_size``) that pin this configuration.
    spec_fields: Dict[str, int] = field(hash=False)
    #: Modeled per-process peak memory footprint (words).
    memory_words: float = float("nan")
    #: Whether this configuration can be refined by exact symbolic-VM
    #: replay (the solver executes shape-only blocks).
    symbolic_ok: bool = False


class Solver(abc.ABC):
    """Adapter an algorithm registers to become engine-dispatchable."""

    #: Canonical registry key, e.g. ``"ca_cqr2"``.
    name: str = ""
    #: Display label used by sweeps and reports, e.g. ``"CA-CQR2"``.
    label: str = ""
    #: Alternate lookup names.
    aliases: Tuple[str, ...] = ()
    #: Whether the executed path accepts shape-only (symbolic) blocks.
    supports_symbolic: bool = False
    #: One-line human description of the structural requirements.
    requires: str = ""

    # -- spec preparation ---------------------------------------------------------

    def prepare(self, spec: RunSpec) -> RunSpec:
        """Resolve defaults (grids etc.) and validate capabilities."""
        resolved = self.resolve(spec)
        self.validate(resolved)
        return resolved

    def resolve(self, spec: RunSpec) -> RunSpec:
        """Fill in derived parameters (default grids); override as needed."""
        return spec

    def validate(self, spec: RunSpec) -> None:
        """Raise :exc:`CapabilityError` if the spec violates requirements."""
        if spec.mode == "symbolic":
            capability(self.supports_symbolic,
                       f"{self.name} executes numeric blocks only; "
                       "use its cost model for symbolic studies")

    # -- execution ----------------------------------------------------------------

    @abc.abstractmethod
    def total_procs(self, spec: RunSpec) -> int:
        """Number of virtual ranks a prepared spec occupies."""

    @abc.abstractmethod
    def grid_shape(self, spec: RunSpec) -> AnyGridShape:
        """The logical grid descriptor recorded on the resulting QRRun."""

    @abc.abstractmethod
    def build_grid(self, vm: VirtualMachine, spec: RunSpec) -> Grid3D:
        """Construct the process grid the executed algorithm runs on."""

    @abc.abstractmethod
    def execute(self, vm: VirtualMachine, dist: DistMatrix,
                spec: RunSpec) -> QRFactors:
        """Run the algorithm; return global ``(Q, R)`` (``(None, None)`` symbolic)."""

    # -- planner counterpart ------------------------------------------------------

    def plan_candidates(self, m: int, n: int, procs: int,
                        machine: MachineSpec,
                        block_sizes: Tuple[int, ...],
                        inverse_depths: Tuple[int, ...],
                        ) -> Iterable[PlanCandidate]:
        """Every feasible, *runnable* configuration at one problem point.

        The planner (:mod:`repro.plan`) unions these across all registered
        algorithms, screens them with :meth:`screen_costs` in one batched
        evaluation, ranks them, and audits the winner symbolically; the
        modeled sweeps and the crossover study rank them through the
        same screen.  Candidates must carry ``spec_fields`` that pass
        :meth:`prepare` -- a chosen plan is executed verbatim.  The
        default (no candidates) opts an algorithm out of planning and
        modeled sweeps.

        The candidate *set* must not depend on ``machine``: the lattice
        planner enumerates once per distinct (m, n, procs, mode, block
        sizes, depths) tuple and reuses it across machines.  The *counts*
        (:meth:`screen_costs`) may read the machine: the lattice planner
        evaluates them once per distinct machine.
        """
        return ()

    def screen_costs(self, m: int, n: int, machine: MachineSpec,
                     candidates: Sequence[PlanCandidate]) -> "np.ndarray":  # noqa: F821
        """Per-candidate closed-form ``(messages, words, flops)`` as ``(3, N)``.

        Must price exactly the configurations :meth:`plan_candidates`
        yielded, in order.  Built-in solvers evaluate one batched closed
        form per algorithm: the CholeskyQR family the sum of its line
        table (:mod:`repro.costmodel.tables`), the baselines their batch
        forms (:mod:`repro.costmodel.batch`).
        """
        raise NotImplementedError(
            f"{self.name} yields plan candidates but does not price them; "
            "override screen_costs alongside plan_candidates")


_REGISTRY: Dict[str, Solver] = {}
_ALIASES: Dict[str, str] = {}


def register(solver: Solver) -> Solver:
    """Register a solver under its canonical name and aliases."""
    if not solver.name:
        raise ValueError("solver needs a non-empty canonical name")
    _REGISTRY[solver.name] = solver
    for alias in solver.aliases:
        _ALIASES[alias] = solver.name
    return solver


def solver_for(algorithm: str) -> Solver:
    """Look up a solver by canonical name or alias (case-insensitive)."""
    key = algorithm.strip().lower().replace("-", "_")
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownAlgorithmError(
            f"unknown algorithm {algorithm!r}; registered algorithms: {known}"
        ) from None


def solvers() -> List[Solver]:
    """All registered solvers in registration order."""
    return list(_REGISTRY.values())


def available_algorithms() -> List[str]:
    """Canonical names of every registered algorithm."""
    return list(_REGISTRY)
