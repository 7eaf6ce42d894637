"""Pluggable metrics: the measured columns of a study's result table.

A :class:`Metric` turns one completed point's :class:`Outcome` into one
JSON-able cell value.  Engine-backed studies expose the executed
:class:`~repro.engine.QRRun` (``outcome.run``); custom-evaluator studies
(the analytic cost-model campaigns) expose whatever the evaluator
returned (``outcome.raw``, conventionally a dict read by
:class:`RawField`).

Built-ins cover the paper's reporting axes: modeled/critical-path
seconds, Gigaflops/s/node, orthogonality error, relative residual, and
per-rank message/word/flop maxima, plus the solver label and grid
configuration an executed point ran with.
"""

from __future__ import annotations

import abc
import functools
from typing import Dict, Optional

from repro.engine.registry import solver_for
from repro.engine.result import QRRun
from repro.engine.spec import MatrixSpec, RunSpec


@functools.lru_cache(maxsize=4)
def _materialized(matrix: MatrixSpec):
    """Memoized matrix generation: every row of a sweep shares its input."""
    return matrix.materialize()


class Outcome:
    """What one evaluated grid point produced, in whichever execution mode.

    ``point`` is the raw axis-value dict; exactly one of ``run`` (an
    engine-executed :class:`QRRun`, with its ``spec``) or ``raw`` (a
    custom evaluator's result) is populated.
    """

    __slots__ = ("point", "spec", "run", "raw")

    def __init__(self, point: Dict[str, object],
                 spec: Optional[RunSpec] = None,
                 run: Optional[QRRun] = None,
                 raw: object = None):
        self.point = point
        self.spec = spec
        self.run = run
        self.raw = raw


class Metric(abc.ABC):
    """One measured column: a name, a cell format, and a compute rule."""

    #: Column name in the result table (must be unique within a study).
    name: str = ""
    #: Format string applied to non-None cells by the text renderers.
    fmt: str = "{:.6g}"

    @abc.abstractmethod
    def compute(self, outcome: Outcome) -> Optional[object]:
        """The cell value for one completed point (JSON-able, or None)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class RawField(Metric):
    """Read one key from a custom evaluator's raw dict result."""

    def __init__(self, name: str, fmt: str = "{:.6g}"):
        self.name = name
        self.fmt = fmt

    def compute(self, outcome: Outcome) -> Optional[object]:
        if not isinstance(outcome.raw, dict):
            return None
        return outcome.raw.get(self.name)


class SolverLabel(Metric):
    """Display label of the solver an executed point ran (``auto`` resolved)."""

    name = "label"
    fmt = "{}"

    def compute(self, outcome: Outcome) -> Optional[str]:
        if outcome.spec is None:
            return None
        return solver_for(outcome.spec.algorithm).label


class RunConfig(Metric):
    """Grid configuration of an executed point's prepared spec.

    Spelled like the ``PlanCandidate.config`` labels the solvers build
    in :mod:`repro.engine.builtin`; auto resolution hands back only the
    spec, not the winning plan, so the label is rebuilt from its fields.
    """

    name = "config"
    fmt = "{}"

    def compute(self, outcome: Outcome) -> Optional[str]:
        spec = outcome.spec
        if spec is None:
            return None
        if spec.c is not None:
            label = f"{spec.c}x{spec.d}x{spec.c}"
            if spec.base_case_size is not None:
                label += f",n0={spec.base_case_size}"
            return label
        if spec.pr is not None:
            label = f"pr={spec.pr},pc={spec.pc}"
            if spec.block_size is not None:
                label += f",b={spec.block_size}"
            return label
        return f"P={spec.procs}"


class CriticalPathSeconds(Metric):
    """Simulated BSP critical-path seconds of an executed run."""

    name = "seconds"
    fmt = "{:.4g}"

    def compute(self, outcome: Outcome) -> Optional[float]:
        if outcome.run is None:
            return None
        return float(outcome.run.report.critical_path_time)


class Orthogonality(Metric):
    """``||Q^T Q - I||_2`` of an executed numeric run (None if symbolic)."""

    name = "orthogonality"
    fmt = "{:.1e}"

    def compute(self, outcome: Outcome) -> Optional[float]:
        if outcome.run is None or not outcome.run.is_numeric:
            return None
        return float(outcome.run.orthogonality_error())


class Residual(Metric):
    """Relative residual ``||A - QR||_F / ||A||_F`` of a numeric run.

    Rematerializes the input from the run's spec, so it only applies to
    engine-backed studies whose specs carry a :class:`MatrixSpec`.
    """

    name = "residual"
    fmt = "{:.1e}"

    def compute(self, outcome: Outcome) -> Optional[float]:
        if (outcome.run is None or not outcome.run.is_numeric
                or outcome.spec is None):
            return None
        if outcome.spec.matrix is not None:
            a = _materialized(outcome.spec.matrix)
        else:
            a = outcome.spec.materialize()
        return float(outcome.run.residual_error(a))


class _MaxCostField(Metric):
    """Per-rank critical-path maximum of one cost component."""

    _field = ""
    fmt = "{:.6g}"

    def compute(self, outcome: Outcome) -> Optional[float]:
        if outcome.run is None:
            return None
        return float(getattr(outcome.run.report.max_cost, self._field))


class Messages(_MaxCostField):
    """Per-rank maximum message count of an executed run."""

    name = "messages"
    _field = "messages"


class Words(_MaxCostField):
    """Per-rank maximum words communicated in an executed run."""

    name = "words"
    _field = "words"


class Flops(_MaxCostField):
    """Per-rank maximum flop count of an executed run."""

    name = "flops"
    _field = "flops"
