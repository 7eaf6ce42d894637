"""The planner's input: one problem, declaratively.

A :class:`ProblemSpec` states what the user knows -- the matrix shape,
the processor budget, the machine, the execution mode, and what to
optimize for -- and leaves *every* configuration decision (algorithm,
grid shape, inverse depth, panel width) to the search.  It is the
planner-side analogue of the engine's :class:`~repro.engine.RunSpec`:
plain, frozen, hashable by content (:func:`problem_fingerprint`) so plan
results can be cached on disk.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

from repro.costmodel.params import MachineSpec, machine_by_name
from repro.engine.spec import MODES, field_values
from repro.plan.objective import METRICS, Objective
from repro.utils.validation import (
    ValidationError,
    check_positive_int,
    require,
    validated,
)

#: Plain-string ranking objectives a plan list can be ordered by.
#: ``time`` is the screened (modeled) execution time,
#: ``memory`` the per-process peak footprint in words, ``messages`` the
#: per-process critical-path message count (the synchronization cost the
#: paper's 1D end of the grid minimizes).  Weighted combinations and
#: budget constraints are expressed with
#: :class:`~repro.plan.objective.Objective` instead.
OBJECTIVES = METRICS

#: Version tag baked into plan fingerprints; bump when the search or
#: ranking semantics change so stale cached plans invalidate themselves.
#: (v2: first-class weighted/budgeted objectives changed the ranking.
#: v3: refinement replays compiled charge programs -- numbers are
#: bit-identical, but plans cached before the Schedule IR landed should
#: re-refine under it.  v4: ranking, budget and Pareto flags read only
#: screened values, and ``top_k`` defaults to one audited plan.)
PLANNER_VERSION = "repro-plan-v4"

#: Largest size the screen's int64 candidate lanes hold
#: (:func:`repro.costmodel.batch.int_lanes`).
MAX_SIZE = 2**63 - 1


def default_block_sizes(n: int) -> Tuple[int, ...]:
    """Power-of-two ScaLAPACK/CAQR panel widths screened by default.

    Every power of two from 8 up to ``min(n, 512)`` -- the per-candidate
    feasibility filters (``b | n``, ``pc | b``, ``m/pr >= b``) then prune
    per grid.
    """
    sizes = []
    b = 8
    while b <= min(n, 512):
        sizes.append(b)
        b *= 2
    return tuple(sizes)


@dataclass(frozen=True)
class ProblemSpec:
    """One planning question: given ``(m, n, P, machine)``, what should I run?

    ``mode`` restricts candidates to configurations executable in that
    mode (symbolic planning drops numeric-only algorithms);
    ``algorithms`` optionally restricts the search to a subset of the
    registry; ``top_k`` is how many top symbolically executable plans
    carry an exact symbolic audit (``Plan.refined_seconds``).  The audit
    never changes the ranking, so every ``top_k`` ranks the same.
    """

    m: int
    n: int
    procs: int
    machine: Union[str, MachineSpec] = "stampede2"
    mode: str = "numeric"
    #: A plain metric name (see :data:`OBJECTIVES`) or a full
    #: :class:`~repro.plan.objective.Objective` with weights and budgets.
    objective: Union[str, Objective] = "time"
    algorithms: Optional[Tuple[str, ...]] = None
    block_sizes: Optional[Tuple[int, ...]] = None
    inverse_depths: Tuple[int, ...] = (0, 1, 2, 3)
    top_k: int = 1

    def __post_init__(self) -> None:
        for name in ("m", "n", "procs", "top_k"):
            value = check_positive_int(getattr(self, name), name)
            if value > MAX_SIZE:
                raise ValidationError(
                    f"must be at most {MAX_SIZE} (an int64), got {value}",
                    field=name)
        # Every registered algorithm factors tall matrices; rejecting wide
        # problems here keeps the planner from ranking unrunnable plans.
        require(self.m >= self.n,
                f"the planner configures tall-matrix QR; got {self.m} x "
                f"{self.n} (m >= n required)")
        require(self.mode in MODES,
                f"mode must be one of {MODES}, got {self.mode!r}")
        if isinstance(self.objective, str):
            require(self.objective in OBJECTIVES,
                    f"objective must be one of {OBJECTIVES} or an Objective, "
                    f"got {self.objective!r}")
        else:
            require(isinstance(self.objective, Objective),
                    f"objective must be one of {OBJECTIVES} or an Objective, "
                    f"got {self.objective!r}")
        if self.algorithms is not None:
            object.__setattr__(self, "algorithms", tuple(self.algorithms))
            require(len(self.algorithms) > 0,
                    "an explicit algorithm restriction cannot be empty")
        if self.block_sizes is not None:
            object.__setattr__(self, "block_sizes", tuple(self.block_sizes))
            for b in self.block_sizes:
                check_positive_int(b, "block size")
        object.__setattr__(self, "inverse_depths", tuple(self.inverse_depths))
        require(len(self.inverse_depths) > 0,
                "inverse_depths cannot be empty")
        for depth in self.inverse_depths:
            if isinstance(depth, bool) or not isinstance(depth, int) \
                    or depth < 0:
                raise ValidationError(
                    f"must be integers >= 0, got {depth!r}",
                    field="inverse_depths")

    def machine_spec(self) -> MachineSpec:
        """The resolved machine preset (names resolved via the registry)."""
        if isinstance(self.machine, MachineSpec):
            return self.machine
        return machine_by_name(self.machine)

    def objective_spec(self) -> Objective:
        """The objective as a full :class:`~repro.plan.objective.Objective`."""
        return Objective.coerce(self.objective)

    def effective_block_sizes(self) -> Tuple[int, ...]:
        """The panel widths actually screened (default ladder if unset)."""
        if self.block_sizes is not None:
            return self.block_sizes
        return default_block_sizes(self.n)

    def replace(self, **changes) -> "ProblemSpec":
        """A copy of the problem with the given fields replaced."""
        return dataclasses.replace(self, **changes)


#: ProblemSpec fields settable from a JSON planning request, in the
#: :func:`problem_from_dict` schema.
_PROBLEM_JSON_FIELDS = ("m", "n", "procs", "machine", "mode", "objective",
                        "algorithms", "block_sizes", "inverse_depths",
                        "top_k")


def machine_from_json(value, *, field: str = "machine") -> Union[str, MachineSpec]:
    """A machine from its JSON request form: preset name or spec object.

    A string must name a registered preset; an object follows the
    :meth:`~repro.costmodel.params.MachineSpec.from_dict` schema.  Any
    failure raises a field-labelled
    :class:`~repro.utils.validation.ValidationError`.
    """
    if isinstance(value, str):
        validated(field, machine_by_name, value)
        return value
    if isinstance(value, Mapping):
        return validated(field, MachineSpec.from_dict, dict(value))
    if isinstance(value, MachineSpec):
        return value
    raise ValidationError(
        f"expected a preset name or a machine object, got "
        f"{type(value).__name__}", field=field)


def objective_from_json(value, *, field: str = "objective"
                        ) -> Union[str, Objective]:
    """An objective from its JSON request form.

    Accepted spellings: a plain metric name (kept as a string so plan
    fingerprints match the legacy form), a weight string
    (``"time=1,memory=0.2"``), a weights object (``{"time": 1,
    "memory": 0.2}``), or the full form ``{"weights": {...},
    "budgets": ["memory<=8e6", ...]}``.
    """
    if isinstance(value, str):
        if value in METRICS:
            return value
        return validated(field, Objective.parse, value)
    if isinstance(value, Objective):
        return value
    if isinstance(value, Mapping):
        data = dict(value)
        if "weights" in data or "budgets" in data:
            unknown = sorted(set(data) - {"weights", "budgets"})
            if unknown:
                raise ValidationError(
                    f"unknown objective field(s) {unknown}; expected "
                    f'"weights" and/or "budgets"', field=field)
            weights = data.get("weights", {"time": 1.0})
            budgets = data.get("budgets", ())
            if not isinstance(budgets, (list, tuple)):
                raise ValidationError(
                    f"budgets must be a list of \"metric<=limit\" strings, "
                    f"got {type(budgets).__name__}",
                    field=f"{field}.budgets")
            parsed = tuple(
                validated(f"{field}.budgets", _budget_from_json, b)
                for b in budgets)
            return validated(field, Objective,
                             weights=tuple(dict(weights).items()),
                             budgets=parsed)
        return validated(field, Objective.coerce, data)
    raise ValidationError(
        f"expected a metric name, weight string, or objective object, "
        f"got {type(value).__name__}", field=field)


def _budget_from_json(value):
    from repro.plan.objective import Budget

    if isinstance(value, Budget):
        return value
    if isinstance(value, str):
        return Budget.parse(value)
    if isinstance(value, Mapping):
        return Budget(**value)
    raise ValueError(f'expected "metric<=limit" or a budget object, '
                     f"got {value!r}")


def int_field(data: Mapping, name: str) -> Optional[int]:
    """``data[name]`` as an ``int`` (``None`` when absent or null)."""
    value = data.get(name)
    if value is None:
        return None
    # bool is an int subclass; reject it explicitly (a JSON `true` as a
    # dimension is always a client bug).
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"must be an integer, got {type(value).__name__}", field=name)
    return value


def list_field(data: Mapping, name: str, elem: type) -> Optional[tuple]:
    """``data[name]`` as a tuple of *elem* values (``None`` when absent).

    Anything but a list of *elem* values (a bool is never an ``int``
    here) raises a :class:`~repro.utils.validation.ValidationError`
    naming the field.
    """
    value = data.get(name)
    if value is None:
        return None
    if (not isinstance(value, (list, tuple))
            or any(isinstance(v, bool) or not isinstance(v, elem)
                   for v in value)):
        raise ValidationError(
            f"must be a list of {elem.__name__}s, got {value!r}", field=name)
    return tuple(value)


def problem_from_dict(data: Mapping) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from an untrusted JSON request body.

    The serving layer's (and study files') boundary parser: every
    malformed field raises a
    :class:`~repro.utils.validation.ValidationError` naming the field --
    surfaced as an HTTP 400 JSON error body by :mod:`repro.serve` --
    instead of a bare ``KeyError`` / ``TypeError`` traceback.
    """
    if not isinstance(data, Mapping):
        raise ValidationError(
            f"a planning request must be a JSON object, got "
            f"{type(data).__name__}")
    unknown = sorted(set(data) - set(_PROBLEM_JSON_FIELDS))
    if unknown:
        raise ValidationError(
            f"unknown request field(s) {unknown}; known fields: "
            f"{sorted(_PROBLEM_JSON_FIELDS)}")
    missing = sorted(k for k in ("m", "n", "procs") if data.get(k) is None)
    if missing:
        raise ValidationError(
            f"missing required field(s) {missing} (matrix rows, matrix "
            f"columns, and processor budget)", field=missing[0])

    fields: dict = {}
    for name in ("m", "n", "procs", "top_k"):
        value = int_field(data, name)
        if value is not None:
            fields[name] = value
    if "machine" in data:
        fields["machine"] = machine_from_json(data["machine"])
    if "objective" in data:
        fields["objective"] = objective_from_json(data["objective"])
    if data.get("mode") is not None:
        mode = data["mode"]
        if mode not in MODES:
            raise ValidationError(
                f"mode must be one of {MODES}, got {mode!r}", field="mode")
        fields["mode"] = mode
    for name, elem in (("algorithms", str), ("block_sizes", int),
                       ("inverse_depths", int)):
        value = list_field(data, name, elem)
        if value is not None:
            fields[name] = value
    # ProblemSpec's own __post_init__ does the semantic checks (m >= n,
    # positive sizes, known algorithms are checked at search time);
    # re-label its complaints with the offending-field context.
    return validated("problem", ProblemSpec, **fields)


def problem_fingerprint(problem: ProblemSpec, *, refine: Optional[str],
                        algorithms: Tuple[str, ...]) -> str:
    """Stable content hash of a planning question, for the plan cache.

    Covers every input that can change the answer: the problem fields,
    the *resolved* machine constants (so editing one calibration
    parameter invalidates cached plans), the refinement mode, the set of
    registered algorithms searched, and the planner version tag.
    """
    h = hashlib.sha256()

    def feed(*parts: object) -> None:
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")

    feed(PLANNER_VERSION, problem.m, problem.n, problem.procs,
         problem.mode, problem.objective, problem.effective_block_sizes(),
         problem.inverse_depths, problem.top_k, refine, algorithms)
    feed(field_values(problem.machine_spec()))
    return h.hexdigest()
