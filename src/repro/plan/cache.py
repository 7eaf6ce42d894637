"""Fingerprint-keyed on-disk plan cache, and the sweep that audits it.

Same idiom as the engine's result cache
(:class:`~repro.engine.ResultCache`): one pickle per entry, named by the
content hash of the planning question
(:func:`~repro.plan.problem.problem_fingerprint`), written atomically --
via :class:`~repro.utils.diskcache.AtomicDiskCache` -- so N concurrent
planners or serving workers sharing the directory never observe a
half-written plan, and torn entries read as misses.  Because the
fingerprint covers the resolved machine constants, editing a single
calibration parameter (or planning for a new ``--machine-file`` machine)
misses the cache instead of serving a stale answer.

:func:`verify_plan_result` is the structural check every plan-cache
load runs (:meth:`PlanCache.validate_value`).  :func:`check_cache_dir`
goes further than a load, which only treats a bad entry as a miss: it
reports every unreadable, wrong-type or structurally invalid entry of a
cache directory as a :class:`Finding`, so an operator can audit a shared
cache before N clients trust it (``repro cache check``).  Its rules:

``cache/unreadable``
    the entry does not unpickle (a torn or partial entry);
``cache/wrong-type``
    the entry does not hold the cache's value type;
``plan/structure``
    a plan-cache entry is not a structurally valid ``PlanResult``.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.utils.diskcache import AtomicDiskCache

#: Finding severities, mildest last.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True)
class Finding:
    """One check result: which rule fired, where, and why.

    ``loc`` is a human-oriented locator: ``"<key>.plan.pkl"`` for a
    cache entry, ``"plans[3]"`` for a field of a plan result.  A
    ``warning`` is suspicious but not unsound; callers filtering
    programmatically (cache loads) only reject on errors.
    """

    rule: str
    loc: str
    message: str
    severity: str = SEVERITY_ERROR

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}")

    def to_dict(self) -> dict:
        """JSON-able form (the ``repro cache check --json`` schema)."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def __str__(self) -> str:
        return f"[{self.severity}] {self.rule} @ {self.loc}: {self.message}"


def has_errors(findings: Sequence[Finding]) -> bool:
    """Whether any finding is severity ``error`` (the reject threshold)."""
    return any(f.severity == SEVERITY_ERROR for f in findings)


def verify_plan_result(result: object) -> List[Finding]:
    """Structural validation of an (untrusted) unpickled plan-cache entry.

    Cheap by design -- O(plans), attribute/type checks only: the goal is
    rejecting version-skewed or corrupted entries before they reach a
    serving worker, not re-ranking the plans.
    """
    from repro.plan.planner import Plan, PlanResult
    from repro.plan.problem import ProblemSpec

    if not isinstance(result, PlanResult):
        return [Finding("plan/structure", "entry",
                        f"expected a PlanResult, got "
                        f"{type(result).__name__}")]
    findings: List[Finding] = []
    if not isinstance(result.problem, ProblemSpec):
        findings.append(Finding(
            "plan/structure", "problem",
            f"problem must be a ProblemSpec, got "
            f"{type(result.problem).__name__}"))
    if not isinstance(result.plans, list):
        findings.append(Finding(
            "plan/structure", "plans",
            f"plans must be a list, got {type(result.plans).__name__}"))
    else:
        for i, plan in enumerate(result.plans):
            if not isinstance(plan, Plan):
                findings.append(Finding(
                    "plan/structure", f"plans[{i}]",
                    f"expected a Plan, got {type(plan).__name__}"))
            elif not isinstance(plan.spec_fields, dict):
                findings.append(Finding(
                    "plan/structure", f"plans[{i}].spec_fields",
                    f"spec_fields must be a dict, got "
                    f"{type(plan.spec_fields).__name__}"))
    count = result.num_candidates
    if not isinstance(count, int) or isinstance(count, bool) or count < 0 \
            or (isinstance(result.plans, list)
                and count < len(result.plans)):
        findings.append(Finding(
            "plan/structure", "num_candidates",
            f"num_candidates must be an int >= len(plans), got "
            f"{count!r}"))
    return findings


def check_cache_dir(cache_dir: str, suffix: str,
                    value_type: Optional[type] = None,
                    semantic: Optional[Callable[[object], List[Finding]]] = None,
                    ) -> List[Finding]:
    """Verify every ``*suffix`` entry in *cache_dir* (missing dir = clean).

    Each entry must unpickle, be a *value_type* (when given) and pass
    *semantic* (when given); a finding's ``loc`` is the entry filename.
    """
    findings: List[Finding] = []
    try:
        with os.scandir(cache_dir) as it:
            names = sorted(e.name for e in it
                           if e.is_file() and e.name.endswith(suffix))
    except FileNotFoundError:
        return findings
    for name in names:
        path = os.path.join(cache_dir, name)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except Exception as exc:
            findings.append(Finding(
                "cache/unreadable", name,
                f"entry does not unpickle ({type(exc).__name__}: {exc}); "
                f"loads treat it as a miss"))
            continue
        if value_type is not None and not isinstance(value, value_type):
            findings.append(Finding(
                "cache/wrong-type", name,
                f"expected {value_type.__name__}, got "
                f"{type(value).__name__}"))
            continue
        if semantic is not None:
            for f in semantic(value):
                findings.append(Finding(f.rule, f"{name}:{f.loc}",
                                        f.message, severity=f.severity))
    return findings


class PlanCache(AtomicDiskCache):
    """Pickle-per-entry on-disk cache of :class:`~repro.plan.PlanResult`.

    The planner imports this module at import time, so the expected
    value type cannot be named here without a cycle; instead
    :meth:`validate_value` runs :func:`verify_plan_result`, which
    subsumes the ``isinstance`` guard.  Structurally invalid entries
    read as misses under ``cache.plan.invalid``.
    """

    suffix = ".plan.pkl"
    metrics_name = "plan"

    def validate_value(self, value: object) -> bool:
        return not has_errors(verify_plan_result(value))
