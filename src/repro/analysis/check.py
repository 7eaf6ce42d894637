"""The cache sweep: statically verify every entry of the on-disk caches.

The serving layer shares two pickle-per-entry caches between N
workers: the engine's result cache (``*.run.pkl`` ->
:class:`~repro.engine.result.QRRun`) and the planner's plan cache
(``*.plan.pkl`` -> :class:`~repro.plan.planner.PlanResult`).  The load
path already treats *unreadable* entries as misses; this sweep goes
further and reports them -- plus entries that unpickle fine but are
**semantically invalid** (a plan result with the wrong shape) -- so an
operator can audit a shared cache directory before N clients trust it,
not after.

``repro check`` runs this sweep; every problem is a
:class:`~repro.analysis.findings.Finding` whose ``loc`` is the entry
filename.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, List, Optional

from repro.analysis.findings import Finding

#: Sweep rules with one-line descriptions (``repro check --rules``).
CACHE_RULES = {
    "cache/unreadable": "cache entries unpickle (torn/partial entries are reported, loads already treat them as misses)",
    "cache/wrong-type": "cache entries hold the cache's value type",
    "plan/structure": "plan-cache entries are structurally valid PlanResults",
}


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


def _sweep(cache_dir: str, suffix: str, value_type: Optional[type],
           semantic: Optional[Callable[[object], List[Finding]]] = None,
           ) -> List[Finding]:
    """Verify every ``*suffix`` entry in *cache_dir* (missing dir = clean)."""
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


def check_plan_cache(cache_dir: str) -> List[Finding]:
    """Verify every plan result in a plan-cache directory."""
    from repro.plan.cache import PlanCache

    return _sweep(cache_dir, PlanCache.suffix, None, verify_plan_result)


def check_result_cache(cache_dir: str) -> List[Finding]:
    """Verify every engine result in a result-cache directory."""
    from repro.engine.result import QRRun
    from repro.engine.runner import ResultCache

    return _sweep(cache_dir, ResultCache.suffix, QRRun)


def check_caches(result_dir: Optional[str] = None,
                 plan_dir: Optional[str] = None) -> List[Finding]:
    """Sweep both session caches (defaults honor the env overrides)."""
    from repro.utils.config import default_cache_dir, default_plan_cache_dir

    findings = check_result_cache(result_dir or default_cache_dir())
    findings += check_plan_cache(plan_dir or default_plan_cache_dir())
    return findings
