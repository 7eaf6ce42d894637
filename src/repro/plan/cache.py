"""Fingerprint-keyed on-disk plan cache.

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
"""

from __future__ import annotations

from repro.utils.diskcache import AtomicDiskCache


class PlanCache(AtomicDiskCache):
    """Pickle-per-entry on-disk cache of :class:`~repro.plan.PlanResult`.

    The planner imports this module at import time, so the expected
    value type cannot be named here without a cycle; instead
    :meth:`validate_value` lazily runs the structural check from
    :func:`repro.analysis.check.verify_plan_result`, which subsumes the
    ``isinstance`` guard.  Structurally invalid entries read as misses
    under ``cache.plan.invalid``.
    """

    suffix = ".plan.pkl"
    metrics_name = "plan"

    def validate_value(self, value: object) -> bool:
        from repro.analysis.check import verify_plan_result
        from repro.analysis.findings import has_errors

        return not has_errors(verify_plan_result(value))
