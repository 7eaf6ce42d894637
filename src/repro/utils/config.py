"""Process-wide configuration knobs shared across layers.

One home for the cache-location environment variables and the ``UNSET``
sentinel, so the session, the engine runner, the planner cache, the
study layer, and the CLI all agree on what "not specified" means and
which variable overrides which default.
"""

from __future__ import annotations

import os
from typing import Optional


class _Unset:
    """Sentinel distinguishing "not passed" from an explicit ``None``.

    Cache-directory parameters use it so callers can say three different
    things: a path (cache there), ``None`` (disable caching), or nothing
    at all (defer to the session's default, which honors the environment
    variables below).
    """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


UNSET = _Unset()

#: Environment variable overriding the default result-cache location.
RESULT_CACHE_ENV = "REPRO_CACHE_DIR"

#: Environment variable overriding the default plan-cache location.
PLAN_CACHE_ENV = "REPRO_PLAN_CACHE_DIR"

#: Environment variable overriding the default compiled-program cache
#: location (see :mod:`repro.sched.cache`).
SCHED_CACHE_ENV = "REPRO_SCHED_CACHE_DIR"

#: Fallback result-cache location when :data:`RESULT_CACHE_ENV` is unset.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Fallback plan-cache location when :data:`PLAN_CACHE_ENV` is unset.
DEFAULT_PLAN_CACHE_DIR = ".repro-plan-cache"

#: Fallback program-cache location when :data:`SCHED_CACHE_ENV` is unset.
DEFAULT_SCHED_CACHE_DIR = ".repro-sched-cache"

#: Environment variable turning on IR verification at capture time (the
#: test suite sets it; see :func:`repro.analysis.verify_program`).
SCHED_VERIFY_ENV = "REPRO_SCHED_VERIFY"

_TRUTHY = frozenset({"1", "true", "on", "yes"})


def env_sched_verify() -> bool:
    """Whether the environment requests verify-on-capture."""
    return os.environ.get(SCHED_VERIFY_ENV, "").strip().lower() in _TRUTHY


def env_result_cache_dir() -> Optional[str]:
    """The result-cache dir the environment requests (``None`` when unset)."""
    return os.environ.get(RESULT_CACHE_ENV) or None


def env_plan_cache_dir() -> Optional[str]:
    """The plan-cache dir the environment requests (``None`` when unset)."""
    return os.environ.get(PLAN_CACHE_ENV) or None


def default_cache_dir() -> str:
    """The default result-cache directory (environment or fallback)."""
    return env_result_cache_dir() or DEFAULT_CACHE_DIR


def default_plan_cache_dir() -> str:
    """The default plan-cache directory (environment or fallback)."""
    return env_plan_cache_dir() or DEFAULT_PLAN_CACHE_DIR


def usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask.

    ``os.cpu_count()`` counts the host's CPUs, which overstates what a
    process pinned by ``taskset``, a container or a cgroup can use; pools
    sized by it fork more workers than can run at once.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def env_sched_cache_dir() -> Optional[str]:
    """The program-cache dir the environment requests (``None`` when unset)."""
    return os.environ.get(SCHED_CACHE_ENV) or None


def default_sched_cache_dir() -> str:
    """The default compiled-program cache directory (environment or fallback)."""
    return env_sched_cache_dir() or DEFAULT_SCHED_CACHE_DIR
