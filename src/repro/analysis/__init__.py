"""repro.analysis: static verification and repo lint.

The correctness-tooling layer in front of the compiled-program pipeline:

* :mod:`repro.analysis.verifier` -- :func:`verify_program` /
  :func:`verify_binding` statically prove the Schedule IR invariants
  a template run otherwise trusts (op typing, rank bounds, comm-group
  disjointness, phase validity, binding disjointness/coverage).  Wired
  in at capture time (``REPRO_SCHED_VERIFY`` / ``debug=``).
* :mod:`repro.analysis.lint` -- the AST source lint for project
  invariants ruff cannot express (``repro check --source``).
* :mod:`repro.analysis.typegate` -- the mypy allowlist gate
  (``repro check --typing``).
* :mod:`repro.analysis.check` -- the on-disk cache sweep behind the
  bare ``repro check``.

Everything reports :class:`Finding` records, rendered as table or JSON
by the CLI like every other surface.
"""

from __future__ import annotations

from repro.analysis.check import (
    CACHE_RULES,
    check_caches,
    check_plan_cache,
    check_result_cache,
    verify_plan_result,
)
from repro.analysis.findings import (
    SEVERITIES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    VerificationError,
    findings_table,
    has_errors,
    sort_findings,
)
from repro.analysis.lint import (
    LINT_RULES,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.typegate import mypy_available, run_typegate
from repro.analysis.verifier import (
    BINDING_RULES,
    PROGRAM_RULES,
    require_verified,
    verify_binding,
    verify_program,
)

__all__ = [
    "BINDING_RULES",
    "CACHE_RULES",
    "Finding",
    "LINT_RULES",
    "PROGRAM_RULES",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "VerificationError",
    "check_caches",
    "check_plan_cache",
    "check_result_cache",
    "findings_table",
    "has_errors",
    "lint_file",
    "lint_paths",
    "lint_source",
    "mypy_available",
    "require_verified",
    "run_typegate",
    "sort_findings",
    "verify_binding",
    "verify_plan_result",
    "verify_program",
]
