"""Structured findings: the one result type every analysis pass emits.

The verifier (:mod:`repro.analysis.verifier`), the source lint (:mod:`repro.analysis.lint`), the typing gate
(:mod:`repro.analysis.typegate`), and the cache sweep
(:mod:`repro.analysis.check`) all answer with ``List[Finding]`` -- a
``(rule, loc, message, severity)`` record -- so one table/JSON renderer
serves every ``repro check`` mode, exactly like the rest of the CLI.

Severities
----------
``error``
    The artifact is unsound: a program that would replay garbage, a
    source file violating a repository invariant.  ``repro check`` exits
    non-zero.
``warning``
    Suspicious but not unsound (a dead phase nothing references).
    Also exits non-zero -- a clean tree has zero findings -- but callers
    filtering programmatically (cache loads) only reject on errors.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence

#: Finding severities, mildest last.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True)
class Finding:
    """One analysis result: which rule fired, where, and why.

    ``loc`` is a human-oriented locator: ``"op[17]"`` for an IR op,
    ``"phases[3]"`` for a phase-table slot, ``"src/repro/x.py:42"`` for
    a source line, ``"<key>.plan.pkl"`` for a cache entry.
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
        """JSON-able form (the ``repro check --json`` schema)."""
        return dataclasses.asdict(self)

    def __str__(self) -> str:
        return f"[{self.severity}] {self.rule} @ {self.loc}: {self.message}"


class VerificationError(ValueError):
    """A verification gate rejected an artifact; carries the findings."""

    def __init__(self, findings: Sequence[Finding], subject: str = "program"):
        self.findings = list(findings)
        lines = "\n".join(f"  {f}" for f in self.findings)
        super().__init__(
            f"{subject} failed static verification "
            f"({len(self.findings)} finding(s)):\n{lines}")


def has_errors(findings: Sequence[Finding]) -> bool:
    """Whether any finding is severity ``error`` (the reject threshold)."""
    return any(f.severity == SEVERITY_ERROR for f in findings)


def findings_table(findings: Sequence[Finding], title: str = "findings") -> str:
    """The findings as an aligned text table (the CLI's house style)."""
    if not findings:
        return f"{title}: none"
    rows = [(f.severity, f.rule, f.loc, f.message) for f in findings]
    headers = ("severity", "rule", "loc", "message")
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    lines = [title,
             "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Errors first, then by (rule, loc) -- a stable, readable order."""
    return sorted(findings,
                  key=lambda f: (SEVERITIES.index(f.severity), f.rule, f.loc))
