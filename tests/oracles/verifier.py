"""Static verification of the Schedule IR.

:func:`verify_program` proves, without replaying a single op, every
invariant the replay machinery otherwise checks dynamically mid-charge or
silently assumes: op kinds and payload typing (finite non-negative flops,
non-negative :class:`~repro.costmodel.collectives.CollectiveCost` fields,
payload-free barriers), template-rank bounds, pairwise disjointness of
``OP_COMM`` group rows (the property that makes family-batched charging
commute), axis tags that name exactly their op's groups (a template run
charges the tag, a bound splice the rank matrix), phase-index validity,
and dead phases nothing references.

:func:`verify_binding` does the same for a
:class:`~repro.sched.binding.RankFamilyMap` against a program and an
optional target machine size: template-size agreement, instance
disjointness, rank bounds, and machine coverage -- the preconditions
under which a template run (:class:`~repro.sched.replay.TemplateRun`)
is *statically admissible* rather than trusted.

Both return ``List[Finding]`` (empty == verified).  The passes are pure
reads: they never mutate the program.  :func:`verify_captures` makes
every :meth:`~repro.sched.recorder.ScheduleRecorder.program` compile run
:func:`require_verified` -- ``tests/conftest.py`` installs it for the
whole suite, so every program any test captures is verified.

Rule identifiers are stable strings (``ir/op-kind``, ``ir/rank-bounds``,
...) so tests, metrics, and per-rule documentation can reference them.
"""

from __future__ import annotations

import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.core.cfr3d import _cfr3d_program
from repro.costmodel.collectives import CollectiveCost
from repro.plan.cache import SEVERITY_WARNING, Finding, has_errors
from repro.sched.binding import RankFamilyMap
from repro.sched.program import OP_BARRIER, OP_COMM, OP_FLOPS, ChargeProgram
from repro.sched.recorder import ScheduleRecorder
from repro.vmpi.machine import axis_view_problem, lines_along

#: Every program rule :func:`verify_program` can emit, with a one-line
#: description.
PROGRAM_RULES = {
    "ir/program-ranks": "num_ranks is a non-negative integer",
    "ir/phase-table": "phase names are unique non-empty strings",
    "ir/op-kind": "op kind is one of flops/comm/barrier",
    "ir/rank-shape": "rank operand has the kind's shape (1D flops/barrier, 2D comm) and an integer dtype",
    "ir/rank-bounds": "every rank index lies in [0, num_ranks)",
    "ir/comm-disjoint": "OP_COMM group rows are pairwise disjoint",
    "ir/flops-payload": "flops payloads are finite non-negative floats",
    "ir/comm-payload": "comm payloads are CollectiveCost with finite non-negative fields",
    "ir/barrier-payload": "barriers carry no payload",
    "ir/phase-index": "phase indices address the phase table (-1 for barriers)",
    "ir/axis-form": "an axis tag (shape, axis) sits on a comm op whose ranks are exactly that view's lines",
    "ir/dead-phase": "every phase-table entry is referenced by some op (warning)",
}

#: Every binding rule :func:`verify_binding` can emit.
BINDING_RULES = {
    "bind/template-size": "binding template size matches the program rank space",
    "bind/instance-disjoint": "bound instances are pairwise-disjoint rank sets",
    "bind/rank-bounds": "every concrete rank is non-negative (and < machine size when given)",
    "bind/machine-coverage": "instances cover the whole machine (warning when partial: a template run scatters instead of installing its phases in class space)",
}


class VerificationError(ValueError):
    """A verification gate rejected an artifact; carries the findings."""

    def __init__(self, findings: Sequence[Finding], subject: str = "program"):
        self.findings = list(findings)
        lines = "\n".join(f"  {f}" for f in self.findings)
        super().__init__(
            f"{subject} failed static verification "
            f"({len(self.findings)} finding(s)):\n{lines}")


def _is_int_array(ranks: object) -> bool:
    return isinstance(ranks, np.ndarray) and ranks.dtype.kind in "iu"


def _axis_form_problem(kind: str, ranks: object, tag: object,
                       num_ranks: Optional[int]) -> Optional[str]:
    """Why an op's axis tag disagrees with its rank operand, or ``None``.

    A template run charges a tagged op through the tag and a recorder's
    bound splice through ``ranks``; only when the tag's lines *are*
    ``ranks`` do the two charge the same groups.
    """
    if kind != OP_COMM:
        return f"only comm ops carry an axis tag, not {kind} ops"
    if not (isinstance(tag, tuple) and len(tag) == 2):
        return f"axis tag must be a (shape, axis) pair, got {tag!r}"
    shape, axis = tag
    problem = axis_view_problem(shape, axis, num_ranks)
    if problem is not None or num_ranks is None:
        return problem
    lines = lines_along(np.arange(num_ranks).reshape(shape), axis)
    if not (isinstance(ranks, np.ndarray)
            and np.array_equal(ranks, lines)):
        return (f"ranks are not the lines along axis {axis} of view "
                f"{shape}; a template run and a bound splice would charge "
                f"different groups")
    return None


def verify_program(program: ChargeProgram) -> List[Finding]:
    """Statically check *program*; an empty list means it verifies clean.

    O(ops) plus one vectorized pass over each op's rank operand -- cheap
    enough to gate every capture the test suite makes.
    """
    findings: List[Finding] = []
    num_ranks = getattr(program, "num_ranks", None)
    if not isinstance(num_ranks, int) or isinstance(num_ranks, bool) \
            or num_ranks < 0:
        findings.append(Finding("ir/program-ranks", "num_ranks",
                                f"num_ranks must be a non-negative int, "
                                f"got {num_ranks!r}"))
        num_ranks = None  # rank-bounds checks are meaningless; skip them

    phases = list(getattr(program, "phases", []))
    seen: dict = {}
    for i, name in enumerate(phases):
        if not isinstance(name, str) or not name:
            findings.append(Finding("ir/phase-table", f"phases[{i}]",
                                    f"phase name must be a non-empty "
                                    f"string, got {name!r}"))
        elif name in seen:
            findings.append(Finding(
                "ir/phase-table", f"phases[{i}]",
                f"duplicate phase name {name!r} (first at "
                f"phases[{seen[name]}]); replay phase-id resolution would "
                f"alias the two"))
        else:
            seen[name] = i

    referenced = np.zeros(len(phases), dtype=bool)
    for i, op in enumerate(program.ops):
        loc = f"op[{i}]"
        kind = op.kind
        if kind not in (OP_FLOPS, OP_COMM, OP_BARRIER):
            findings.append(Finding("ir/op-kind", loc,
                                    f"unknown op kind {kind!r}"))
            continue

        # -- rank operands --------------------------------------------------------
        ranks = op.ranks
        ranks_ok = False
        if kind == OP_BARRIER and ranks is None:
            ranks_ok = True  # whole-template barrier
        elif not _is_int_array(ranks):
            findings.append(Finding(
                "ir/rank-shape", loc,
                f"{kind} ranks must be an integer ndarray, got "
                f"{type(ranks).__name__}"
                + (f" of dtype {ranks.dtype}" if isinstance(ranks, np.ndarray)
                   else "")))
        elif kind == OP_COMM and ranks.ndim != 2:
            findings.append(Finding(
                "ir/rank-shape", loc,
                f"comm ranks must be a 2D (groups x size) matrix, got "
                f"ndim={ranks.ndim}"))
        elif kind != OP_COMM and ranks.ndim != 1:
            findings.append(Finding(
                "ir/rank-shape", loc,
                f"{kind} ranks must be a 1D rank family, got "
                f"ndim={ranks.ndim}"))
        else:
            ranks_ok = True

        if ranks_ok and ranks is not None and ranks.size:
            if num_ranks is not None and (
                    int(ranks.min()) < 0 or int(ranks.max()) >= num_ranks):
                findings.append(Finding(
                    "ir/rank-bounds", loc,
                    f"rank indices [{int(ranks.min())}, {int(ranks.max())}] "
                    f"fall outside the template rank space "
                    f"[0, {num_ranks})"))
            elif kind == OP_COMM and np.unique(ranks).size != ranks.size:
                # Disjointness is what lets one vectorized call charge all
                # groups at once (disjoint charges commute); an aliased
                # rank would be double-charged in an order-dependent way.
                findings.append(Finding(
                    "ir/comm-disjoint", loc,
                    f"comm group rows share ranks "
                    f"({ranks.size - int(np.unique(ranks).size)} duplicate "
                    f"entr(y/ies) across {ranks.shape[0]} group(s))"))

        # -- payloads -------------------------------------------------------------
        payload = op.payload
        if kind == OP_FLOPS:
            if not isinstance(payload, float) or isinstance(payload, bool):
                findings.append(Finding(
                    "ir/flops-payload", loc,
                    f"flops payload must be a float, got "
                    f"{type(payload).__name__}"))
            elif not math.isfinite(payload) or payload < 0:
                findings.append(Finding(
                    "ir/flops-payload", loc,
                    f"flops payload must be finite and >= 0, got {payload!r}"))
        elif kind == OP_COMM:
            if not isinstance(payload, CollectiveCost):
                findings.append(Finding(
                    "ir/comm-payload", loc,
                    f"comm payload must be a CollectiveCost, got "
                    f"{type(payload).__name__}"))
            elif not (math.isfinite(payload.messages)
                      and math.isfinite(payload.words)
                      and payload.messages >= 0 and payload.words >= 0):
                findings.append(Finding(
                    "ir/comm-payload", loc,
                    f"CollectiveCost fields must be finite and >= 0, got "
                    f"messages={payload.messages!r}, "
                    f"words={payload.words!r}"))
        elif payload is not None:
            findings.append(Finding(
                "ir/barrier-payload", loc,
                f"barriers are pure clock synchronization and must carry "
                f"no payload, got {type(payload).__name__}"))

        # -- axis tags ------------------------------------------------------------
        tag = getattr(op, "axis", None)
        if tag is not None:
            problem = _axis_form_problem(kind, ranks, tag, num_ranks)
            if problem is not None:
                findings.append(Finding("ir/axis-form", loc, problem))

        # -- phase indices --------------------------------------------------------
        phase = op.phase
        if kind == OP_BARRIER:
            if phase != -1:
                findings.append(Finding(
                    "ir/phase-index", loc,
                    f"barriers are phase-less (phase must be -1), got "
                    f"{phase!r}"))
        elif not isinstance(phase, int) or isinstance(phase, bool) \
                or not 0 <= phase < len(phases):
            findings.append(Finding(
                "ir/phase-index", loc,
                f"phase index {phase!r} outside the phase table "
                f"[0, {len(phases)})"))
        else:
            referenced[phase] = True

    for i in np.flatnonzero(~referenced):
        findings.append(Finding(
            "ir/dead-phase", f"phases[{i}]",
            f"phase {phases[i]!r} is never referenced by any op",
            severity=SEVERITY_WARNING))
    return findings


def verify_binding(program: ChargeProgram, binding: RankFamilyMap,
                   machine_ranks: Optional[int] = None) -> List[Finding]:
    """Statically check *binding* against *program* (and a machine size).

    Proves the preconditions replay and template runs otherwise trust:
    the binding's template size matches the program's rank space, bound
    instances are pairwise disjoint (disjoint charges commute -- the
    bit-identity argument), concrete ranks are in bounds, and -- when
    *machine_ranks* is given -- whether the instances partition the
    machine (full coverage is what lets a template run install lazy
    planes instead of scattering; partial coverage is correct but
    slower, reported as a warning).
    """
    findings: List[Finding] = []
    maps = binding.maps
    if binding.template_size != program.num_ranks:
        findings.append(Finding(
            "bind/template-size", "maps",
            f"binding template size {binding.template_size} does not match "
            f"program rank space {program.num_ranks}"))
    flat = maps.reshape(-1)
    if flat.size and np.unique(flat).size != flat.size:
        findings.append(Finding(
            "bind/instance-disjoint", "maps",
            f"bound instances share machine ranks "
            f"({flat.size - int(np.unique(flat).size)} duplicate entries "
            f"across {binding.instances} instance(s)); instance charges "
            f"would not commute"))
    if flat.size:
        lo, hi = int(flat.min()), int(flat.max())
        if lo < 0 or (machine_ranks is not None and hi >= machine_ranks):
            bound = f"[0, {machine_ranks})" if machine_ranks is not None \
                else "[0, inf)"
            findings.append(Finding(
                "bind/rank-bounds", "maps",
                f"concrete ranks [{lo}, {hi}] fall outside the machine "
                f"rank space {bound}"))
        elif machine_ranks is not None and flat.size != machine_ranks:
            findings.append(Finding(
                "bind/machine-coverage", "maps",
                f"instances cover {flat.size} of {machine_ranks} machine "
                f"ranks; a template run will scatter per instance "
                f"instead of installing its phases in class space",
                severity=SEVERITY_WARNING))
    return findings


def require_verified(program: ChargeProgram,
                     subject: str = "program") -> ChargeProgram:
    """Raise :class:`VerificationError` unless *program* verifies clean.

    The gate form of :func:`verify_program`: capture-time verification
    and tests use it; warnings alone do not reject.
    """
    findings = verify_program(program)
    if has_errors(findings):
        raise VerificationError(findings, subject=subject)
    return program


# -- the capture gate -----------------------------------------------------------------

#: ``ScheduleRecorder.program`` as the package ships it: compiles, never
#: verifies.  Tests that must compile without the gate call it directly.
unverified_program = ScheduleRecorder.program

#: CFR3D's per-level captures (:func:`repro.core.cfr3d._cfr3d_program`)
#: are not verified on their own: every level is spliced into, and
#: verified as part of, the program its caller compiles.
_CFR3D_LEVEL = _cfr3d_program.__wrapped__.__code__  # type: ignore[attr-defined]

#: Programs the capture gate has verified in this process.
verified_count = 0


def _verified_program(self: ScheduleRecorder) -> ChargeProgram:
    global verified_count
    program = unverified_program(self)
    if sys._getframe(1).f_code is not _CFR3D_LEVEL:
        verified_count += 1
        require_verified(program, "captured program")
    return program


def verify_captures() -> None:
    """Gate every :meth:`ScheduleRecorder.program` compile on
    :func:`require_verified` from now on, in this process.

    The compiled program must verify clean before anything charges it
    (:class:`VerificationError` otherwise).  Verification is O(ops) and
    runs once per program, never per recorded charge.
    """
    ScheduleRecorder.program = _verified_program  # type: ignore[method-assign]
