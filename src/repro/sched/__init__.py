"""repro.sched: compiled charge programs (the Schedule IR).

A symbolic schedule is recorded once and charged as family-batched
array updates, with a *capture -> template run* life cycle::

    from repro.sched import RankFamilyMap, ScheduleRecorder, TemplateRun

    rec = ScheduleRecorder(c * c * c)            # template machine
    ...run any symbolic schedule on it...        # records, charges nothing
    program = rec.program()                      # the IR
    binding = RankFamilyMap.subcubes(grid, template_grid)  # d/c subcubes
    run = TemplateRun.seed(vm, binding, program.phases)    # None: asymmetric
    run.complete([(program, program.phases)])    # bit-identical charges

Capture only records and a template run only charges -- the only route
by which a compiled program charges a machine, traced or not (see
:mod:`repro.sched.replay`).  Where its guard declines, consumers run
their uncompiled loop, and a recorder splices the bound program
(:meth:`ScheduleRecorder.extend`).  Whole engine runs can be captured
and charged through :mod:`repro.sched.capture` (the IR's test oracle),
and compiled programs can be cached machine-independently by
:mod:`repro.sched.cache`.

The :func:`compiled_replay_disabled` context manager forces every
consumer back onto the uncompiled loop path -- the reference oracle the
equivalence suite diffs compiled runs against.
"""

from __future__ import annotations

import contextlib

from repro.sched.binding import RankFamilyMap
from repro.sched.cache import SCHED_VERSION, ProgramCache, program_key
from repro.sched.program import (
    OP_BARRIER,
    OP_COMM,
    OP_FLOPS,
    ChargeOp,
    ChargeProgram,
)
from repro.sched.recorder import ScheduleRecorder
from repro.sched.replay import TemplateRun

__all__ = [
    "ChargeOp",
    "ChargeProgram",
    "OP_BARRIER",
    "OP_COMM",
    "OP_FLOPS",
    "ProgramCache",
    "RankFamilyMap",
    "SCHED_VERSION",
    "ScheduleRecorder",
    "TemplateRun",
    "compiled_replay_disabled",
    "compiled_replay_enabled",
    "program_key",
]

# One-element list so the context manager mutates shared state without a
# ``global`` dance.
_disabled = [False]


def compiled_replay_enabled() -> bool:
    """Whether consumers (cacqr, panels_dist) may charge compiled programs."""
    return not _disabled[0]


@contextlib.contextmanager
def compiled_replay_disabled():
    """Force the uncompiled loop path within the block (the oracle the
    equivalence tests diff compiled runs against)."""
    previous = _disabled[0]
    _disabled[0] = True
    try:
        yield
    finally:
        _disabled[0] = previous
