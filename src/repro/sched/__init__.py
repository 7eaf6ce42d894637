"""repro.sched: compiled charge programs (the Schedule IR).

PR 4 proved the decisive symbolic-simulation optimization -- record a
schedule once, replay it as family-batched array charges -- but as a
hand-rolled special case inside ``core/cacqr.py``.  This package promotes
it into a first-class compiled artifact with a *capture -> replay, or
template run* life cycle::

    from repro.sched import RankFamilyMap, ScheduleRecorder
    from repro.sched.replay import replay

    rec = ScheduleRecorder(c * c * c)            # template machine
    ...run any symbolic schedule on it...        # records, charges nothing
    program = rec.program()                      # the IR
    binding = RankFamilyMap.subcubes(grid, template_grid)  # d/c subcubes
    replay(vm, program, binding)                 # bit-identical charges

Capture only records and replay only charges.  Replay is one exact per-op strategy (disjoint
charges commute), composes with trace sinks and recording machines, and
does zero per-op phase-string work.  A :class:`TemplateRun` charges
programs on one template standing for every instance instead, guarded by
strict state-equality checks and run on rank classes, positions in equal
state sharing one value (see :mod:`repro.sched.replay`); CA-CQR2 runs its
whole schedule that way, and replays per op where the guard declines.
Whole engine runs can be captured and replayed through
:mod:`repro.sched.capture` (the IR's test oracle: a replayed whole run
reports exactly what a plain run does), and compiled programs can be
cached machine-independently by :mod:`repro.sched.cache`.

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
    """Whether consumers (cacqr, panels_dist) may use compiled replay."""
    return not _disabled[0]


@contextlib.contextmanager
def compiled_replay_disabled():
    """Force the uncompiled loop path within the block (the oracle the
    equivalence tests diff compiled replay against)."""
    previous = _disabled[0]
    _disabled[0] = True
    try:
        yield
    finally:
        _disabled[0] = previous
