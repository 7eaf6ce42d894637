"""The Schedule IR: a charge program over rank-family templates.

A :class:`ChargeProgram` is the compiled form of one symbolic run: a flat
sequence of typed charge ops (:data:`OP_FLOPS` local computation,
:data:`OP_COMM` disjoint collective families, :data:`OP_BARRIER` clock
synchronization) whose rank operands live in a **template rank space**
``[0, num_ranks)`` rather than naming concrete machine ranks.  Phase
strings are interned into a per-program phase table at capture time, so
ops carry small integer phase indices and replay never re-hashes a
string per op.  A communicator family recorded from the machine's axis
form keeps its ``(shape, axis)`` tag next to its group matrix (see
:class:`ChargeOp`).

The IR's life cycle is *capture -> specialize -> replay*, and each step
does one job:

* capture a run once on a :class:`~repro.sched.recorder.ScheduleRecorder`,
  which records the charges and charges nothing (or build a program
  directly);
* :meth:`ChargeProgram.specialize` binds the template to a concrete
  machine through a :class:`~repro.sched.binding.RankFamilyMap` -- one or
  many disjoint instances of the template (the ``d/c`` subcubes of a
  ``c x d x c`` grid, every panel of a blocked factorization, or the
  whole machine via the identity map);
* :meth:`~repro.sched.replay.BoundProgram.replay` charges the bound ops
  into any :class:`~repro.vmpi.machine.VirtualMachine` -- the only step
  that charges -- bit-identical to executing the original loop.

Programs are machine-independent: op payloads are *counts* (messages,
words, flops); the alpha-beta-gamma rates are applied by the machine at
charge time.  One captured program therefore replays correctly under any
:class:`~repro.costmodel.params.MachineSpec` -- the property the
planner's program cache exploits.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.collectives import CollectiveCost
from repro.obs import span
from repro.utils.validation import require

#: Op kinds.  ``OP_FLOPS`` charges identical local flops to a rank family
#: (``ranks``: a 1D template-rank array); ``OP_COMM`` charges one
#: collective per row of a disjoint ``(G, s)`` template group matrix;
#: ``OP_BARRIER`` synchronizes a template rank family's clocks (per
#: bound instance) without charging cost.
OP_FLOPS = "flops"
OP_COMM = "comm"
OP_BARRIER = "barrier"

#: The closed set of op kinds; construction rejects anything else.
OP_KINDS = frozenset({OP_FLOPS, OP_COMM, OP_BARRIER})


class ChargeOp:
    """One typed op: ``(kind, template ranks, payload, phase index)``.

    ``ranks`` is a 1D ``(k,)`` template-rank array for :data:`OP_FLOPS` /
    :data:`OP_BARRIER` (``None`` for a whole-template barrier) and a 2D
    ``(G, s)`` matrix of pairwise-disjoint groups for :data:`OP_COMM`.
    ``payload`` is a flop count (float) or a
    :class:`~repro.costmodel.collectives.CollectiveCost`; barriers carry
    ``None``.  ``phase`` indexes the owning program's phase table
    (``-1`` for barriers, which are phase-less).

    ``axis`` is ``None`` or, for an :data:`OP_COMM` recorded from the
    machine's axis form, the ``(shape, axis)`` view whose lines *are* the
    rows of ``ranks`` (see
    :meth:`~repro.vmpi.machine.VirtualMachine.charge_comm_axis`).
    Collapsed replay charges a tagged op through that gather-free form;
    every other reader (per-op replay, the verifier, the envelope
    analysis) reads ``ranks``, and ``ir/axis-form`` proves the two agree.
    """

    __slots__ = ("kind", "ranks", "payload", "phase", "axis")

    def __init__(self, kind: str, ranks: Optional[np.ndarray],
                 payload: object, phase: int,
                 axis: Optional[Tuple[Tuple[int, ...], int]] = None):
        # O(1) structural guard (capture constructs one op per charge;
        # anything deeper belongs to repro.analysis.verify_program).
        if kind not in OP_KINDS:
            raise ValueError(f"unknown charge-op kind {kind!r}")
        self.kind = kind
        self.ranks = ranks
        self.payload = payload
        self.phase = phase
        self.axis = axis

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = None if self.ranks is None else self.ranks.shape
        return (f"ChargeOp({self.kind!r}, ranks={shape}, "
                f"payload={self.payload!r}, phase={self.phase}, "
                f"axis={self.axis!r})")

    # __slots__ classes need explicit state hooks only under pickle
    # protocols < 2; the default reduce handles them on every supported
    # Python.  Nothing to add.


class ChargeProgram:
    """A compiled charge schedule over ``num_ranks`` template ranks.

    Attributes
    ----------
    num_ranks:
        Size of the template rank space every op's indices live in.
    phases:
        The interned phase table; ops reference phases by index.
    ops:
        The op sequence, in original charge order.
    """

    __slots__ = ("num_ranks", "phases", "ops")

    def __init__(self, num_ranks: int, phases: Sequence[str],
                 ops: Sequence[ChargeOp]):
        require(isinstance(num_ranks, int)
                and not isinstance(num_ranks, bool) and num_ranks >= 0,
                f"num_ranks must be a non-negative int, got {num_ranks!r}")
        self.num_ranks = num_ranks
        self.phases = list(phases)
        self.ops = list(ops)
        # Cheap structural pass, O(1) per op and once per *program* (not
        # per recorded charge): every op's phase index must point into
        # the interned table, or be -1 (phase-less barriers).  The deep
        # invariants (rank bounds, payload typing, group disjointness)
        # stay in repro.analysis.verify_program, off this constructor.
        nphases = len(self.phases)
        for op in self.ops:
            phase = op.phase
            if not (-1 <= phase < nphases):
                raise ValueError(
                    f"op phase index {phase!r} outside the phase table "
                    f"(len {nphases}); programs must intern phases at "
                    f"capture time")

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ChargeProgram(num_ranks={self.num_ranks}, "
                f"ops={len(self.ops)}, phases={len(self.phases)})")

    # -- phase rebasing -----------------------------------------------------------

    def phases_with_prefix(self, old: str, new: str) -> List[str]:
        """The phase table with prefix *old* rewritten to *new*.

        Programs captured under a placeholder prefix (say ``"@"``) are
        re-aimed at their call site's phase namespace without touching a
        single op: only the (tiny) phase table is rewritten.  This is what
        lets one captured subcube program serve both CA-CQR2 passes and
        every panel of a blocked factorization.
        """
        out = []
        for name in self.phases:
            require(name.startswith(old),
                    f"phase {name!r} does not start with prefix {old!r}")
            out.append(new + name[len(old):])
        return out

    def with_phase_prefix(self, old: str, new: str) -> "ChargeProgram":
        """A program sharing this one's ops under a rebased phase table."""
        return ChargeProgram(self.num_ranks,
                             self.phases_with_prefix(old, new), self.ops)

    # -- specialization -----------------------------------------------------------

    def specialize(self, binding) -> "BoundProgram":  # noqa: F821
        """Bind the template to concrete machine ranks; see
        :class:`~repro.sched.replay.BoundProgram`."""
        from repro.sched.replay import BoundProgram

        with span("sched.specialize", ops=len(self.ops),
                  ranks=self.num_ranks,
                  instances=getattr(binding, "instances", 1)):
            return BoundProgram(self, binding)
