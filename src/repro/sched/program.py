"""The Schedule IR: a charge program over rank-family templates.

A :class:`ChargeProgram` is the compiled form of one symbolic run: a flat
sequence of typed charge ops (:data:`OP_FLOPS` local computation,
:data:`OP_COMM` disjoint collective families, :data:`OP_BARRIER` clock
synchronization) whose rank operands live in a **template rank space**
``[0, num_ranks)`` rather than naming concrete machine ranks.  Phase
strings are interned into a per-program phase table at capture time, so
ops carry small integer phase indices and a template run never re-hashes
a string per op.  A communicator family recorded from the machine's axis
form keeps its ``(shape, axis)`` tag next to its group matrix (see
:class:`ChargeOp`).

The IR's life cycle is *capture -> template run*:

* capture a run once on a :class:`~repro.sched.recorder.ScheduleRecorder`,
  which records the charges and charges nothing (or build a program
  directly);
* charge it through a :class:`~repro.sched.binding.RankFamilyMap` onto
  one or many disjoint instances of the template (the ``d/c`` subcubes
  of a ``c x d x c`` grid, or the whole machine via the identity map):
  a :class:`~repro.sched.replay.TemplateRun` runs it once for instances
  in identical state, bit-identical to executing the original loop.

Programs are machine-independent: op payloads are *counts* (messages,
words, flops); the alpha-beta-gamma rates are applied by the machine at
charge time.  One captured program therefore charges correctly under any
:class:`~repro.costmodel.params.MachineSpec` -- the property the
planner's program cache exploits.

A template run (:class:`~repro.sched.replay.TemplateRun`) executes a
program on **rank classes** -- groups of template positions holding equal
state -- rather than on positions.  :meth:`ChargeProgram.lowered` gives
that form: per entry :class:`Partition`, each op's effect on the classes
and the splits that keep every class exact, memoized process-wide by the
program's :class:`Structure` and the entry partition: programs that
differ only in sizes (say the pass programs of one ``c`` and ``n/n0``)
share one form.
"""

from __future__ import annotations

import functools
import math
from array import array
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.collectives import CollectiveCost
from repro.utils.validation import require
from repro.vmpi.machine import axis_group_matrix

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
    A template run lowers a tagged op from the tag (an O(1) memo key,
    see :meth:`ChargeProgram.lowered`); every other reader (a recorder's
    bound splice, the verifier) reads ``ranks``, and
    ``ir/axis-form`` proves the two agree.
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

    __slots__ = ("num_ranks", "phases", "ops", "_structure")

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
        self._structure: Optional[Structure] = None

    # The structure is derived from the ops on first use, not part of the IR.
    def __getstate__(self):
        return self.num_ranks, self.phases, self.ops

    def __setstate__(self, state) -> None:
        self.num_ranks, self.phases, self.ops = state
        self._structure = None

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

    # -- class-run lowering -------------------------------------------------------

    def lowered(self, entry: "Partition") -> Tuple[List["Epoch"], "Partition"]:
        """The program as a class run executes it from *entry*, and the
        exit partition (see :func:`_lower`).

        Memoized by :attr:`structure` and *entry*, not by program: a form
        holds no payloads.  The memo is bounded like the capture memos.
        """
        wide = entry.classes > 256
        labels = entry.labels if wide else entry.labels.astype(np.uint8)
        return _lowered(self.structure, labels.tobytes(), wide)

    @property
    def structure(self) -> "Structure":
        """The program's :class:`Structure`, computed on first use and kept."""
        if self._structure is None:
            self._structure = Structure(self)
        return self._structure


class Structure:
    """What class runs of a program depend on besides the entry partition:
    the template size, the structure-key table (one :func:`_structure` key
    per id, in id order) and each op's structure id (``ids``; ops with
    equal ids have equal class effects under any partition).  Equal for
    programs that differ only in payloads or phases; ``ops`` holds one
    payload-free op per id, for :func:`_lower`.
    """

    __slots__ = ("ids", "ops", "_key", "_hash")

    def __init__(self, program: ChargeProgram):
        table: Dict[Hashable, int] = {}
        self.ids = array("I")
        self.ops: List[ChargeOp] = []
        for op in program.ops:
            key = _structure(op, program.num_ranks)
            if key not in table:
                table[key] = len(self.ops)
                self.ops.append(ChargeOp(op.kind, op.ranks, None, -1, op.axis))
            self.ids.append(table[key])
        self._key = (program.num_ranks, tuple(table), self.ids.tobytes())
        self._hash = hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Structure) and self._key == other._key


class Partition(NamedTuple):
    """Template positions grouped into rank classes.

    ``labels[t]`` is the class of position ``t``.  Classes are numbered in
    order of first appearance, so equal partitions have equal labels, and
    ``reps[k]`` is class ``k``'s first position.
    """

    labels: np.ndarray
    reps: np.ndarray

    @classmethod
    def whole(cls, size: int) -> "Partition":
        """One class holding all *size* positions."""
        return cls(np.zeros(size, dtype=np.intp), np.zeros(1, dtype=np.intp))

    @classmethod
    def of(cls, keys: np.ndarray) -> "Partition":
        """Positions grouped by equal *keys*: one integer per position, or
        one row of integers per position."""
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True,
                                      axis=0 if keys.ndim == 2 else None)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return cls(rank[inverse.reshape(-1)], first[order])

    @property
    def classes(self) -> int:
        return self.reps.size


#: One op's class effect: ``(singles, groups, members)`` -- the classes
#: synchronized alone, the tuples of classes synchronized together, and
#: all the classes the op touches.
_Effect = Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...], Tuple[int, ...]]

#: A stretch of a lowered program with no split: ops ``[start, stop)``, the
#: split entering it (class ``k`` becomes a copy of class ``parents[k]``;
#: ``None`` for none), and the :data:`_Effect` of each structure id in it.
Epoch = Tuple[int, int, Optional[Tuple[int, ...]], Dict[int, _Effect]]


def _structure(op: ChargeOp, size: int) -> Hashable:
    """What an op's class effect depends on besides the partition: O(1)
    for an axis tag or a whole-template rank set, the rank bytes otherwise.
    Flops and barriers share the key of their rank set (their effect is
    membership)."""
    if op.axis is not None:
        return op.axis
    ranks = op.ranks
    if ranks is None or (op.kind != OP_COMM and ranks.size == size):
        return None
    return (op.kind == OP_COMM, ranks.dtype.str, ranks.shape, ranks.tobytes())


def _effect(op: ChargeOp,
            entry: Partition) -> Tuple[Optional[Partition], _Effect]:
    """How *op* splits *entry* (``None``: it splits no class) and its
    :data:`_Effect` in the resulting partition.

    Each position gets a key: for a comm op the set of classes in its
    group, for flops and barriers whether it is a member; ``-1`` when the
    op does not touch it.  A class splits where its members' keys differ.
    Afterwards every class is wholly inside or outside the op, and a comm
    op's class meets the same set of classes in every group it is in, so
    the op's clock max over a group is the max over that set's values.
    An axis-tagged op is lowered from the tag's lines, which
    ``ir/axis-form`` proves are its ``ranks``, so the tag can be its
    O(1) structure key.
    """
    labels = entry.labels
    size = labels.size
    if op.axis is not None:
        shape, axis = op.axis
        require(math.prod(shape) == size,
                f"axis view {shape} does not cover the {size}-rank template")
        ranks = axis_group_matrix(shape, axis)
    else:
        ranks = np.arange(size) if op.ranks is None else op.ranks
    if ranks.size == size and (op.kind != OP_COMM or entry.classes == 1):
        # Every class wholly inside the op, meeting every class.
        every = tuple(range(entry.classes))
        return None, (every, (), every) if len(every) == 1 else \
            ((), (every,), every)
    key = np.full(size, -1, dtype=np.intp)
    if op.kind == OP_COMM:
        groups, width = ranks.shape
        sets = labels[ranks]
        if (sets == sets[:, :1]).all():
            # One class per group: the class names the set.
            set_ids = sets[:, 0]
        else:
            # A group's set: its sorted distinct classes, padded with an
            # out-of-range class to the group width.
            sets.sort(axis=1)
            sets[:, 1:][sets[:, 1:] == sets[:, :-1]] = entry.classes
            sets.sort(axis=1)
            set_ids = np.zeros(groups, dtype=np.intp)
            if not (sets == sets[:1]).all():
                rows = sets.view(np.dtype((np.void, sets.itemsize * width)))
                set_ids = np.unique(rows.reshape(-1),
                                    return_inverse=True)[1].reshape(-1)
        key[ranks.reshape(-1)] = np.repeat(set_ids, width)
    else:
        key[ranks] = 0
    part = entry
    if not (key == key[entry.reps][labels]).all():
        part = Partition.of(labels * (int(key.max()) + 2) + key + 1)
    by_set: Dict[int, List[int]] = {}
    for k, s in enumerate(key[part.reps].tolist()):
        if s >= 0:
            by_set.setdefault(s, []).append(k)
    sets_of_classes = list(by_set.values())
    effect = (tuple(s[0] for s in sets_of_classes if len(s) == 1),
              tuple(tuple(s) for s in sets_of_classes if len(s) > 1),
              tuple(k for s in sets_of_classes for k in s))
    return (None if part.classes == entry.classes else part), effect


@functools.lru_cache(maxsize=256)
def _lowered(structure: Structure, entry: bytes,
             wide: bool) -> Tuple[List[Epoch], Partition]:
    """:func:`_lower` from the partition labelled by *entry*'s bytes
    (``intp`` when *wide*, else ``uint8``)."""
    labels = np.frombuffer(entry, np.intp if wide else np.uint8)
    return _lower(structure, Partition.of(labels))


def _lower(structure: Structure,
           entry: Partition) -> Tuple[List[Epoch], Partition]:
    """A program of *structure* as a class run executes it from *entry*:
    its :data:`Epoch` list, and the exit partition.

    Walks the ops' structure ids once, computing each structure's effect
    the first time it appears in an epoch; an op that splits a class
    starts the next epoch.  The form holds no per-op data -- a run reads
    each op's kind, phase and payload (counts: the machine's rates apply
    at run time, so one form serves every machine) from the op itself
    and its effect from the epoch by its id in ``structure.ids`` --
    so it costs O(structures) memory per epoch, and serves every program
    of *structure*.
    """
    epochs: List[Epoch] = []
    part: Partition = entry
    parents: Optional[Tuple[int, ...]] = None
    start = 0
    effects: Dict[int, _Effect] = {}
    distinct: Dict[_Effect, _Effect] = {}
    for i, sid in enumerate(structure.ids):
        if sid in effects:
            continue
        split, effect = _effect(structure.ops[sid], part)
        if split is not None:
            epochs.append((start, i, parents, effects))
            parents = tuple(part.labels[split.reps].tolist())
            part, start, effects = split, i, {}
        effects[sid] = distinct.setdefault(effect, effect)
    epochs.append((start, len(structure.ids), parents, effects))
    return epochs, part
