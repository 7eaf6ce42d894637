"""Charging a :class:`ChargeProgram`: the template run.

A :class:`TemplateRun` is the one way a compiled program charges a
:class:`~repro.vmpi.machine.VirtualMachine`: one template, seeded from
instance 0 of a :class:`~repro.sched.binding.RankFamilyMap` whose
instances enter in identical state, runs the programs on rank classes
and writes the result back to every instance -- clocks, ledgers, reports
and per-rank trace events bit-identical to the recorded loop's.  Its
guard declines only asymmetric entry state and machine subclasses:
callers then run their loop, and a
:class:`~repro.sched.recorder.ScheduleRecorder` splices the bound program
instead (:meth:`~repro.sched.recorder.ScheduleRecorder.extend`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import span
from repro.sched.binding import RankFamilyMap
from repro.sched.program import (OP_BARRIER, OP_COMM, OP_FLOPS, ChargeProgram,
                                  Partition)
from repro.utils.validation import require
from repro.vmpi.machine import ClassBlock, Seed, TraceEvent, VirtualMachine

#: A program and the phase table to charge it under.
Segment = Tuple[ChargeProgram, Sequence[str]]


class TemplateRun:
    """One template standing in for every instance of a binding, run on rank classes.

    :meth:`seed` guards and seeds it, :meth:`charge` runs programs on it
    (any number, in order), and :meth:`install` writes the result back to
    every instance once; :meth:`complete` does the last two as one
    ``sched.replay`` span.  CA-CQR2 runs its whole schedule -- both Gram
    dances, both subcube passes and the merge -- on one ``c**3``-rank
    template this way (:mod:`repro.core.cacqr`).

    The template's positions are held as **rank classes**
    (:class:`~repro.sched.program.Partition`): positions whose clock,
    running totals, and every phase's ledger column and touched flag are
    equal hold one value per class, as plain Python floats.  CA-CQR2's
    template holds two -- the ``c**2`` positions with ``x == y``, where
    CFR3D's transposes are free self-exchanges, and the rest -- so a
    class run costs ``O(classes)`` per op instead of ``O(template)``.

    Exactness argument, per class:

    * The guard requires every instance's columns of the clock vector,
      the running totals, and each already-interned phase the programs
      name to be *exactly equal* across instances, so instance 0's state
      stands for all of them.
    * The initial partition groups template positions whose seeded state
      is bitwise equal.  Before each op the lowering
      (:meth:`~repro.sched.program.ChargeProgram.lowered`) splits every
      class whose members the op treats differently: membership in a
      flops or barrier rank set; for a comm op, the set of classes in the
      member's group, or being in no group.  Axis-tagged ops are lowered
      from the lines the tag names, which ``ir/axis-form`` proves are
      the op's ``ranks``.
    * So each class's members see the same float operations in the same
      order: ``flops * gamma`` and ``alpha * messages + beta * words``
      computed as the machine computes them, ledger additions of the same
      counts, and a group's clock max taken over the class values it
      contains, which equals the max over its members (``max`` is exact).
      Python floats are IEEE binary64 like the machine's arrays, so each
      class value is bit for bit the value every member -- and so every
      instance's rank at that position -- would hold under the loop
      (float addition is non-associative, which is why state is seeded
      and accumulated chronologically instead of charged as deltas).

    Machine state is read and written only through machine methods:
    :meth:`~repro.vmpi.machine.VirtualMachine.template_state` seeds the
    guard and the template, and
    :meth:`~repro.vmpi.machine.VirtualMachine.install_block` writes the
    result back as one :class:`~repro.vmpi.machine.ClassBlock`.  State
    the machine holds in class space -- a fresh machine's one class, or an
    earlier install through the same tiling -- is symmetric by
    construction and seeds in ``O(classes)``; a binding covering the
    machine installs clocks, totals and phases in class space, so a
    fresh machine's run never expands anything to ``(P,)``.

    On a traced machine each op also keeps its classes' clocks before and
    after it, and :meth:`install` emits every bound rank's events from
    them, so each rank's event stream equals the loop's.
    """

    __slots__ = ("vm", "binding", "_seeds", "_part", "_clock", "_total",
                 "_phases", "_trace")

    def __init__(self, vm: VirtualMachine, binding: RankFamilyMap,
                 seeds: Dict[str, Optional[Seed]], part: Partition,
                 clock: np.ndarray, total: np.ndarray):
        self.vm = vm
        self.binding = binding
        self._seeds = seeds
        self._part = part
        # Per-class state: the clock, the running (messages, words, flops)
        # totals, and per phase [messages, words, flops, touched] -- each a
        # list with one entry per class.
        self._clock: List[float] = clock[part.reps].tolist()
        self._total: List[List[float]] = total[:, part.reps].tolist()
        self._phases: Dict[str, List[list]] = {}
        # Traced machines only: one (split, ops) entry per epoch charged --
        # the epoch's split (see ChargeProgram.lowered) and, per op with
        # members, (phase, op, members, clocks before, clocks after).
        self._trace: Optional[list] = None if vm.trace_sink is None else []

    @property
    def classes(self) -> int:
        """How many rank classes the template holds now."""
        return self._part.classes

    @classmethod
    def seed(cls, vm: VirtualMachine, binding: RankFamilyMap,
             names: Sequence[str]) -> Optional["TemplateRun"]:
        """A template holding instance 0's state, or ``None``.

        ``None`` -- and *vm* untouched -- unless *vm* is a plain
        :class:`VirtualMachine` (a subclass recording or instrumenting
        charges must see every op), traced or not, and every instance
        holds identical clocks, totals and state under each of *names*
        (every phase the programs charged
        through :meth:`charge` will name) that *vm* already interned.
        A binding naming a rank past the end of *vm* raises
        :class:`ValueError`.
        """
        binding.require_fits(vm.num_ranks)
        if type(vm) is not VirtualMachine:
            return None
        entry = vm.template_state(binding, names)
        if entry is None:
            return None
        clock, total, seeds = entry
        state = [clock[None], total]
        for seed in seeds.values():
            if seed is not None:
                state.append(seed[0])
                if seed[1] is not None:
                    state.append(seed[1][None])
        return cls(vm, binding, seeds, _partition(np.concatenate(state)),
                   clock, total)

    def _phase(self, name: str) -> List[list]:
        """The per-class state of *name*, seeded on first use."""
        state = self._phases.get(name)
        if state is not None:
            return state
        require(name in self._seeds,
                f"phase {name!r} was not declared to TemplateRun.seed")
        seed = self._seeds[name]
        k = self.classes
        if seed is None:
            state = [[0.0] * k, [0.0] * k, [0.0] * k, [False] * k]
        else:
            # Classes refine the seed partition: any member is the class.
            plane, touched = seed
            reps = self._part.reps
            state = [*plane[:, reps].tolist(),
                     [True] * k if touched is None else touched[reps].tolist()]
        self._phases[name] = state
        return state

    def charge(self, program: ChargeProgram, names: Sequence[str]) -> None:
        """Charge *program*'s ops, under phase table *names*, on the template.

        Template ranks are the program's own; every name must have been
        passed to :meth:`seed`.
        """
        require(program.num_ranks == self.binding.template_size,
                f"program rank space {program.num_ranks} does not match "
                f"the template ({self.binding.template_size} ranks)")
        planes = [self._phase(name) for name in names]
        epochs, self._part = program.lowered(self._part)
        params = self.vm.params
        alpha, beta, gamma = params.alpha, params.beta, params.gamma
        clock = self._clock
        t_msgs, t_words, t_flops = self._total
        ops, structures = program.ops, program.structure.ids
        trace: Optional[list] = None
        for start, stop, parents, effects in epochs:
            if parents is not None:
                self._split(parents)
            if self._trace is not None:
                trace = []
                self._trace.append((parents, trace))
            for i in range(start, stop):
                singles, groups, members = effects[structures[i]]
                if not members:
                    continue
                op = ops[i]
                kind = op.kind
                if trace is not None:
                    before = [clock[k] for k in members]
                if kind == OP_COMM:
                    cost = op.payload
                    msgs, words = cost.messages, cost.words
                    p_msgs, p_words, _, touched = planes[op.phase]
                    for k in members:
                        p_msgs[k] += msgs
                        p_words[k] += words
                        t_msgs[k] += msgs
                        t_words[k] += words
                        touched[k] = True
                    step = alpha * msgs + beta * words
                    for k in singles:
                        clock[k] += step
                    for group in groups:
                        end = max([clock[k] for k in group]) + step
                        for k in group:
                            clock[k] = end
                elif kind == OP_FLOPS:
                    flops = op.payload
                    _, _, p_flops, touched = planes[op.phase]
                    step = flops * gamma
                    for k in members:
                        p_flops[k] += flops
                        t_flops[k] += flops
                        touched[k] = True
                        clock[k] += step
                elif groups:
                    # A barrier over more than one class.
                    end = max([clock[k] for k in members])
                    for k in members:
                        clock[k] = end
                if trace is not None and kind != OP_BARRIER:
                    trace.append((names[op.phase], op, members, before,
                                  [clock[k] for k in members]))

    def _split(self, parents: Tuple[int, ...]) -> None:
        """Class ``k`` becomes a copy of class ``parents[k]``, in place."""
        lists = [self._clock, *self._total]
        for state in self._phases.values():
            lists.extend(state)
        for values in lists:
            values[:] = [values[k] for k in parents]

    def install(self) -> None:
        """Write the template's clocks, totals and phases to every
        instance, as one class block: the machine's state in class space
        when the instances cover it, scattered otherwise."""
        states = self._phases.values()
        k = self.classes
        self.vm.install_block(list(self._phases), ClassBlock(
            np.array(self._clock), np.array(self._total),
            np.array([state[:3] for state in states],
                     dtype=float).reshape(-1, 3, k),
            np.array([state[3] for state in states],
                     dtype=bool).reshape(-1, k),
            self._part.labels, self.binding.tiling))
        if self._trace:
            self._emit()

    def _emit(self) -> None:
        """Record every bound rank's trace events, in op order: a
        position's class in each epoch follows from the exit labels by
        undoing later splits, and, as on the machine, only intervals with
        ``end > start`` are events."""
        labels = self._part.labels
        epochs = []
        for parents, ops in reversed(self._trace or ()):
            epochs.append((labels, ops))
            if parents is not None:
                labels = np.asarray(parents, dtype=np.intp)[labels]
        record = self.vm.trace_sink.record  # type: ignore[union-attr]
        maps = self.binding.maps
        for labels, ops in reversed(epochs):
            ranks = [maps[:, labels == k].reshape(-1).tolist()
                     for k in range(int(labels.max()) + 1)]
            for phase, op, members, before, after in ops:
                # The kind the machine gives the op's charges.
                kind = ("compute" if op.kind == OP_FLOPS else "p2p"
                        if op.ranks.shape[1] == 2 and op.payload.messages == 1
                        else "collective")
                for k, start, end in zip(members, before, after):
                    if end > start:
                        for rank in ranks[k]:
                            record(TraceEvent(rank, phase, kind, start, end))

    def complete(self, segments: Sequence[Segment]) -> None:
        """:meth:`charge` every ``(program, names)`` segment, then
        :meth:`install` -- one ``sched.replay`` span."""
        with span("sched.replay", ranks=self.binding.template_size,
                  ops=sum(len(program) for program, _ in segments)) as sp:
            for program, names in segments:
                self.charge(program, names)
            self.install()
            sp.set(classes=self.classes)


def _partition(state: np.ndarray) -> Partition:
    """Template positions (the columns of *state*) grouped by bitwise-equal
    state."""
    bits = state.view(np.int64)
    if (bits == bits[:, :1]).all():
        return Partition.whole(bits.shape[1])
    return Partition.of(np.ascontiguousarray(bits.T))
