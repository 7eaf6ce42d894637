"""Bound programs: a :class:`ChargeProgram` specialized to concrete ranks.

A :class:`BoundProgram` pairs a program with a
:class:`~repro.sched.binding.RankFamilyMap` and replays it into a target
:class:`~repro.vmpi.machine.VirtualMachine` with **bit-identical**
clocks, ledgers, and reports relative to executing the recorded loop
directly.  Two replay strategies, chosen per call:

* **Per-op replay** (always exact): every op charges all bound instances
  in one vectorized machine call with pre-interned phase ids and
  precomputed concrete rank arrays -- zero per-op Python string work.
  Disjoint instances commute, so charging them together is bit-identical
  to looping them.  This path drives the machine's public trace-aware
  internals, so replay composes with an attached
  :class:`~repro.vmpi.machine.TraceSink` (events are emitted per rank
  with exact start/end times; only the stream *order* differs from the
  loop path).

* **Collapsed replay** (exact under a guard): when every instance enters
  the replay in *identical* per-template-position state (clocks, running
  totals, and any already-interned program phases -- checked exactly, not
  approximately), the op stream is simulated once on a template-sized
  machine seeded from instance 0 and the final state is written back to
  all instances.  Each rank then receives the *same chronological float
  accumulation* it would have under the loop, so the result is
  bit-identical while the per-op work drops from ``O(P)`` to
  ``O(template)``.  The guard, the seeding, the op loop and the
  write-back are :class:`TemplateRun`'s, the one helper CA-CQR2 also
  runs its whole schedule through (:mod:`repro.core.cacqr`).  Ops
  recorded from the machine's axis form (tagged ``axis``, see
  :class:`~repro.sched.program.ChargeOp`) are charged on the template
  through that form -- a reshaped-view max, no gather or scatter of a
  group matrix; every other op through its rank operand.  If the guard
  fails, replay silently falls back to the per-op path -- the guard buys
  speed, never changes results.  When the instances cover the machine
  every phase is installed as a lazy template plane
  (:class:`~repro.vmpi.machine.LazyPlane`) instead of a ``(3, P)``
  array.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sched.binding import RankFamilyMap
from repro.sched.program import OP_COMM, OP_FLOPS, ChargeProgram
from repro.utils.validation import require
from repro.vmpi.machine import LazyPlane, VirtualMachine


class BoundProgram:
    """A program bound to concrete machine ranks, ready to replay.

    :meth:`replay` returns the strategy it used (``"collapsed"`` or
    ``"ops"``); the choice never changes the charged state.
    """

    __slots__ = ("program", "binding", "_concrete")

    def __init__(self, program: ChargeProgram, binding: RankFamilyMap):
        require(binding.template_size == program.num_ranks,
                f"binding template size {binding.template_size} does not "
                f"match program rank space {program.num_ranks}")
        self.program = program
        self.binding = binding
        self._concrete: Optional[list] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundProgram({self.program!r}, {self.binding!r})"

    # -- concrete op materialization ----------------------------------------------

    def _concrete_ops(self) -> list:
        """Per-op concrete rank arrays, built lazily on first per-op replay.

        The collapsed path never needs them (it simulates in template
        space), so a replay that stays collapsed allocates nothing here.
        """
        if self._concrete is None:
            maps = self.binding.maps
            inst = maps.shape[0]
            ops = []
            for op in self.program.ops:
                if op.kind == OP_COMM:
                    grp = op.ranks
                    arr = np.ascontiguousarray(
                        maps[:, grp.reshape(-1)]
                        .reshape(inst * grp.shape[0], grp.shape[1]))
                elif op.kind == OP_FLOPS:
                    arr = np.ascontiguousarray(maps[:, op.ranks].reshape(-1))
                else:                        # barrier rows, one per instance
                    arr = maps if op.ranks is None else maps[:, op.ranks]
                ops.append((op.kind, arr, op.payload, op.phase))
            self._concrete = ops
        return self._concrete

    # -- replay -------------------------------------------------------------------

    def replay(self, vm: VirtualMachine,
               phases: Optional[Sequence[str]] = None) -> str:
        """Charge the bound ops into *vm*; returns the strategy used.

        ``phases`` optionally substitutes the program's phase table (same
        length, e.g. from
        :meth:`~repro.sched.program.ChargeProgram.phases_with_prefix`) --
        rebasing costs a few string operations per *distinct phase*, never
        per op.
        """
        names = self.program.phases if phases is None else list(phases)
        require(len(names) == len(self.program.phases),
                f"phase table length {len(names)} does not match program "
                f"({len(self.program.phases)} phases)")
        # Collapsed replay needs >1 instance (with one instance the
        # template simulation *is* the per-op replay) and a machine
        # TemplateRun.seed accepts.
        if self.binding.instances > 1 and self._replay_collapsed(vm, names):
            return "collapsed"
        self._replay_ops(vm, names)
        return "ops"

    def _replay_ops(self, vm: VirtualMachine, names: List[str]) -> None:
        """Exact per-op replay: one vectorized machine call per op."""
        if isinstance(vm, VirtualMachine) and type(vm) is VirtualMachine:
            # Hot path: resolve phase ids once, then drive the pre-interned
            # internals -- no per-op string hashing.
            pids = [vm._phase_id(n) for n in names]
            charge_comm = vm._charge_comm_groups_id
            charge_flops = vm._charge_flops_group_id
            for kind, arr, payload, pidx in self._concrete_ops():
                if kind == OP_COMM:
                    charge_comm(arr, payload, pids[pidx])
                elif kind == OP_FLOPS:
                    charge_flops(arr, payload, pids[pidx])
                else:
                    for row in arr:
                        vm.barrier(row)
        else:
            # Subclassed machines (recorders, reference harnesses) go
            # through the public API so their overrides observe every op.
            for kind, arr, payload, pidx in self._concrete_ops():
                if kind == OP_COMM:
                    vm.charge_comm_groups(arr, payload, names[pidx])
                elif kind == OP_FLOPS:
                    vm.charge_flops_group(arr, payload, names[pidx])
                else:
                    for row in arr:
                        vm.barrier(row)

    def _replay_collapsed(self, vm: VirtualMachine, names: List[str]) -> bool:
        """Template-folded replay; ``False`` when :meth:`TemplateRun.seed`
        declines (the machine is left untouched)."""
        run = TemplateRun.seed(vm, self.binding, names)
        if run is None:
            return False
        run.charge(self.program, names)
        run.install()
        return True


#: Instance 0's ``(plane, touched)`` state of one phase; ``touched`` is
#: ``None`` when every rank was touched.
_Seed = Tuple[np.ndarray, Optional[np.ndarray]]


class TemplateRun:
    """One template-sized machine standing in for every instance of a binding.

    :meth:`seed` guards and seeds it, :meth:`charge` runs programs on it
    (any number, in order), and :meth:`install` writes the result back to
    every instance once.  Collapsed replay runs one program this way;
    CA-CQR2 runs its whole schedule -- both Gram dances, both subcube
    passes and the merge -- on one ``c**3``-rank template
    (:mod:`repro.core.cacqr`).

    Exactness argument: the guard requires every instance's columns of
    the clock vector, the running totals, and each already-interned phase
    the programs name to be *exactly equal* across instances.  The
    template machine is seeded with instance 0's state and runs the ops
    through the machine's charging internals -- axis-tagged ops through
    the axis form, which charges the tag's lines exactly as the
    group-matrix form charges ``ranks`` (``ir/axis-form`` proves the two
    name the same groups) -- so each template position experiences the
    identical chronological sequence of float operations every instance
    would.  Scattering the final state back to all instances therefore
    reproduces the loop path bit for bit (float addition is
    non-associative, which is exactly why the state is seeded and
    accumulated chronologically instead of being charged as deltas).

    Machine state is read and written through
    :meth:`~repro.sched.binding.RankFamilyMap.gather` /
    :meth:`~repro.sched.binding.RankFamilyMap.scatter`: for a slab binding
    (the subcubes of a root grid) the guard compares reshaped views of the
    machine's arrays, the seed is the view's instance-0 slab and the
    write-back one broadcast assignment; other bindings gather and scatter
    through their rank matrix.  The guard never materializes a lazy
    phase: one installed through the same slab layout is symmetric by
    construction and seeds from its template state directly.
    """

    __slots__ = ("vm", "binding", "tvm", "_seeds")

    def __init__(self, vm: VirtualMachine, binding: RankFamilyMap,
                 tvm: VirtualMachine, seeds: Dict[str, Optional[_Seed]]):
        self.vm = vm
        self.binding = binding
        self.tvm = tvm
        self._seeds = seeds

    @classmethod
    def seed(cls, vm: VirtualMachine, binding: RankFamilyMap,
             names: Sequence[str]) -> Optional["TemplateRun"]:
        """A template machine holding instance 0's state, or ``None``.

        ``None`` -- and *vm* untouched -- unless *vm* is a plain
        :class:`VirtualMachine` (a subclass recording or instrumenting
        charges must see every op) with no trace sink (events are per
        rank), and every instance holds identical clocks, totals and
        state under each of *names* (every phase the programs charged
        through :meth:`charge` will name) that *vm* already interned.
        """
        if type(vm) is not VirtualMachine or vm.trace_sink is not None:
            return None
        b = binding
        clocks = b.gather(vm._clock)
        totals = b.gather(vm._total)
        if not (_symmetric(clocks) and _symmetric(totals)):
            return None
        seeds: Dict[str, Optional[_Seed]] = {}
        for name in dict.fromkeys(names):
            pid = vm._phase_ids.get(name)
            if pid is None:
                seeds[name] = None
                continue
            seed = seeds[name] = _phase_seed(vm, b, pid)
            if seed is None:
                return None
        tvm = VirtualMachine(b.template_size, vm.machine)
        tvm._clock[:] = _first(clocks)
        tvm._total[:] = _first(totals)
        return cls(vm, b, tvm, seeds)

    def _phase(self, name: str) -> int:
        """The template's id for *name*, interned (and seeded) on first use."""
        tvm = self.tvm
        tp = tvm._phase_ids.get(name)
        if tp is not None:
            return tp
        require(name in self._seeds,
                f"phase {name!r} was not declared to TemplateRun.seed")
        tp = tvm._phase_id(name)
        seed = self._seeds[name]
        if seed is not None:
            plane, touched = seed
            tvm._planes[tp][:] = plane
            if touched is None:
                tvm._touch(tp, None)
            else:
                tvm._touched[tp][:] = touched
                tvm._touched_all[tp] = bool(touched.all())
        return tp

    def charge(self, program: ChargeProgram, names: Sequence[str]) -> None:
        """Charge *program*'s ops, under phase table *names*, on the template.

        Template ranks are the program's own; every name must have been
        passed to :meth:`seed`.
        """
        t_pids = [self._phase(name) for name in names]
        tvm = self.tvm
        charge_comm = tvm._charge_comm_groups_id
        charge_axis = tvm._charge_comm_axis_id
        charge_flops = tvm._charge_flops_group_id
        for op in program.ops:
            if op.kind == OP_COMM:
                if op.axis is None:
                    charge_comm(op.ranks, op.payload, t_pids[op.phase])
                else:
                    charge_axis(*op.axis, op.payload, t_pids[op.phase])
            elif op.kind == OP_FLOPS:
                charge_flops(op.ranks, op.payload, t_pids[op.phase])
            else:
                tvm.barrier(op.ranks)

    def install(self) -> None:
        """Write the template's clocks, totals and phases to every instance."""
        vm, b, tvm = self.vm, self.binding, self.tvm
        b.scatter(vm._clock, tvm._clock)
        b.scatter(vm._total, tvm._total)
        phases = zip(tvm._phase_names, tvm._planes, tvm._touched,
                     tvm._touched_all)
        if b.covers(vm.num_ranks):
            # The instances partition the whole machine: every phase plane
            # is *installed virtually* -- template arrays plus the binding's
            # rank -> template-position index, built only if a per-rank
            # read or a later direct charge needs it -- instead of being
            # expanded to (3, P).  Reports reduce lazy planes in template
            # space (max is order-independent, so the result is
            # bit-identical).
            for name, plane, touched, touched_all in phases:
                vm._install_lazy(name, LazyPlane(plane, touched,
                                                 b.template_index,
                                                 touched_all, b.slabs))
        else:
            # Partial coverage: scatter with a broadcast right-hand side,
            # without materializing (3, P)-sized tiles.
            for name, plane, touched, _ in phases:
                pid = vm._phase_id(name)
                b.scatter(vm._plane(pid), plane)
                if not vm._touched_all[pid]:
                    b.scatter(vm._touched[pid], touched)


def _phase_seed(vm: VirtualMachine, b: RankFamilyMap,
                pid: int) -> Optional[_Seed]:
    """Instance 0's state of phase *pid*, or ``None`` when the instances
    disagree."""
    lazy = vm._lazy.get(pid)
    if lazy is not None and b.slabs is not None and lazy.layout == b.slabs:
        return lazy.plane, None if lazy.touched_all else lazy.touched
    plane, touched = vm._phase_state(pid)
    plane = b.gather(plane)
    if not _symmetric(plane):
        return None
    if touched is None:
        return _first(plane), None
    touched = b.gather(touched)
    if not _symmetric(touched):
        return None
    return _first(plane), _first(touched)


def _symmetric(by_instance: np.ndarray) -> bool:
    """Whether every instance holds instance 0's state (see ``gather``)."""
    return bool((by_instance == by_instance[..., :1, :]).all())


def _first(by_instance: np.ndarray) -> np.ndarray:
    """Instance 0's state in template order."""
    return by_instance[..., 0, :].reshape((*by_instance.shape[:-3], -1))
