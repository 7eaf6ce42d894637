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
  scratch machine seeded from instance 0 and the final state is scattered
  to all instances.  Each rank then receives the *same chronological
  float accumulation* it would have under the loop, so the result is
  bit-identical while the per-op work drops from ``O(P)`` to
  ``O(template)``.  Ops recorded from the machine's axis form (tagged
  ``axis``, see :class:`~repro.sched.program.ChargeOp`) are charged on
  the template through that form -- a reshaped-view max, no gather or
  scatter of a group matrix; every other op through its rank operand.
  If the symmetry check fails, replay silently falls back to the per-op
  path -- the guard buys speed, never changes results.
  For the subcubes of a root grid the instances are slabs of the
  machine's arrays (see :class:`~repro.sched.binding.RankFamilyMap`), so
  the guard is ``(v == v[:, :1]).all()`` on reshaped *views* of the
  clock, the totals and the phase planes, the seed is the view's first
  slab and the write-back one broadcast assignment; other bindings gather
  and scatter through their rank matrix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sched.binding import RankFamilyMap
from repro.sched.program import OP_COMM, OP_FLOPS, ChargeProgram
from repro.utils.validation import require
from repro.vmpi.machine import VirtualMachine


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
        # Collapsed replay requires plain-VirtualMachine semantics (a
        # subclass recording or instrumenting charges must see every op),
        # no trace sink (events are per-op), and >1 instance (with one
        # instance the template simulation *is* the per-op replay).
        if (type(vm) is VirtualMachine and vm.trace_sink is None
                and self.binding.instances > 1
                and self._replay_collapsed(vm, names)):
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
        """Template-folded replay; ``False`` when the symmetry guard fails.

        Exactness argument: the guard requires every instance's columns of
        the clock vector, the running totals, and each already-interned
        program phase's plane/touched mask to be *exactly equal* across
        instances at entry.  A scratch machine of template size is seeded
        with instance 0's state and runs the ops through the machine's
        charging internals -- axis-tagged ops through the axis form, which
        charges the tag's lines exactly as the group-matrix form charges
        ``ranks`` (``ir/axis-form`` proves the two name the same groups) --
        so each template position experiences the identical chronological
        sequence of float operations every instance would.  Scattering the
        final state back to all instances therefore reproduces the loop
        path bit for bit (float addition is non-associative, which is
        exactly why the state is seeded and accumulated chronologically
        instead of being charged as deltas).

        Machine state is read and written through
        :meth:`~repro.sched.binding.RankFamilyMap.gather` /
        :meth:`~repro.sched.binding.RankFamilyMap.scatter`: for a slab
        binding (the subcubes of a root grid) the guard compares reshaped
        views of the machine's arrays, the seed is the view's instance-0
        slab and the write-back a broadcast assignment -- no O(P) index
        array is built or gathered through.
        """
        b = self.binding
        clocks = b.gather(vm._clock)
        totals = b.gather(vm._total)
        if not (_symmetric(clocks) and _symmetric(totals)):
            return False
        existing = [vm._phase_ids.get(n) for n in names]
        seeds: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        for pid in existing:
            if pid is None:
                continue
            plane = b.gather(vm._plane(pid))
            touched = (None if vm._touched_all[pid]
                       else b.gather(vm._touched[pid]))
            if not (_symmetric(plane)
                    and (touched is None or _symmetric(touched))):
                return False
            seeds[pid] = (plane, touched)

        tvm = VirtualMachine(b.template_size, vm.machine)
        tvm._clock[:] = _first(clocks)
        tvm._total[:] = _first(totals)
        t_pids: List[int] = []
        for name, pid in zip(names, existing):
            tp = tvm._phase_id(name)
            t_pids.append(tp)
            if pid is not None:
                plane, touched = seeds[pid]
                tvm._planes[tp][:] = _first(plane)
                if touched is None:
                    tvm._touch(tp, None)
                else:
                    tvm._touched[tp][:] = _first(touched)
                    tvm._touched_all[tp] = bool(tvm._touched[tp].all())

        charge_comm = tvm._charge_comm_groups_id
        charge_axis = tvm._charge_comm_axis_id
        charge_flops = tvm._charge_flops_group_id
        for op in self.program.ops:
            if op.kind == OP_COMM:
                if op.axis is None:
                    charge_comm(op.ranks, op.payload, t_pids[op.phase])
                else:
                    charge_axis(*op.axis, op.payload, t_pids[op.phase])
            elif op.kind == OP_FLOPS:
                charge_flops(op.ranks, op.payload, t_pids[op.phase])
            else:
                tvm.barrier(op.ranks)

        b.scatter(vm._clock, tvm._clock)
        b.scatter(vm._total, tvm._total)
        if b.covers(vm.num_ranks):
            # The instances partition the whole machine: every phase plane
            # is *installed virtually* -- template arrays plus the binding's
            # rank -> template-position index, built only if a per-rank
            # read or a later direct charge needs it -- instead of being
            # expanded to (3, P).  Reports reduce lazy planes in template
            # space (max is order-independent, so the result is
            # bit-identical).
            for name, tp in zip(names, t_pids):
                vm._install_lazy(name, tvm._planes[tp], tvm._touched[tp],
                                 b.template_index, tvm._touched_all[tp])
        else:
            # Partial coverage: scatter with a broadcast right-hand side,
            # without materializing (3, P)-sized tiles.
            for name, tp in zip(names, t_pids):
                pid = vm._phase_id(name)
                b.scatter(vm._planes[pid], tvm._planes[tp])
                if not vm._touched_all[pid]:
                    b.scatter(vm._touched[pid], tvm._touched[tp])
        return True


def _symmetric(by_instance: np.ndarray) -> bool:
    """Whether every instance holds instance 0's state (see ``gather``)."""
    return bool((by_instance == by_instance[..., :1, :]).all())


def _first(by_instance: np.ndarray) -> np.ndarray:
    """Instance 0's state in template order."""
    return by_instance[..., 0, :].reshape((*by_instance.shape[:-3], -1))
