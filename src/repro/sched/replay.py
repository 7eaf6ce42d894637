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
  ``O(template)``.  If the symmetry check fails, replay silently falls
  back to the per-op path -- the guard buys speed, never changes results.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

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

    __slots__ = ("program", "binding", "_flat", "_tidx", "_concrete")

    def __init__(self, program: ChargeProgram, binding: RankFamilyMap):
        require(binding.template_size == program.num_ranks,
                f"binding template size {binding.template_size} does not "
                f"match program rank space {program.num_ranks}")
        self.program = program
        self.binding = binding
        self._flat = binding.maps.reshape(-1)
        self._tidx: Optional[np.ndarray] = None
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
        with instance 0's state and runs the ops through the very same
        charging internals the per-op path uses, so each template position
        experiences the identical chronological sequence of float
        operations every instance would.  Scattering the final state back
        to all instances therefore reproduces the loop path bit for bit
        (float addition is non-associative, which is exactly why the state
        is seeded and accumulated chronologically instead of being charged
        as deltas).
        """
        maps = self.binding.maps
        inst = maps.shape[0]
        clocks = vm._clock[maps]                       # (inst, T)
        if not (clocks == clocks[0]).all():
            return False
        totals = vm._total[:, maps]                    # (3, inst, T)
        if not (totals == totals[:, :1]).all():
            return False
        existing = [vm._phase_ids.get(n) for n in names]
        for pid in existing:
            if pid is None:
                continue
            plane = vm._plane(pid)[:, maps]
            if not (plane == plane[:, :1]).all():
                return False
            touched = vm._touched[pid][maps]
            if not (touched == touched[0]).all():
                return False

        m0 = maps[0]
        tvm = VirtualMachine(maps.shape[1], vm.machine)
        tvm._clock[:] = clocks[0]
        tvm._total[:] = totals[:, 0]
        t_pids: List[int] = []
        for name, pid in zip(names, existing):
            tp = tvm._phase_id(name)
            t_pids.append(tp)
            if pid is not None:
                tvm._planes[tp][:] = vm._planes[pid][:, m0]
                tvm._touched[tp][:] = vm._touched[pid][m0]
                tvm._touched_all[tp] = bool(tvm._touched[tp].all())

        charge_comm = tvm._charge_comm_groups_id
        charge_flops = tvm._charge_flops_group_id
        for op in self.program.ops:
            if op.kind == OP_COMM:
                charge_comm(op.ranks, op.payload, t_pids[op.phase])
            elif op.kind == OP_FLOPS:
                charge_flops(op.ranks, op.payload, t_pids[op.phase])
            else:
                tvm.barrier(op.ranks)

        if self._flat.size == vm.num_ranks:
            # The instances partition the whole machine: the clock and the
            # running totals are the template state gathered through the
            # inverse rank permutation, and every phase plane is *installed
            # virtually* -- template arrays plus that same gather index --
            # instead of being expanded to (3, P).  Reports reduce lazy
            # planes in template space (max is order-independent, so the
            # result is bit-identical), and any later direct charge to one
            # of these phases materializes the concrete plane on demand.
            tidx = self._template_index()
            np.take(tvm._clock, tidx, out=vm._clock)
            np.take(tvm._total, tidx, axis=1, out=vm._total)
            for name, tp in zip(names, t_pids):
                vm._install_lazy(vm._phase_id(name), tvm._planes[tp],
                                 tvm._touched[tp], tidx,
                                 tvm._touched_all[tp])
        else:
            # Partial coverage: scatter with a broadcast right-hand side --
            # the (inst, T) index replicates template state across
            # instances without materializing (3, P)-sized tiles.
            vm._clock[maps] = tvm._clock
            vm._total[:, maps] = tvm._total[:, None, :]
            for name, tp in zip(names, t_pids):
                pid = vm._phase_id(name)
                vm._planes[pid][:, maps] = tvm._planes[tp][:, None, :]
                if not vm._touched_all[pid]:
                    vm._touched[pid][maps] = tvm._touched[tp]
        return True

    def _template_index(self) -> np.ndarray:
        """``tidx[rank] = template position of rank`` (full-cover bindings)."""
        if self._tidx is None:
            maps = self.binding.maps
            tidx = np.empty(self._flat.size, dtype=np.intp)
            tidx[self._flat] = np.tile(np.arange(maps.shape[1]),
                                       maps.shape[0])
            self._tidx = tidx
        return self._tidx
