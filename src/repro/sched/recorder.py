"""ScheduleRecorder: capture a symbolic run as a :class:`ChargeProgram`.

A :class:`ScheduleRecorder` *is* a working vectorized
:class:`~repro.vmpi.machine.VirtualMachine` -- it charges clocks and
ledgers exactly like one (so the capturing run's own
:meth:`~repro.vmpi.machine.VirtualMachine.report` stays valid) -- that
additionally appends every charge to an op list in **family form**: bulk
group charges are recorded as their ``(G, s)`` group matrices, not
exploded per-rank lists.  Phase strings are interned through the
machine's own intern table at record time, so the recorded ops carry
integer phase indices and replay never hashes a phase string per op.

This generalizes the older flat-tuple
:class:`repro.vmpi.reference.RecordingMachine` (kept as the
equivalence-test harness) into the compiled-schedule pipeline: record on
a standalone template machine, :meth:`program` the result, then
specialize and replay it anywhere (see :mod:`repro.sched.program`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.costmodel.params import ABSTRACT_MACHINE, MachineSpec
from repro.sched.program import OP_BARRIER, OP_COMM, OP_FLOPS, ChargeOp, ChargeProgram
from repro.utils.config import env_sched_verify
from repro.vmpi.machine import VirtualMachine


class ScheduleRecorder(VirtualMachine):
    """A virtual machine that also compiles its charge stream into an IR.

    The recorder's rank space *is* the template rank space of the
    programs it produces: record on a standalone machine of the template
    size (a ``c**3`` subcube, a whole ``P``-rank grid) and bind the
    program to concrete ranks later.
    """

    def __init__(self, num_ranks: int, machine: MachineSpec = ABSTRACT_MACHINE):
        super().__init__(num_ranks, machine)
        self._ops: List[ChargeOp] = []

    # -- recording overrides ------------------------------------------------------

    def charge_flops(self, rank, flops, phase):
        self._ops.append(ChargeOp(OP_FLOPS,
                                  np.asarray([rank], dtype=np.intp),
                                  float(flops), self._phase_id(phase)))
        super().charge_flops(rank, flops, phase)

    def charge_flops_group(self, ranks, flops, phase):
        idx = self._as_ranks(ranks).reshape(-1).copy()
        if idx.size:
            self._ops.append(ChargeOp(OP_FLOPS, idx, float(flops),
                                      self._phase_id(phase)))
        super().charge_flops_group(ranks, flops, phase)

    def charge_comm_group(self, ranks, cost, phase):
        idx = self._as_ranks(ranks).reshape(1, -1).copy()
        if idx.size:
            self._ops.append(ChargeOp(OP_COMM, idx, cost,
                                      self._phase_id(phase)))
        super().charge_comm_group(ranks, cost, phase)

    def charge_comm_groups(self, groups, cost, phase):
        g = self._as_ranks(np.asarray(groups)).copy()
        if g.size:
            self._ops.append(ChargeOp(OP_COMM, g, cost,
                                      self._phase_id(phase)))
        super().charge_comm_groups(groups, cost, phase)

    def charge_comm_axis(self, shape, axis, cost, phase):
        self.charge_comm_groups(self.axis_groups(shape, axis), cost, phase)

    def barrier(self, ranks=None):
        idx = None if ranks is None else self._as_ranks(ranks).reshape(-1).copy()
        self._ops.append(ChargeOp(OP_BARRIER, idx, None, -1))
        super().barrier(ranks)

    # -- compilation --------------------------------------------------------------

    @property
    def num_ops(self) -> int:
        return len(self._ops)

    def program(self, debug: Optional[bool] = None) -> ChargeProgram:
        """The charge stream so far, compiled into a :class:`ChargeProgram`.

        This is the one compilation point every capture funnels through,
        so it doubles as the verification gate: with ``debug=True`` --
        or ``debug=None`` and ``REPRO_SCHED_VERIFY`` set, the test
        suite's always-on mode -- the compiled program must pass
        :func:`repro.analysis.verify_program` before anything caches or
        replays it (:class:`~repro.analysis.findings.VerificationError`
        otherwise).  Verification is O(ops) and runs once per program,
        never per recorded charge.
        """
        program = ChargeProgram(self.num_ranks, self._phase_names, self._ops)
        if debug or (debug is None and env_sched_verify()):
            from repro.analysis.verifier import require_verified

            require_verified(program, "captured program")
        return program
