"""ScheduleRecorder: capture a symbolic run as a :class:`ChargeProgram`.

A :class:`ScheduleRecorder` stands in for a
:class:`~repro.vmpi.machine.VirtualMachine` wherever a schedule runs, but
it only **records**: every charge is validated with the machine's own
O(1) checks (non-negative flops, a scalar rank inside ``[0, P)``, a 2D
group matrix, a view that covers the machine) and appended to an op list
-- nothing is charged, so the recorder's clocks and ledgers stay at zero.
Charging is a template run's job (:mod:`repro.sched.replay`); a capture
costs the schedule's Python orchestration plus one append per charge.

Ops are recorded in **family form**: bulk group charges keep their
``(G, s)`` group matrices rather than exploded per-rank lists, and a
:meth:`~repro.vmpi.machine.VirtualMachine.charge_comm_axis` family keeps
its ``(shape, axis)`` tag next to the machine's cached, read-only group
matrix, so a template run can lower it from the tag.  Phase strings are
interned into the recorder's phase table at record time, so ops carry
integer phase indices and a template run never hashes a phase string
per op.  :meth:`ScheduleRecorder.extend` splices an already captured
program in, op for op and with the phase table a direct recording would
build: a recursive schedule is captured one level at a time, each level
splicing the memoized program of the level below (CFR3D, see
:mod:`repro.core.cfr3d`), or bound onto every subcube of a captured run.

The flat-tuple recorder that records *and* charges is the test oracle
``RecordingMachine`` (``tests/oracles/reference.py``); this class feeds
the compiled-schedule pipeline: record on a standalone template machine,
:meth:`program` the result, then charge it as a template run anywhere
(see :mod:`repro.sched.program`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.costmodel.params import ABSTRACT_MACHINE, MachineSpec
from repro.sched.binding import RankFamilyMap
from repro.sched.program import OP_BARRIER, OP_COMM, OP_FLOPS, ChargeOp, ChargeProgram
from repro.utils.validation import require
from repro.vmpi.machine import VirtualMachine, axis_group_matrix


class ScheduleRecorder(VirtualMachine):
    """A virtual machine that compiles its charge stream into an IR.

    The recorder's rank space *is* the template rank space of the
    programs it produces: record on a standalone machine of the template
    size (a ``c**3`` subcube, a whole ``P``-rank grid) and bind the
    program to concrete ranks later.  A rejected charge raises the
    machine's ``ValueError`` before anything is recorded.
    """

    def __init__(self, num_ranks: int, machine: MachineSpec = ABSTRACT_MACHINE):
        super().__init__(num_ranks, machine)
        self._ops: List[ChargeOp] = []
        self._op_phases: List[str] = []
        self._op_phase_ids: Dict[str, int] = {}
        self._last_flops_ranks: Optional[np.ndarray] = None

    def _op_phase(self, phase: str) -> int:
        """Intern *phase* into the recorded program's phase table."""
        pid = self._op_phase_ids.get(phase)
        if pid is None:
            pid = self._op_phase_ids[phase] = len(self._op_phases)
            self._op_phases.append(phase)
        return pid

    # -- recording overrides ------------------------------------------------------

    def charge_flops(self, rank, flops, phase):
        self._check_flops(flops)
        self._check_rank(rank)
        self._ops.append(ChargeOp(OP_FLOPS,
                                  np.asarray([rank], dtype=np.intp),
                                  float(flops), self._op_phase(phase)))

    def charge_flops_group(self, ranks, flops, phase):
        self._check_flops(flops)
        idx = self._rank_index(ranks).reshape(-1)
        if idx.size:
            # Runs of flops charges mostly name one rank set (a grid's
            # every rank): they share one read-only copy.
            last = self._last_flops_ranks
            if last is None or not np.array_equal(last, idx):
                last = self._last_flops_ranks = idx.copy()
                last.flags.writeable = False
            self._ops.append(ChargeOp(OP_FLOPS, last, float(flops),
                                      self._op_phase(phase)))

    def charge_comm_group(self, ranks, cost, phase):
        idx = self._rank_index(ranks).reshape(1, -1).copy()
        if idx.size:
            self._ops.append(ChargeOp(OP_COMM, idx, cost,
                                      self._op_phase(phase)))

    def charge_comm_groups(self, groups, cost, phase):
        g = self._as_group_matrix(groups)
        if g.size:
            self._ops.append(ChargeOp(OP_COMM, g.copy(), cost,
                                      self._op_phase(phase)))

    def charge_comm_axis(self, shape, axis, cost, phase):
        shape = self._axis_shape(shape, axis)
        self._ops.append(ChargeOp(OP_COMM, axis_group_matrix(shape, axis),
                                  cost, self._op_phase(phase),
                                  axis=(shape, axis)))

    def barrier(self, ranks=None):
        idx = None if ranks is None else self._rank_index(ranks).reshape(-1).copy()
        self._ops.append(ChargeOp(OP_BARRIER, idx, None, -1))

    # -- splicing -----------------------------------------------------------------

    def extend(self, program: ChargeProgram,
               binding: Optional[RankFamilyMap] = None,
               phases: Optional[Sequence[str]] = None) -> None:
        """Append *program*'s ops, under phase table *phases* (default: its
        own), as if their charges were recorded here.

        Without *binding* the program's rank space is the recorder's: a
        capture splices a memoized sub-schedule this way instead of
        running it again (CFR3D's half-size levels, see
        :func:`repro.core.cfr3d._cfr3d_program`).  Phases are interned in
        the order they first appear among the ops, so the phase table --
        and a report's ``phase_max`` key order -- is the one recording the
        same charges directly builds; ops keeping their phase index are
        shared, not copied.  With *binding*, each op is recorded once for
        all the binding's instances, through the recording methods (a
        captured CA-CQR2's subcube programs, on every subcube).  A program
        over another rank space, or a binding past the end of the
        recorder, raises ``ValueError`` before anything is appended.
        """
        names = program.phases if phases is None else phases
        if binding is not None:
            require(binding.template_size == program.num_ranks,
                    f"binding template size {binding.template_size} does "
                    f"not match program rank space {program.num_ranks}")
            binding.require_fits(self.num_ranks)
            maps = binding.maps
            for op in program.ops:
                if op.kind == OP_COMM:
                    self.charge_comm_groups(
                        maps[:, op.ranks].reshape(-1, op.ranks.shape[1]),
                        op.payload, names[op.phase])
                elif op.kind == OP_FLOPS:
                    self.charge_flops_group(maps[:, op.ranks].reshape(-1),
                                            op.payload, names[op.phase])
                else:
                    for row in maps if op.ranks is None else maps[:, op.ranks]:
                        self.barrier(row)
            return
        require(program.num_ranks == self.num_ranks,
                f"cannot splice a {program.num_ranks}-rank program into a "
                f"{self.num_ranks}-rank recorder")
        ids = {pid: self._op_phase(names[pid])
               for pid in dict.fromkeys(op.phase for op in program.ops)
               if pid >= 0}
        if all(pid == new for pid, new in ids.items()):
            self._ops.extend(program.ops)
            return
        ids[-1] = -1
        self._ops.extend(ChargeOp(op.kind, op.ranks, op.payload, ids[op.phase],
                                  axis=op.axis)
                         for op in program.ops)

    # -- compilation --------------------------------------------------------------

    @property
    def num_ops(self) -> int:
        return len(self._ops)

    def program(self) -> ChargeProgram:
        """The charge stream so far, compiled into a :class:`ChargeProgram`.

        This is the one compilation point every capture funnels through;
        the test suite gates it on the Schedule-IR verifier
        (``tests/oracles/verifier.py``), so every program a test
        captures is statically verified.
        """
        return ChargeProgram(self.num_ranks, self._op_phases, self._ops)
