"""Executable specification of the machine's charging semantics.

:class:`ReferenceMachine` re-implements the original per-rank-object
``VirtualMachine`` (one Python :class:`~repro.costmodel.ledger.Ledger` +
float clock per rank, Python-loop group charges) exactly as the seed
shipped it.  It exists as the ground truth that the vectorized
array-backed machine is checked against: the machine-equivalence test
suite (``tests/test_vmpi_machine_equivalence.py``) replays recorded
charge schedules through it and asserts bit-identical clocks, ledgers,
and reports.

:class:`RecordingMachine` is a vectorized machine that also records its
charge schedule as plain tuples, and :func:`replay` drives a
:class:`ReferenceMachine` through such a schedule (batched group calls
expand to sequential per-group charges -- the semantics the vectorized
bulk paths claim to preserve).

Both recorders exist for *verification*: this module's schedule is an
untyped flat log for diffing machines against each other.  The
production capture path is :class:`repro.sched.ScheduleRecorder`, which
compiles runs into typed, rank-family-templated
:class:`~repro.sched.ChargeProgram` objects that bind to new grids and
charge as template runs (see :mod:`repro.sched`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.collectives import CollectiveCost
from repro.costmodel.ledger import CostReport, Ledger
from repro.costmodel.params import ABSTRACT_MACHINE, MachineSpec
from repro.vmpi.machine import VirtualMachine

#: One recorded charge: (kind, ranks-or-groups, payload, phase).
ScheduleEntry = Tuple[str, Optional[list], object, Optional[str]]


class ReferenceMachine:
    """The pre-vectorization machine semantics: one Python object per rank."""

    class _RankState:
        __slots__ = ("ledger", "clock")

        def __init__(self):
            self.ledger = Ledger()
            self.clock = 0.0

    def __init__(self, num_ranks: int, machine: MachineSpec = ABSTRACT_MACHINE):
        self.num_ranks = num_ranks
        self.params = machine.cost_params()
        self._ranks = [self._RankState() for _ in range(num_ranks)]

    def charge_flops(self, rank: int, flops: float, phase: str) -> None:
        state = self._ranks[rank]
        state.ledger.charge_flops(flops, phase)
        state.clock += flops * self.params.gamma

    def charge_comm_group(self, ranks: Sequence[int], cost: CollectiveCost,
                          phase: str) -> None:
        if len(ranks) == 0:
            return
        states = [self._ranks[r] for r in ranks]
        sync_point = max(s.clock for s in states)
        step = self.params.alpha * cost.messages + self.params.beta * cost.words
        for s in states:
            s.ledger.charge_comm(cost, phase)
            s.clock = sync_point + step

    def barrier(self, ranks: Optional[Sequence[int]] = None) -> None:
        states = (self._ranks if ranks is None
                  else [self._ranks[r] for r in ranks])
        if not states:
            return
        sync_point = max(s.clock for s in states)
        for s in states:
            s.clock = sync_point

    def clock_of(self, rank: int) -> float:
        return self._ranks[rank].clock

    def ledger_of(self, rank: int) -> Ledger:
        return self._ranks[rank].ledger

    def report(self) -> CostReport:
        return CostReport.from_ledgers(
            (s.ledger for s in self._ranks),
            (s.clock for s in self._ranks),
        )


class RecordingMachine(VirtualMachine):
    """A vectorized machine that also records its charge schedule.

    This is the seed-equivalence harness' recorder: a flat untyped log
    replayed through :class:`ReferenceMachine` to pin down charging
    semantics.  It charges first and logs only a charge the machine
    accepted; axis-form families are logged expanded to their group
    matrix.  For reusable, rebindable programs use
    :class:`repro.sched.ScheduleRecorder` (which records without
    charging) instead.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.schedule: List[ScheduleEntry] = []

    def charge_flops(self, rank, flops, phase):
        super().charge_flops(rank, flops, phase)
        self.schedule.append(("flops", [rank], flops, phase))

    def charge_flops_group(self, ranks, flops, phase):
        super().charge_flops_group(ranks, flops, phase)
        self.schedule.append(
            ("flops", np.asarray(ranks).reshape(-1).tolist(), flops, phase))

    def charge_comm_group(self, ranks, cost, phase):
        super().charge_comm_group(ranks, cost, phase)
        self.schedule.append(
            ("comm", [np.asarray(ranks).reshape(-1).tolist()], cost, phase))

    def charge_comm_groups(self, groups, cost, phase):
        super().charge_comm_groups(groups, cost, phase)
        self.schedule.append(("comm", np.asarray(groups).tolist(), cost, phase))

    def charge_comm_axis(self, shape, axis, cost, phase):
        self.charge_comm_groups(self.axis_groups(shape, axis), cost, phase)

    def barrier(self, ranks=None):
        super().barrier(ranks)
        self.schedule.append(
            ("barrier",
             None if ranks is None else np.asarray(ranks).reshape(-1).tolist(),
             None, None))


def replay(schedule: Sequence[ScheduleEntry], num_ranks: int,
           machine: MachineSpec = ABSTRACT_MACHINE) -> ReferenceMachine:
    """Drive a :class:`ReferenceMachine` through a recorded schedule.

    Batched ``comm`` entries (a list of groups) expand to sequential
    per-group charges, exactly the loop the vectorized bulk path replaced.
    """
    ref = ReferenceMachine(num_ranks, machine)
    for kind, ranks, payload, phase in schedule:
        if kind == "flops":
            for r in ranks:
                ref.charge_flops(r, payload, phase)
        elif kind == "comm":
            for group in ranks:
                ref.charge_comm_group(group, payload, phase)
        else:
            ref.barrier(ranks)
    return ref
