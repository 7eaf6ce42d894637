"""Engine bridge: capture whole runs as programs, charge them as reports.

:func:`capture_run` sends a prepared symbolic :class:`~repro.engine.RunSpec`
through the engine's one execution pipeline with a
:class:`~repro.sched.recorder.ScheduleRecorder` in place of the plain
machine.  The recorder only records, so the capturing run costs the
schedule's orchestration and no charging; the report returned with the
program is its :func:`replay_report` under the spec's machine.

:func:`replay_report` is the other half: re-simulate a captured program
under any machine as one template run
(:class:`~repro.sched.replay.TemplateRun`) on the identity binding of a
fresh machine, and report.  Together they are the Schedule IR's test
oracle: a whole-run program charged under any machine must report
exactly what a plain symbolic run on that machine reports.  Nothing on
the planning or serving path captures whole runs; the planner refines
with plain symbolic runs.
"""

from __future__ import annotations

from typing import Tuple

from repro.costmodel.ledger import CostReport
from repro.costmodel.params import MachineSpec
from repro.obs import span
from repro.sched.binding import RankFamilyMap
from repro.sched.program import ChargeProgram
from repro.sched.recorder import ScheduleRecorder
from repro.sched.replay import TemplateRun
from repro.utils.validation import require
from repro.vmpi.machine import VirtualMachine

CaptureResult = Tuple[ChargeProgram, CostReport]


def capture_run(spec) -> CaptureResult:
    """Execute a symbolic spec on a recorder; return ``(program, report)``.

    The program's template rank space is the run's own machine rank space
    (charge it through the identity binding).  The report is the
    program's :func:`replay_report` under the spec's machine -- exactly
    what a plain run of *spec* reports; the recorder itself charges
    nothing.  The capture is one ``sched.capture_run`` span (never a
    ``sched.capture``, which memo captures inside it open).
    """
    from repro.engine.runner import _execute

    require(spec.mode == "symbolic",
            f"program capture requires a symbolic spec, got mode={spec.mode!r}")
    with span("sched.capture_run", algorithm=spec.algorithm,
              procs=spec.procs) as sp:
        _, vm = _execute(spec, trace=False, vm_factory=ScheduleRecorder)
        program = vm.program()
        sp.set(ops=len(program), phases=len(program.phases))
    return program, replay_report(program, spec.machine_spec())


def replay_report(program: ChargeProgram,
                  machine: MachineSpec) -> CostReport:
    """Charge a captured whole-run program on a fresh machine; report.

    Machine-independence in action: the program's counts are charged
    under *machine*'s alpha-beta-gamma rates, so the report is
    bit-identical to capturing (or plainly running) the same spec under
    that machine.  The run is one ``sched.replay`` span.
    """
    vm = VirtualMachine(program.num_ranks, machine)
    run = TemplateRun.seed(vm, RankFamilyMap.identity(program.num_ranks),
                           program.phases)
    run.complete([(program, program.phases)])  # type: ignore[union-attr]
    return vm.report()
