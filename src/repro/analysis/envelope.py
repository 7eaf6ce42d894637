"""Static cost envelopes: O(ops) time bounds without replaying a program.

Replay simulates BSP clock semantics -- collectives synchronize their
group to the group maximum before charging -- so the exact critical path
needs the full simulation.  But two rigorous bounds need none of it:

* **Lower bound.**  Synchronization only ever *raises* a clock, and
  float addition is monotone (``a >= b`` implies ``fl(a + s) >= fl(b +
  s)``), so each rank's final clock is at least its own charges
  accumulated in op order with no waits.  The maximum over ranks of that
  per-rank priced sum is a true lower bound on the replayed critical
  path -- bit-rigorous, not just mathematically.

* **Upper bound.**  A synchronize-then-charge op advances the global
  maximum clock by at most its own priced step (the synchronized value
  cannot exceed the pre-op maximum, and barriers add nothing), so the
  priced steps of all ops accumulated in op order bound the critical
  path from above.

Both accumulate the *identical* float expressions the virtual machine
uses per charge (``alpha * messages + beta * words``, ``flops * gamma``),
so the bracket holds at the bit level, not merely approximately -- the
property the test suite asserts against exact replay.  The pass is a
cheap cross-check between the planner's analytic screen and its exact
refinement: a refined time outside its program's envelope means the
program and the run it claims to compile have diverged.

Per-phase count sums ride along for free: the envelope reports the total
``(messages, words, flops)`` ledger mass each phase would accumulate
under replay, summed statically over ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.costmodel.params import MachineSpec
from repro.sched.program import OP_COMM, OP_FLOPS, ChargeProgram


@dataclass(frozen=True)
class CostEnvelope:
    """Static time bounds (seconds) and per-phase count totals."""

    #: Max over template ranks of the rank's own priced charges: a
    #: rigorous lower bound on the replayed critical path.
    lower_seconds: float
    #: Sum over ops of the op's priced step: a rigorous upper bound.
    upper_seconds: float
    #: Ops in the program (barriers included).
    num_ops: int
    #: Per-phase ``(messages, words, flops)`` totals summed over every
    #: rank the phase charges -- the static ledger mass.
    phase_counts: Dict[str, Tuple[float, float, float]]

    def brackets(self, seconds: float) -> bool:
        """Whether an exact replayed critical path sits inside the envelope."""
        return self.lower_seconds <= seconds <= self.upper_seconds


def cost_envelope(program: ChargeProgram,
                  machine: MachineSpec) -> CostEnvelope:
    """Price *program*'s counts under *machine* into a :class:`CostEnvelope`.

    One pass over the ops; no :class:`~repro.vmpi.machine.VirtualMachine`
    is constructed.  Priced steps use the exact per-charge expressions of
    the machine's charging internals, so the bounds bracket replay bit
    for bit.
    """
    params = machine.cost_params()
    per_rank = np.zeros(max(program.num_ranks, 0))
    upper = 0.0
    # (messages, words, flops) accumulator per phase-table slot.
    phase_mass = np.zeros((3, len(program.phases)))
    for op in program.ops:
        if op.kind == OP_FLOPS:
            # Identical expression to VirtualMachine.charge_flops_group.
            step = op.payload * params.gamma
            per_rank[op.ranks] += step
            phase_mass[2, op.phase] += op.payload * op.ranks.size
        elif op.kind == OP_COMM:
            cost = op.payload
            # Identical expression to VirtualMachine._comm_step.
            step = params.alpha * cost.messages + params.beta * cost.words
            per_rank[op.ranks.reshape(-1)] += step
            phase_mass[0, op.phase] += cost.messages * op.ranks.size
            phase_mass[1, op.phase] += cost.words * op.ranks.size
        else:
            continue  # barriers synchronize; they never add cost
        upper += step
    lower = float(per_rank.max()) if per_rank.size else 0.0
    counts = {name: (float(phase_mass[0, i]), float(phase_mass[1, i]),
                     float(phase_mass[2, i]))
              for i, name in enumerate(program.phases)}
    return CostEnvelope(lower_seconds=lower, upper_seconds=float(upper),
                        num_ops=len(program.ops), phase_counts=counts)
