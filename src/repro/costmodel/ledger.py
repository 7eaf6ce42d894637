"""Cost accounting with named phase attribution.

The virtual machine (:mod:`repro.vmpi.machine`) accumulates communication
costs (messages + words, from :mod:`repro.costmodel.collectives`) and
computation costs (flops, from the kernels layer) into **array-backed
ledger planes**: per interned phase, ``(messages, words, flops)`` per
rank, as a ``(3, num_ranks)`` numpy plane or one column per rank class.  Each charge carries a *phase*
label (e.g. ``"cfr3d.mm3d.bcast"``) so the paper's per-line cost tables
(Tables II-VI) can be recovered from a run by grouping ledger entries.

This module holds the *views* over that state:

* :class:`Ledger` -- a standalone per-rank account (dict-of-phases), kept
  for direct use and tests; the machine no longer allocates one per rank.
* :class:`LedgerView` -- the read-only per-rank facade the machine's
  ``ledger_of`` returns, presenting one rank's column of the ledger planes
  through the same ``total`` / ``phases`` / ``phase_total`` API.
* :class:`CostReport` -- the aggregate over all ranks, computed by numpy
  reductions in :meth:`repro.vmpi.machine.VirtualMachine.report`:

  * ``max_*`` -- the maximum over ranks, the right statistic for the paper's
    per-processor cost expressions (all algorithms here are load balanced, so
    max and mean are close; tests assert that too);
  * ``total_*`` -- sums over ranks, useful for volume sanity checks;
  * ``critical_path_time`` -- the BSP critical path maintained by the virtual
    machine's clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.costmodel.collectives import CollectiveCost


@dataclass
class Cost:
    """A mutable ``(messages, words, flops)`` cost triple."""

    messages: float = 0.0
    words: float = 0.0
    flops: float = 0.0

    def add(self, messages: float = 0.0, words: float = 0.0, flops: float = 0.0) -> None:
        self.messages += messages
        self.words += words
        self.flops += flops

    def add_cost(self, other: "Cost") -> None:
        self.add(other.messages, other.words, other.flops)

    def copy(self) -> "Cost":
        return Cost(self.messages, self.words, self.flops)

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.messages, self.words, self.flops)

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.messages + other.messages,
                    self.words + other.words,
                    self.flops + other.flops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cost):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def isclose(self, other: "Cost", rel: float = 1e-9, abs_tol: float = 1e-6) -> bool:
        """Approximate comparison, tolerant of float accumulation order."""
        import math
        return all(
            math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)
            for a, b in zip(self.as_tuple(), other.as_tuple())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cost(messages={self.messages:g}, words={self.words:g}, flops={self.flops:g})"


def prefix_total(phases: Dict[str, Cost], prefix: str) -> Cost:
    """Sum of all *phases* whose dotted name equals or extends *prefix*."""
    out = Cost()
    for name, cost in phases.items():
        if name == prefix or name.startswith(prefix + "."):
            out.add_cost(cost)
    return out


class Ledger:
    """Cost account of a single virtual rank.

    Tracks a running total plus per-phase subtotals.  Phases are free-form
    dotted strings; grouping by prefix recovers coarser attributions.
    """

    __slots__ = ("total", "phases")

    def __init__(self) -> None:
        self.total = Cost()
        self.phases: Dict[str, Cost] = {}

    def charge_comm(self, cost: CollectiveCost, phase: str) -> None:
        """Charge a collective's ``(messages, words)`` under *phase*."""
        self.total.add(messages=cost.messages, words=cost.words)
        self._phase(phase).add(messages=cost.messages, words=cost.words)

    def charge_flops(self, flops: float, phase: str) -> None:
        """Charge local computation under *phase*."""
        if flops < 0:
            raise ValueError(f"flop charge must be non-negative, got {flops}")
        self.total.add(flops=flops)
        self._phase(phase).add(flops=flops)

    def _phase(self, phase: str) -> Cost:
        cost = self.phases.get(phase)
        if cost is None:
            cost = Cost()
            self.phases[phase] = cost
        return cost

    def phase_total(self, prefix: str) -> Cost:
        """Sum of all phases whose dotted name starts with *prefix*."""
        return prefix_total(self.phases, prefix)

    def reset(self) -> None:
        self.total = Cost()
        self.phases = {}


class LedgerView:
    """Read-only per-rank ledger facade over the machine's array planes.

    Returned by :meth:`repro.vmpi.machine.VirtualMachine.ledger_of`; walks
    like a :class:`Ledger` (``total``, ``phases``, ``phase_total``) but
    materializes nothing until read -- it is a window onto one rank's
    column of the ``(phase x rank)`` accumulator, so holding one is free
    even on a million-rank machine.
    """

    __slots__ = ("_vm", "_rank")

    def __init__(self, vm, rank: int):
        self._vm = vm
        self._rank = rank

    @property
    def total(self) -> Cost:
        col = self._vm._total_col(self._rank)
        return Cost(float(col[0]), float(col[1]), float(col[2]))

    @property
    def phases(self) -> Dict[str, Cost]:
        """Per-phase subtotals of this rank (phases this rank was charged under)."""
        vm = self._vm
        out: Dict[str, Cost] = {}
        for pid, name in enumerate(vm._phase_names):
            col = vm._phase_col(pid, self._rank)
            if col is not None:
                out[name] = Cost(float(col[0]), float(col[1]), float(col[2]))
        return out

    def phase_total(self, prefix: str) -> Cost:
        """Sum of all phases whose dotted name starts with *prefix*."""
        return prefix_total(self.phases, prefix)


@dataclass
class CostReport:
    """Aggregate view over all ranks' ledgers plus the BSP clock.

    Produced by :meth:`repro.vmpi.machine.VirtualMachine.report`.
    """

    num_ranks: int
    max_cost: Cost
    mean_cost: Cost
    total_cost: Cost
    critical_path_time: float
    phase_max: Dict[str, Cost] = field(default_factory=dict)

    def phase_total(self, prefix: str) -> Cost:
        """Max-over-ranks cost of all phases under *prefix*."""
        return prefix_total(self.phase_max, prefix)

    @staticmethod
    def from_ledgers(ledgers: Iterable[Ledger], clocks: Iterable[float]) -> "CostReport":
        ledgers = list(ledgers)
        clocks = list(clocks)
        n = len(ledgers)
        if n == 0:
            raise ValueError("cannot build a CostReport from zero ranks")
        max_cost, total = Cost(), Cost()
        phase_max: Dict[str, Cost] = {}
        for led in ledgers:
            total.add_cost(led.total)
            max_cost.messages = max(max_cost.messages, led.total.messages)
            max_cost.words = max(max_cost.words, led.total.words)
            max_cost.flops = max(max_cost.flops, led.total.flops)
            for name, cost in led.phases.items():
                agg = phase_max.setdefault(name, Cost())
                agg.messages = max(agg.messages, cost.messages)
                agg.words = max(agg.words, cost.words)
                agg.flops = max(agg.flops, cost.flops)
        mean = Cost(total.messages / n, total.words / n, total.flops / n)
        return CostReport(
            num_ranks=n,
            max_cost=max_cost,
            mean_cost=mean,
            total_cost=total,
            critical_path_time=max(clocks) if clocks else 0.0,
            phase_max=phase_max,
        )

    def summary(self) -> str:
        """Human-readable one-screen summary used by examples."""
        lines = [
            f"ranks                : {self.num_ranks}",
            f"critical path (s)    : {self.critical_path_time:.6g}",
            f"max msgs / rank      : {self.max_cost.messages:.6g}",
            f"max words / rank     : {self.max_cost.words:.6g}",
            f"max flops / rank     : {self.max_cost.flops:.6g}",
        ]
        return "\n".join(lines)
