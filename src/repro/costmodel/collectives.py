"""Collective-communication cost formulas (Section II-B of the paper).

The paper assumes butterfly-network collective schedules, which are optimal
or near-optimal in the alpha-beta-gamma model, and charges:

====================  =======================================
Collective            Cost
====================  =======================================
``Transpose(n, P)``   ``delta(P) * (alpha + n * beta)``
``Bcast(n, P)``       ``2 log2(P) * alpha + 2 n delta(P) * beta``
``Reduce(n, P)``      ``2 log2(P) * alpha + 2 n delta(P) * beta``
``Allreduce(n, P)``   ``2 log2(P) * alpha + 2 n delta(P) * beta``
``Allgather(n, P)``   ``log2(P) * alpha + n delta(P) * beta``
====================  =======================================

where ``n`` is the number of words in the *result* buffer and ``delta(P)``
is 0 for ``P <= 1`` and 1 otherwise (a collective over one process is free).
Computation inside reductions is disregarded, per the paper's
``beta >> gamma`` assumption.

These functions are the single source of truth for the communication
charges of the virtual-MPI runtime (which executes data movement).  The
closed-form line tables (:mod:`repro.costmodel.tables`) charge the same
formulas per candidate lane through the vector forms in
:mod:`repro.costmodel.batch`, and the test suite verifies, with ``==``,
that the two agree phase by phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_positive_int, require


def _log2ceil(p: int) -> float:
    """``log2(p)`` rounded up to an integer number of butterfly stages.

    The paper writes ``log2 P`` for power-of-two groups; for non-powers of
    two a butterfly needs ``ceil(log2 P)`` stages.
    """
    return float(math.ceil(math.log2(p))) if p > 1 else 0.0


@dataclass(frozen=True)
class CollectiveCost:
    """A ``(messages, words)`` charge for one collective call."""

    messages: float
    words: float

    def __add__(self, other: "CollectiveCost") -> "CollectiveCost":
        return CollectiveCost(self.messages + other.messages, self.words + other.words)

    def __mul__(self, k: float) -> "CollectiveCost":
        return CollectiveCost(self.messages * k, self.words * k)

    __rmul__ = __mul__


#: Zero-cost constant for degenerate (single-process) collectives.
FREE = CollectiveCost(0.0, 0.0)


def _check(words: float, procs: int) -> None:
    require(words >= 0, f"word count must be non-negative, got {words}")
    check_positive_int(procs, "procs")


def bcast_cost(words: float, procs: int) -> CollectiveCost:
    """Butterfly broadcast (scatter + allgather): ``2 log2 P`` messages, ``2n`` words."""
    _check(words, procs)
    if procs <= 1:
        return FREE
    return CollectiveCost(2.0 * _log2ceil(procs), 2.0 * words)


def reduce_cost(words: float, procs: int) -> CollectiveCost:
    """Butterfly reduction (reduce-scatter + gather): same cost as Bcast."""
    _check(words, procs)
    if procs <= 1:
        return FREE
    return CollectiveCost(2.0 * _log2ceil(procs), 2.0 * words)


def allreduce_cost(words: float, procs: int) -> CollectiveCost:
    """Butterfly allreduce (reduce-scatter + allgather): same cost as Bcast."""
    _check(words, procs)
    if procs <= 1:
        return FREE
    return CollectiveCost(2.0 * _log2ceil(procs), 2.0 * words)


def allgather_cost(result_words: float, procs: int) -> CollectiveCost:
    """Butterfly allgather: ``log2 P`` messages, ``n`` result words."""
    _check(result_words, procs)
    if procs <= 1:
        return FREE
    return CollectiveCost(_log2ceil(procs), float(result_words))


def transpose_cost(words: float, procs: int) -> CollectiveCost:
    """Pairwise exchange with the transpose partner: one message of ``n`` words.

    ``procs`` is the size of the communicator within which the exchange
    happens; it only matters through ``delta`` (a self-exchange on the grid
    diagonal is free).
    """
    _check(words, procs)
    if procs <= 1:
        return FREE
    return CollectiveCost(1.0, float(words))
