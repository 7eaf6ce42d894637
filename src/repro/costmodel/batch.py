"""Vectorized (candidate-batched) cost evaluation: the shared lane machinery.

The planner (:mod:`repro.plan`) screens *hundreds* of candidate
configurations -- every feasible ``c x d x c`` grid times every inverse
depth, every ``pr x pc`` split times every panel width -- and ranks them
on the screen alone before auditing the winner with one exact symbolic
run.  Evaluating the closed forms
*batched* makes the screen effectively free and keeps the whole search
model-bound, in the same spirit as the vectorized virtual machine.

Every function here works on **lanes**: numpy arrays of candidate
parameters, one lane per candidate, and ``(3, N)`` float64 arrays of
per-lane ``(messages, words, flops)``.  This module holds what every
batched closed form shares -- :func:`int_lanes` (validated parameter
lanes), the butterfly collectives per lane, and
:func:`priced_seconds_segments` -- plus the three baseline screens (TSQR,
PGEQRF, CAQR), each bit-identical to its scalar cost function.  The
CholeskyQR family (MM3D, CFR3D, 1D-CQR/CQR2, CA-CQR/CQR2) has its one
closed form in :mod:`repro.costmodel.tables`, built from these helpers.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

MSGS, WORDS, FLOPS = 0, 1, 2


def int_lanes(**params) -> Tuple[np.ndarray, ...]:
    """Broadcast candidate parameters to equal-length 1-D int64 lanes.

    Each keyword is a scalar or 1-D array.  A value that is not integral
    or not positive raises :class:`ValueError` naming the parameter --
    never truncated or priced as something else.
    """
    raws = [np.asarray(value) for value in params.values()]
    for name, raw in zip(params, raws):
        if raw.ndim > 1:
            raise ValueError(f"{name} must be a scalar or 1-D, got shape {raw.shape}")
        if raw.dtype.kind not in "iu" and np.any(raw.astype(np.int64) != raw):
            raise ValueError(f"{name} must be integral, got {raw.tolist()}")
    lanes = np.empty((len(raws), max([raw.size for raw in raws if raw.ndim] or [1])),
                     dtype=np.int64)
    for row, raw in zip(lanes, raws):
        row[...] = raw
    bad = lanes < 1
    if bad.any():
        name, row = next((name, row) for name, row, b in zip(params, lanes, bad) if b.any())
        raise ValueError(f"{name} must be >= 1, got {row[row < 1].tolist()}")
    return tuple(lanes)


def _zeros(n: int) -> np.ndarray:
    return np.zeros((3, n), dtype=np.float64)


def log2ceil(p: np.ndarray) -> np.ndarray:
    """Vector form of the butterfly stage count ``ceil(log2 p)`` (0 for p <= 1)."""
    return np.ceil(np.log2(np.maximum(np.asarray(p, dtype=np.float64), 1.0)))


def _collective(messages, words, procs: np.ndarray) -> np.ndarray:
    """One collective per lane as ``(3, N)``: free where ``procs <= 1``."""
    live = procs > 1
    cost = _zeros(len(procs))
    cost[MSGS] = np.where(live, messages, 0.0)
    cost[WORDS] = np.where(live, words, 0.0)
    return cost


def bcast_batch(words: np.ndarray, procs: np.ndarray) -> np.ndarray:
    """Butterfly broadcast per lane: ``2 log2 P`` messages, ``2n`` words."""
    return _collective(2.0 * log2ceil(procs), 2.0 * words, procs)


# Reduce and allreduce charge identically to broadcast in the paper's
# butterfly model; keep distinct names so call sites name the collective.
reduce_batch = bcast_batch
allreduce_batch = bcast_batch


def allgather_batch(result_words: np.ndarray, procs: np.ndarray) -> np.ndarray:
    """Butterfly allgather per lane: ``log2 P`` messages, ``n`` result words."""
    return _collective(log2ceil(procs), result_words, procs)


def transpose_batch(words: np.ndarray, procs: np.ndarray) -> np.ndarray:
    """Pairwise transpose exchange per lane: one message of ``n`` words."""
    return _collective(1.0, words, procs)


def priced_seconds_segments(costs: np.ndarray, rates: np.ndarray,
                            lengths: np.ndarray) -> np.ndarray:
    """Price a segment-concatenated ``(3, sum(lengths))`` cost array.

    Segment *j* (its ``lengths[j]`` lanes) is priced under
    ``rates[:, j] = (alpha_j, beta_j, gamma_j)``.  Broadcasting the
    per-segment rates with :func:`np.repeat` keeps each lane's
    arithmetic identical to the unsegmented
    ``alpha * costs[MSGS] + beta * costs[WORDS] + gamma * costs[FLOPS]``
    -- same three IEEE-754 multiplies and two adds per lane -- so
    pricing many (problem, machine) pairs in one call is bit-identical
    to pricing each pair alone.  This is the lattice planner's screen:
    one stacked count array, every machine's rates applied per segment.
    """
    rates = np.asarray(rates, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    costs = np.asarray(costs, dtype=np.float64)
    if rates.ndim != 2 or rates.shape[0] != 3 or rates.shape[1] != len(lengths):
        raise ValueError(f"rates must have shape (3, {len(lengths)}), "
                         f"got {rates.shape}")
    total = int(lengths.sum())
    if costs.shape != (3, total):
        raise ValueError(f"costs must have shape (3, {total}), got {costs.shape}")
    alpha = np.repeat(rates[MSGS], lengths)
    beta = np.repeat(rates[WORDS], lengths)
    gamma = np.repeat(rates[FLOPS], lengths)
    return alpha * costs[MSGS] + beta * costs[WORDS] + gamma * costs[FLOPS]


def tsqr_cost_batch(m, n, procs) -> np.ndarray:
    """Batched :func:`~repro.baselines.tsqr.tsqr_cost`.

    The per-level loop is unrolled with a mask (level counts differ when
    candidates carry different processor counts), matching the scalar
    accumulation order level by level.
    """
    m, n, p = int_lanes(m=m, n=n, procs=procs)
    if np.any((m % p != 0) | (m // p < n)):
        raise ValueError("TSQR needs P | m and m/P >= n for every candidate")
    nf = n.astype(np.float64)
    cost = _zeros(len(p))
    cost[FLOPS] += 2.0 * (m // p) * nf * nf - (2.0 / 3.0) * nf ** 3
    levels = log2ceil(p)
    tri = nf * (nf + 1.0) / 2.0
    for lvl in range(int(levels.max()) if len(levels) else 0):
        live = levels > lvl
        cost[MSGS] += np.where(live, 1.0, 0.0)
        cost[WORDS] += np.where(live, tri, 0.0)
        cost[FLOPS] += np.where(
            live, 2.0 * (2.0 * nf) * nf * nf - (2.0 / 3.0) * nf ** 3, 0.0)
        cost[FLOPS] += np.where(live, 2.0 * (2.0 * nf) * nf * nf, 0.0)
    cost[FLOPS] += 2.0 * (m // p) * nf * nf
    return cost


def pgeqrf_cost_batch(m, n, pr, pc, block_size,
                      kernel_efficiency: float) -> np.ndarray:
    """Batched :func:`~repro.baselines.scalapack_qr.pgeqrf_cost`."""
    m, n, pr, pc, nb = int_lanes(m=m, n=n, pr=pr, pc=pc, block_size=block_size)
    b = np.minimum(nb, n).astype(np.float64)
    mf, nf = m.astype(np.float64), n.astype(np.float64)
    p = (pr * pc).astype(np.float64)
    panels = -(n // -nb.clip(min=1))         # ceil(n / b), integer-exact
    panels = np.where(nb >= n, 1, panels).astype(np.float64)
    cost = _zeros(len(pr))
    cost[MSGS] += 2.0 * nf * log2ceil(pr)
    cost[WORDS] += 2.0 * nf * b
    cost[MSGS] += panels * (2.0 * log2ceil(pc) + 2.0 * log2ceil(pr))
    cost[WORDS] += 2.0 * (mf * nf - nf * nf / 2.0) / pr + (nf * nf) / pc
    cost[FLOPS] += ((2.0 * mf * nf * nf - (2.0 / 3.0) * nf ** 3) / p
                    + 2.0 * b * (mf * nf - nf * nf / 2.0) / pr) / kernel_efficiency
    return cost


def caqr_cost_batch(m, n, pr, pc, block_size) -> np.ndarray:
    """Batched :func:`~repro.baselines.caqr.caqr_cost`."""
    m, n, pr, pc, nb = int_lanes(m=m, n=n, pr=pr, pc=pc, block_size=block_size)
    b = np.minimum(nb, n).astype(np.float64)
    mf, nf = m.astype(np.float64), n.astype(np.float64)
    p = (pr * pc).astype(np.float64)
    panels = -(n // -nb.clip(min=1))
    panels = np.where(nb >= n, 1, panels).astype(np.float64)
    cost = _zeros(len(pr))
    cost[MSGS] += panels * (3.0 * log2ceil(pr) + 2.0 * log2ceil(pc))
    cost[WORDS] += ((b * nf / 2.0 + 1.5 * nf * nf / pc) * log2ceil(pr)
                    + 2.0 * (mf * nf - nf * nf / 2.0) / pr)
    cost[FLOPS] += ((2.0 * mf * nf * nf - (2.0 / 3.0) * nf ** 3) / p
                    + (2.0 / 3.0) * b * b * nf * log2ceil(pr)
                    + b * nf * (3.0 * mf - nf) / (2.0 * pr))
    return cost
