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
lanes), :func:`collectives_batch` (a table's K collective lines as one
stacked ``(K, 3, N)`` evaluation: at tens of lanes a numpy call costs
more than its arithmetic), and :func:`priced_seconds_segments` -- plus
the three baseline screens (TSQR, PGEQRF, CAQR), each bit-identical to
its scalar cost function.  The CholeskyQR family (MM3D, CFR3D,
1D-CQR/CQR2, CA-CQR/CQR2) has its one closed form in
:mod:`repro.costmodel.tables`, built from these helpers.
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


#: Collective kinds as ``(log factor, message constant, word factor)`` of
#: ``n`` words among ``P``: butterfly broadcast, reduce and allreduce
#: (``2 log2 P`` messages, ``2n`` words; named apart so call sites name
#: the collective), allgather and a pairwise transpose exchange.
BCAST = REDUCE = ALLREDUCE = (2.0, 0.0, 2.0)
ALLGATHER = (1.0, 0.0, 1.0)
TRANSPOSE = (0.0, 1.0, 1.0)


def collectives_batch(kinds, words, procs) -> np.ndarray:
    """K collectives per lane in one stacked evaluation, as ``(K, 3, ...)``.

    Row *k* moves ``words[k]`` (*words* is ``(K, ...)``) among ``procs``
    (broadcast to that shape) as ``kinds[k]``, free where ``procs <= 1``.
    Each entry is one collective's own IEEE-754 arithmetic -- 0, 1 or 2
    times an exact ``ceil(log2 P)`` or the words, plus or times an exact
    0 or 1 -- so stacking moves no bit.
    """
    words = np.asarray(words)
    log_f, msg_c, word_f = np.array(kinds, dtype=np.float64).T.reshape(
        3, len(kinds), *[1] * (words.ndim - 1))
    live = procs > 1
    cost = np.zeros((len(kinds), 3) + words.shape[1:])
    cost[:, MSGS] = log_f * log2ceil(procs) + msg_c * live
    cost[:, WORDS] = word_f * words * live
    return cost


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

    The scalar form adds the leaf QR's flops, then per tree level a
    message, the triangle's words, the stacked QR's and the Q update's
    flops, then the leaf Q's flops.  Here those addends are one
    ``(2L + 2, 3, N)`` array (a lane's levels past its ``log2 P`` are
    ``+0.0``) summed by :func:`np.add.accumulate`, strictly in row order:
    each lane adds the scalar sequence plus zeros, bit-identical.
    """
    m, n, p = int_lanes(m=m, n=n, procs=procs)
    if np.any((m % p != 0) | (m // p < n)):
        raise ValueError("TSQR needs P | m and m/P >= n for every candidate")
    nf = n.astype(np.float64)
    levels = log2ceil(p)
    depth = int(levels.max()) if len(levels) else 0
    level = np.zeros((2, 3, len(p)))
    level[0, MSGS] = 1.0
    level[0, WORDS] = nf * (nf + 1.0) / 2.0
    level[0, FLOPS] = 2.0 * (2.0 * nf) * nf * nf - (2.0 / 3.0) * nf ** 3
    level[1, FLOPS] = 2.0 * (2.0 * nf) * nf * nf
    live = levels > np.arange(depth)[:, None, None, None]
    addends = np.zeros((2 * depth + 2, 3, len(p)))
    addends[0, FLOPS] = 2.0 * (m // p) * nf * nf - (2.0 / 3.0) * nf ** 3
    addends[1:-1] = np.where(live, level, 0.0).reshape(2 * depth, 3, len(p))
    addends[-1, FLOPS] = 2.0 * (m // p) * nf * nf
    return np.add.accumulate(addends)[-1]


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
