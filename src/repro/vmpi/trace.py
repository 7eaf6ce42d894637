"""Timeline rendering for traced virtual-machine runs.

Enable tracing with ``VirtualMachine(P, trace=True)`` (which attaches a
:class:`~repro.vmpi.machine.TraceRecorder` sink -- tracing is a pluggable
:class:`~repro.vmpi.machine.TraceSink` and zero-cost when no sink is
attached); every charge then records a
:class:`~repro.vmpi.machine.TraceEvent` with its rank, phase, kind
(compute / collective / p2p) and clock interval.  The session exposes the
same plumbing as :meth:`repro.Session.trace`, and the ``repro trace``
CLI subcommand renders both artifacts for any RunSpec.  This module turns
the events into

* a **text Gantt chart** (:func:`render_gantt`) -- one row per rank,
  compute as ``#``, collectives as ``=``, point-to-point as ``-``, idle
  (waiting at a synchronization point) as ``.``;
* a **phase time profile** (:func:`phase_profile`) -- critical-path seconds
  per top-level phase, the empirical analogue of the per-line cost tables.

Intended for small runs (tens of ranks): the point is to *see* the BSP
structure -- e.g. CFR3D's synchronization ladder or the idle triangles the
paper's synchronization-cost terms describe.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.utils.validation import check_positive_int, require
from repro.vmpi.machine import TraceEvent, TraceRecorder, VirtualMachine

_KIND_GLYPHS = {"compute": "#", "collective": "=", "p2p": "-"}


def _require_recorded(vm: VirtualMachine, what: str) -> None:
    """The renderers need recorded events, not just any attached sink."""
    require(vm.trace_enabled, f"run the VirtualMachine with trace=True to {what}")
    require(isinstance(vm.trace_sink, TraceRecorder),
            f"the attached {type(vm.trace_sink).__name__} sink does not record "
            f"events in memory; attach a TraceRecorder (trace=True) to {what}")


def render_gantt(vm: VirtualMachine, width: int = 80,
                 ranks: Optional[Sequence[int]] = None) -> str:
    """Text Gantt chart of a traced run, one row per rank."""
    _require_recorded(vm, "render a Gantt")
    require(width > 0, f"Gantt width must be positive, got {width}")
    ranks = list(range(vm.num_ranks)) if ranks is None else list(ranks)
    if not vm.events:
        return "(empty trace)"
    horizon = max((e.end for e in vm.events
                   if math.isfinite(e.end)), default=0.0)
    if horizon <= 0 or not math.isfinite(horizon):
        # Events exist but span no renderable time (all zero-duration at
        # t=0, or corrupt/non-finite clocks): say so rather than divide
        # by the horizon.
        return (f"(degenerate trace: {len(vm.events)} events, "
                f"horizon {horizon:.4g}s)")
    scale = width / horizon
    lines = [f"timeline 0 .. {horizon:.4g}s  "
             f"(# compute, = collective, - p2p, . idle)"]
    by_rank: Dict[int, List[TraceEvent]] = {r: [] for r in ranks}
    for e in vm.events:
        if e.rank in by_rank:
            by_rank[e.rank].append(e)
    for r in ranks:
        row = ["."] * width
        for e in sorted(by_rank[r], key=lambda ev: ev.start):
            if not (math.isfinite(e.start) and math.isfinite(e.end)):
                continue
            # Clamp into [0, width): an event starting at (or past) the
            # horizon still paints the last column instead of indexing
            # off the row or wrapping negative.
            lo = max(0, min(width - 1, int(e.start * scale)))
            hi = min(width, max(lo + 1, int(e.end * scale)))
            glyph = _KIND_GLYPHS.get(e.kind, "?")
            for i in range(lo, hi):
                row[i] = glyph
        lines.append(f"rank {r:>4} |{''.join(row)}|")
    return "\n".join(lines)


def phase_profile(vm: VirtualMachine, depth: int = 1) -> Dict[str, float]:
    """Critical-path seconds per phase prefix (truncated to *depth* segments).

    The "critical path" attribution is the maximum, over ranks, of the
    total traced duration each rank spent in the phase -- consistent with
    the per-processor view of the paper's cost tables.
    """
    check_positive_int(depth, "depth")
    _require_recorded(vm, "profile")
    per_rank: Dict[str, Dict[int, float]] = {}
    for e in vm.events:
        key = ".".join(e.phase.split(".")[:depth])
        per_rank.setdefault(key, {}).setdefault(e.rank, 0.0)
        per_rank[key][e.rank] += e.duration
    return {key: max(times.values()) for key, times in per_rank.items()}


def idle_fraction(vm: VirtualMachine, rank: int) -> float:
    """Fraction of the run's horizon that *rank* spent idle (not traced busy).

    Idle time in this model is exactly the waiting the synchronization
    terms of the alpha-beta-gamma analysis describe: a rank arriving early
    at a collective stalls until the group's slowest member shows up.
    """
    _require_recorded(vm, "measure idle time")
    horizon = max((e.end for e in vm.events), default=0.0)
    if horizon <= 0:
        return 0.0
    busy = sum(e.duration for e in vm.events if e.rank == rank)
    return max(0.0, 1.0 - busy / horizon)


def format_phase_profile(vm: VirtualMachine, depth: int = 2) -> str:
    """Render :func:`phase_profile` as an aligned table, longest first."""
    profile = phase_profile(vm, depth=depth)
    total = max((e.end for e in vm.events), default=0.0)
    lines = [f"{'phase':<40} {'seconds':>12} {'share':>7}"]
    for key, secs in sorted(profile.items(), key=lambda kv: -kv[1]):
        share = secs / total if total > 0 else 0.0
        lines.append(f"{key:<40} {secs:>12.5g} {share:>6.0%}")
    return "\n".join(lines)
