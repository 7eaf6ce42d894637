"""The virtual machine: array-backed rank state, interned phases, BSP clocks.

A :class:`VirtualMachine` models ``P`` ranks without materializing ``P``
Python objects.  Its mutable state is

* every rank's BSP **clock** (seconds under the machine's
  :class:`~repro.costmodel.params.CostParams`) and **running totals** of
  ``(messages, words, flops)``, and
* a **ledger accumulator**: per interned phase, ``(messages, words,
  flops)`` per rank plus a per-phase *touched* mask recording which ranks
  were ever charged under that phase.

Each is held in one of two forms.  *Concrete* state is numpy arrays: a
``(P,)`` clock vector, a ``(3, P)`` totals plane and, per phase, a
``(3, P)`` plane and a ``(P,)`` mask.  *Class* state is a
:class:`ClassBlock`: one value per **rank class** plus the map from rank
to class, where a class is a set of ranks in bitwise-equal state.  A
fresh (or reset) machine is one class of zeros; a template run
(:class:`repro.sched.replay.TemplateRun`) installs its clocks, totals and
phases as the classes of its template.  Reads -- :meth:`clock_of`,
:meth:`ledger_of`, :attr:`elapsed`, :meth:`report` -- work on either form
without changing it; the first direct charge that touches class state
expands it to concrete arrays (clocks and totals together, each phase on
its own).  So a symbolic CA-CQR2 run holds ``O(classes)`` machine state
from start to report.

Phase strings (e.g. ``"cfr3d.mm3d.bcast"``) are interned to integer ids at
first use, so the hot charging path never hashes a string more than once
per distinct phase.  Every charge is a vectorized numpy operation -- cost
per charge is O(group) in C, not O(group) Python object traffic -- in one
of three forms:

* **arbitrary groups** (:meth:`VirtualMachine.charge_comm_groups`,
  :meth:`VirtualMachine.charge_flops_group`): gather the members' clocks,
  take each group's max, scatter it back plus the step; the ledger planes
  and running totals are updated through the same fancy index;
* **whole cover**: ranks in a charge are distinct, so a call whose index
  holds ``num_ranks`` entries is a permutation of the machine, and its
  ledger update is a contiguous ``plane[row] += amount`` over every rank
  (flops advance the clock the same way) -- only a collective's clock max
  still needs the group structure;
* **axis form** (:meth:`VirtualMachine.charge_comm_axis`): one collective
  per 1-D line along one axis of the rank space viewed as a C-order
  array, charged as ``view.max(axis, keepdims=True) + step`` written back
  through the view, with the whole-cover ledger update.  The machine stays
  grid-unaware; :meth:`repro.vmpi.grid.Grid3D.charge_lines` maps a
  communicator family of a root grid onto this form.

Subclasses that observe charges must override :meth:`charge_comm_axis`
too, because on a plain machine it never reaches
:meth:`charge_comm_groups`.  The test oracle ``RecordingMachine``
(``tests/oracles/reference.py``) expands it with
:meth:`VirtualMachine.axis_groups` into the equivalent
:meth:`charge_comm_groups` call; :class:`repro.sched.ScheduleRecorder`
records the axis form itself, tagged onto the same (cached) group matrix.
An attached trace sink takes the expansion, so per-rank event streams do
not depend on the form.

Clocks implement BSP critical-path semantics, unchanged from the original
per-rank-object machine (results are bit-identical):

* local computation advances only that rank's clock by ``flops * gamma``;
* a collective over a group first synchronizes the group (every member's
  clock jumps to the group maximum -- a collective cannot complete before
  its slowest participant arrives) and then adds the collective's
  ``alpha``/``beta`` time to every member.

The modeled execution time of an algorithm is the maximum clock over all
ranks when it finishes, which is exactly the critical-path cost the paper's
tables analyze.

Tracing is a **pluggable sink**: pass ``trace=True`` (or an explicit
:class:`TraceSink`) and every charge emits :class:`TraceEvent` intervals;
leave it off and the charging path pays a single ``is None`` check --
tracing is zero-cost when disabled.

The public read API -- :meth:`VirtualMachine.clock_of`,
:meth:`VirtualMachine.ledger_of` (a
:class:`~repro.costmodel.ledger.LedgerView` over the arrays),
:meth:`VirtualMachine.report` -- is unchanged from the per-rank-object
machine; :meth:`VirtualMachine.clocks` and :meth:`VirtualMachine.totals`
read every rank's clock and totals at once.
"""

from __future__ import annotations

import functools
import math
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from repro.costmodel.collectives import CollectiveCost
from repro.costmodel.ledger import Cost, CostReport, LedgerView
from repro.costmodel.params import ABSTRACT_MACHINE, CostParams, MachineSpec
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:
    from repro.sched.binding import RankFamilyMap

RankGroup = Union[Sequence[int], np.ndarray]


def lines_along(ranks: np.ndarray, axis: int) -> np.ndarray:
    """The 1-D lines along *axis* of a rank array, as a ``(G, s)`` group matrix.

    Rows run over the other axes in C order; each row holds one line's
    ranks in index order.
    """
    return np.moveaxis(ranks, axis, -1).reshape(-1, ranks.shape[axis])


def axis_view_problem(shape: object, axis: object,
                      num_ranks: Optional[int]) -> Optional[str]:
    """Why ``(shape, axis)`` is not an axis view of *num_ranks* ranks, or ``None``.

    *shape* must be a tuple of positive ``int`` extents (a ``bool`` is
    not one), *axis* an ``int`` index into it, and -- unless *num_ranks*
    is ``None`` -- the view must hold exactly *num_ranks* ranks.  The
    machines check this before anything is interned or charged, and the
    test suite's verifier (``ir/axis-form``, ``tests/oracles/verifier.py``)
    checks a recorded tag with it.
    """
    def is_int(value: object) -> bool:
        return (isinstance(value, (int, np.integer))
                and not isinstance(value, bool))

    if not (isinstance(shape, tuple)
            and all(is_int(e) and e > 0 for e in shape)):
        return f"axis view must be a tuple of positive int extents, got {shape!r}"
    if not (is_int(axis) and 0 <= axis < len(shape)):
        return f"axis {axis!r} out of range for view {shape}"
    if num_ranks is not None and math.prod(shape) != num_ranks:
        return (f"axis view {shape} holds {math.prod(shape)} ranks, not "
                f"{num_ranks}")
    return None


@functools.lru_cache(maxsize=64)
def axis_group_matrix(shape: Tuple[int, ...], axis: int) -> np.ndarray:
    """:func:`lines_along` of ``arange(prod(shape)).reshape(shape)``, read-only.

    One cached matrix per ``(shape, axis)``, shared by every machine that
    expands the axis form (a trace sink, a recorder's op) -- callers must
    not write to it, and numpy enforces that.
    """
    ranks = np.arange(math.prod(shape), dtype=np.intp).reshape(shape)
    groups = np.ascontiguousarray(lines_along(ranks, axis))
    groups.flags.writeable = False
    return groups


class TraceEvent:
    """One traced interval on one rank's timeline."""

    __slots__ = ("rank", "phase", "kind", "start", "end")

    def __init__(self, rank: int, phase: str, kind: str, start: float, end: float):
        self.rank = rank
        self.phase = phase
        self.kind = kind          # "compute", "collective" or "p2p"
        self.start = start
        self.end = end

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceEvent(rank={self.rank}, phase={self.phase!r}, "
                f"kind={self.kind}, [{self.start:.3g}, {self.end:.3g}])")


class TraceSink:
    """Receiver for :class:`TraceEvent` streams (pluggable tracing backend).

    The machine calls :meth:`record` once per rank-interval; when no sink
    is attached the charging path skips event construction entirely, so
    tracing costs nothing unless requested.  Subclass to stream events
    elsewhere (a file, an aggregator); :class:`TraceRecorder` is the
    in-memory list sink the renderers in :mod:`repro.vmpi.trace` consume.
    """

    def record(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def clear(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class TraceRecorder(TraceSink):
    """The default sink: collect every event in an in-memory list."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events = []


class Slabs(NamedTuple):
    """Ranks ``0 .. P-1`` viewed as a C-order ``(outer, instances, inner)``
    array: instance ``i`` is ``[:, i, :]``, and rank ``(o, i, n)`` sits at
    template position ``t = o * inner + n``.

    The subcubes of a root grid are such slabs
    (:meth:`repro.sched.binding.RankFamilyMap.subcubes`), and so is a
    fresh machine's one class: ``Slabs(1, P, 1)`` makes every rank an
    instance of a one-position template.  State is read and written
    through reshaped views, with no ``O(P)`` index array.
    """

    outer: int
    instances: int
    inner: int

    def covers(self, num_ranks: int) -> bool:
        return self.outer * self.instances * self.inner == num_ranks

    def position(self, rank: int) -> int:
        """Template position of machine rank *rank*."""
        return rank // (self.instances * self.inner) * self.inner \
            + rank % self.inner

    def gather(self, state: np.ndarray) -> np.ndarray:
        """Per-rank *state* (last axis: ranks) viewed ``(..., outer,
        instances, inner)``."""
        return state.reshape(state.shape[:-1] + tuple(self))

    def scatter(self, state: np.ndarray, template: np.ndarray) -> None:
        """Write template-ordered *template* to every instance of *state*."""
        self.gather(state)[...] = template.reshape(
            (*template.shape[:-1], self.outer, 1, self.inner))


#: Where a template's positions lie on a machine: :class:`Slabs`, or a
#: binding of any other layout.  Equal tilings place every position on
#: the same ranks.
Tiling = Union[Slabs, "RankFamilyMap"]


#: One phase's ``(plane (3, T), touched (T,))`` in template order;
#: ``touched`` is ``None`` when every rank was touched.
Seed = Tuple[np.ndarray, Optional[np.ndarray]]


class ClassBlock(NamedTuple):
    """Machine state held in class space: a fresh machine's zeros, or what
    one template run installed.

    ``labels[t]`` is the class of template position ``t`` and ``tiling``
    places the positions on the machine, so rank ``r`` is in class
    ``labels[tiling.position(r)]``; every class has a member.  Per class,
    ``clock`` holds the ``(k,)`` clocks and ``total`` the ``(3, k)``
    running ``(messages, words, flops)`` totals -- the machine's own while
    the block is its state -- and row ``f`` of ``values`` / ``touched``
    one phase's ``(3, k)`` ledger and ``(k,)`` touched flags.
    """

    clock: np.ndarray
    total: np.ndarray
    values: np.ndarray
    touched: np.ndarray
    labels: np.ndarray
    tiling: Tiling

    @classmethod
    def zeros(cls, num_ranks: int, phases: int = 0) -> "ClassBlock":
        """One class of zeros over a *num_ranks*-rank machine, with
        *phases* untouched phase rows."""
        return cls(np.zeros(1), np.zeros((3, 1)), np.zeros((phases, 3, 1)),
                   np.zeros((phases, 1), dtype=bool),
                   np.zeros(1, dtype=np.intp), Slabs(1, num_ranks, 1))

    def class_of(self, rank: int) -> int:
        return int(self.labels[self.tiling.position(rank)])

    def in_template(self, values: np.ndarray, tiling: Tiling,
                    size: int) -> Optional[np.ndarray]:
        """Per-class *values* ``(..., k)`` at the *size* positions of a
        template that *tiling* places, or ``None`` unless every instance of
        that template holds them: one class holds every rank, or the
        block's own tiling is *tiling*."""
        if self.clock.size == 1:
            return np.repeat(values, size, axis=-1)
        if self.tiling == tiling:
            return values[..., self.labels]
        return None

    def in_rank_order(self, values: np.ndarray, num_ranks: int) -> np.ndarray:
        """Per-class *values* ``(..., k)`` expanded to a new ``(...,
        num_ranks)`` array in rank order."""
        template = values[..., self.labels]
        out = np.empty(template.shape[:-1] + (num_ranks,), template.dtype)
        self.tiling.scatter(out, template)
        return out

    def rank_sum(self, values: np.ndarray, num_ranks: int) -> float:
        """Per-class *values* ``(k,)`` summed over every rank left to right,
        as the per-rank-object machine summed them, bit for bit.

        One ``np.add.accumulate`` pass over the values in rank order.  A
        slab tiling is expanded one slab at a time, the running sum
        carried into the next slab's first value (float addition
        commutes exactly), so the pass holds ``P / outer`` values, not
        ``P``.
        """
        tiling = self.tiling
        if not isinstance(tiling, Slabs):
            row = self.in_rank_order(values, num_ranks)
            return float(np.add.accumulate(row, out=row)[-1])
        slab = np.empty((tiling.instances, tiling.inner))
        flat = slab.reshape(-1)
        total = 0.0
        for o, part in enumerate(values[self.labels].reshape(tiling.outer,
                                                              tiling.inner)):
            slab[...] = part
            if o:
                flat[0] += total
            total = np.add.accumulate(flat, out=flat)[-1]
        return float(total)

    def maxima(self) -> List[Optional[Tuple[float, float, float]]]:
        """Each phase row's maximum ``(messages, words, flops)`` over its
        touched classes (``None``: no class touched), as one masked max.

        Every class has a member, so this is the maximum over the touched
        ranks, bit for bit (max is exact and order-independent).
        """
        top = np.where(self.touched[:, None, :], self.values,
                       -np.inf).max(axis=2)
        return [tuple(row) if seen else None for row, seen in
                zip(top.tolist(), self.touched.any(axis=1).tolist())]


class VirtualMachine:
    """A simulated distributed-memory machine with ``num_ranks`` processes.

    Parameters
    ----------
    num_ranks:
        Number of virtual MPI processes.
    machine:
        Machine preset supplying the alpha-beta-gamma rates used to advance
        clocks.  Defaults to the unit-rate abstract machine, under which the
        critical-path "time" equals ``alpha_count + word_count + flop_count``
        along the critical path.
    trace:
        Attach a :class:`TraceRecorder` so every charge records
        :class:`TraceEvent` intervals (see :mod:`repro.vmpi.trace` for the
        Gantt renderer).  Off by default: large runs produce many events.
    trace_sink:
        An explicit :class:`TraceSink` to attach instead (overrides
        ``trace``).

    Notes
    -----
    The machine is deliberately unaware of grids and matrices; those live in
    :mod:`repro.vmpi.grid` and :mod:`repro.vmpi.distmatrix`, and the
    algorithms charge whole communicator families through
    :meth:`charge_comm_groups` / :meth:`charge_flops_group`, or -- for a
    family of lines along one axis of the whole rank space --
    :meth:`charge_comm_axis`.

    Rank groups passed to the charging methods must contain **distinct**
    ranks (MPI communicator semantics; slices of a
    :class:`~repro.vmpi.grid.Grid3D` rank array are).  ndarray groups are
    used as-is -- callers holding precomputed rank arrays avoid any
    per-call conversion.  Scalar ranks are checked against ``[0, P)``;
    bulk rank arrays are not (an O(P) scan per charge).

    A new machine holds one class of zeros (see the module docstring):
    ``O(1)`` memory whatever ``num_ranks`` is.  The first charge expands
    clocks and totals to ``(P,)`` and ``(3, P)`` arrays; a template run
    (:meth:`template_state` / :meth:`install_block`) reads and writes them
    in class space instead.
    """

    def __init__(self, num_ranks: int, machine: MachineSpec = ABSTRACT_MACHINE,
                 trace: bool = False, trace_sink: Optional[TraceSink] = None):
        check_positive_int(num_ranks, "num_ranks")
        self.num_ranks = num_ranks
        self.machine = machine
        self.params: CostParams = machine.cost_params()
        # Clocks and running totals: the concrete (P,) clock vector and
        # (3, P) totals plane (rows: messages, words, flops), or -- while
        # both are None -- the class values of `_state`.
        self._clock: Optional[np.ndarray] = None
        self._total: Optional[np.ndarray] = None
        self._state: Optional[ClassBlock] = None
        # Phase interning: name -> id at first use; per-phase (3, P) planes
        # plus a touched mask so reports can reconstruct exactly which
        # ranks ever saw a phase.
        self._phase_ids: Dict[str, int] = {}
        self._phase_names: List[str] = []
        self._planes: List[Optional[np.ndarray]] = []
        self._touched: List[Optional[np.ndarray]] = []
        # Once a phase has touched every rank its mask never changes again;
        # this flag lets the bulk charging paths skip the mask scatter.
        self._touched_all: List[bool] = []
        # Virtual phases: pid -> (ClassBlock, row), held in class space
        # because reports only ever take a max over them (order-
        # independent, so the class max equals the expanded max, bit for
        # bit).  Any charge that needs the concrete (3, P) array builds it
        # on demand; the corresponding `_planes`/`_touched` slots hold
        # None until then.
        self._virtual: Dict[int, Tuple[ClassBlock, int]] = {}
        self._sink: Optional[TraceSink] = (
            trace_sink if trace_sink is not None
            else (TraceRecorder() if trace else None))
        self._zero()

    # -- tracing ------------------------------------------------------------------

    @property
    def trace_enabled(self) -> bool:
        """Whether a trace sink is attached (events are being recorded)."""
        return self._sink is not None

    @property
    def trace_sink(self) -> Optional[TraceSink]:
        return self._sink

    @property
    def events(self) -> List[TraceEvent]:
        """Recorded trace events (empty unless a :class:`TraceRecorder` is attached)."""
        if isinstance(self._sink, TraceRecorder):
            return self._sink.events
        return []

    # -- phase interning ----------------------------------------------------------

    def _phase_id(self, phase: str, concrete: bool = True) -> int:
        """Intern *phase*; a new phase gets zeroed ``(3, P)``/``(P,)``
        arrays unless ``concrete=False`` (the caller installs virtual state)."""
        pid = self._phase_ids.get(phase)
        if pid is None:
            pid = len(self._phase_names)
            self._phase_ids[phase] = pid
            self._phase_names.append(phase)
            self._planes.append(np.zeros((3, self.num_ranks)) if concrete
                                else None)
            self._touched.append(np.zeros(self.num_ranks, dtype=bool)
                                 if concrete else None)
            self._touched_all.append(False)
        return pid

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.num_ranks})")

    @staticmethod
    def _check_flops(flops: float) -> None:
        if flops < 0:
            raise ValueError(f"flop charge must be non-negative, got {flops}")

    def _touch(self, pid: int, idx: Optional[np.ndarray]) -> None:
        """Mark ranks *idx* (``None``: every rank) touched under *pid*.

        The phase's arrays are concrete (the ledger update that precedes
        every touch materialized them).  Once the flag ``_touched_all`` is
        set the mask is all-true and never written again.
        """
        if self._touched_all[pid]:
            return
        touched = self._touched[pid]
        if idx is None:
            touched.fill(True)
            self._touched_all[pid] = True
            return
        touched[idx] = True
        # The full-coverage test is itself an O(P) scan, so only attempt it
        # when this charge could plausibly have completed the coverage --
        # phases charged through many small groups would otherwise pay a
        # whole-machine scan per charge.
        if idx.size * 4 >= self.num_ranks and bool(touched.all()):
            self._touched_all[pid] = True

    def _ledger_comm(self, pid: int, idx: Optional[np.ndarray],
                     cost: CollectiveCost, total: np.ndarray) -> None:
        """Add one collective's ``(messages, words)`` to ranks *idx* under
        *pid* and to their running *total*.  ``idx=None`` is the whole
        machine: contiguous row updates, no index traffic."""
        plane = self._plane(pid)
        if idx is None:
            plane[0] += cost.messages
            plane[1] += cost.words
            total[0] += cost.messages
            total[1] += cost.words
        else:
            plane[0, idx] += cost.messages
            plane[1, idx] += cost.words
            total[0, idx] += cost.messages
            total[1, idx] += cost.words
        self._touch(pid, idx)

    def _whole(self, idx: np.ndarray) -> Optional[np.ndarray]:
        """``None`` when the (distinct) ranks *idx* cover the whole machine."""
        return None if idx.size == self.num_ranks else idx

    def _comm_step(self, cost: CollectiveCost) -> float:
        """A collective's clock advance once its group is synchronized."""
        return self.params.alpha * cost.messages + self.params.beta * cost.words

    # -- class state ------------------------------------------------------------

    def _zero(self) -> None:
        """Every clock, total and phase zero, as one class (O(phases))."""
        block = ClassBlock.zeros(self.num_ranks, len(self._phase_names))
        self._virtual.clear()
        self.install_block(self._phase_names, block)

    def install_block(self, names: Sequence[str], block: ClassBlock) -> None:
        """Write *block*'s clocks, totals and phases (row ``f`` is phase
        ``names[f]``) to every rank its tiling covers.

        A tiling that covers the whole machine makes *block* the
        machine's state: nothing is expanded, and a phase first seen here
        is interned without whole-machine arrays.  Otherwise the block is
        scattered into concrete arrays.  The caller -- a template run,
        see :class:`repro.sched.replay.TemplateRun` -- guarantees every
        covered rank holds its class's state.
        """
        tiling, labels = block.tiling, block.labels
        if not tiling.covers(self.num_ranks):
            clock, total = self._concrete()
            tiling.scatter(clock, block.clock[labels])
            tiling.scatter(total, block.total[:, labels])
            for name, plane, mask in zip(names, block.values, block.touched):
                pid = self._phase_id(name)
                tiling.scatter(self._plane(pid), plane[:, labels])
                if not self._touched_all[pid]:
                    tiling.scatter(self._touched[pid], mask[labels])
            return
        self._state = block
        self._clock = self._total = None
        for row, touched_all in enumerate(block.touched.all(axis=1).tolist()):
            pid = self._phase_id(names[row], concrete=False)
            self._virtual[pid] = (block, row)
            self._planes[pid] = None
            self._touched[pid] = None
            self._touched_all[pid] = touched_all

    def _concrete(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(P,)`` clocks and ``(3, P)`` totals as the machine's own
        arrays, expanding class state on first use."""
        block = self._state
        if block is not None:
            self._clock = block.in_rank_order(block.clock, self.num_ranks)
            self._total = block.in_rank_order(block.total, self.num_ranks)
            self._state = None
        return self._clock, self._total

    def clocks(self) -> np.ndarray:
        """Every rank's clock, as a new ``(P,)`` array; the machine keeps
        its representation."""
        block = self._state
        if block is None:
            return self._clock.copy()
        return block.in_rank_order(block.clock, self.num_ranks)

    def totals(self) -> np.ndarray:
        """Every rank's running ``(messages, words, flops)``, as a new
        ``(3, P)`` array; the machine keeps its representation."""
        block = self._state
        if block is None:
            return self._total.copy()
        return block.in_rank_order(block.total, self.num_ranks)

    def _total_col(self, rank: int) -> np.ndarray:
        """One rank's running ``(messages, words, flops)``."""
        block = self._state
        if block is None:
            return self._total[:, rank]
        return block.total[:, block.class_of(rank)]

    def template_state(self, binding: "RankFamilyMap", names: Sequence[str],
                       ) -> Optional[Tuple[np.ndarray, np.ndarray,
                                           Dict[str, Optional[Seed]]]]:
        """Instance 0's state under *binding*, in template order, or
        ``None`` when another instance holds different state.

        Returns the ``(T,)`` clocks, the ``(3, T)`` totals and, for each
        of *names*, the phase's :data:`Seed` (``None``: not interned).
        Class state held by one class, or tiled like the binding, is
        symmetric by construction and read in ``O(classes)``; anything
        else is compared instance by instance
        (:meth:`~repro.sched.binding.RankFamilyMap.common`) on concrete
        arrays or fresh expansions.  The machine is never changed.
        """
        tiling, size = binding.tiling, binding.template_size
        block = self._state
        state = (None if block is None else block.in_template(
            np.vstack([block.clock, block.total]), tiling, size))
        if state is None:
            clock = binding.common(self.clocks() if self._clock is None
                                   else self._clock)
            total = None if clock is None else binding.common(
                self.totals() if self._total is None else self._total)
            if total is None:
                return None
            state = np.vstack([clock, total])
        seeds: Dict[str, Optional[Seed]] = {}
        for name in dict.fromkeys(names):
            pid = self._phase_ids.get(name)
            if pid is None:
                seeds[name] = None
                continue
            seed = seeds[name] = self._phase_seed(pid, binding)
            if seed is None:
                return None
        return state[0], state[1:], seeds

    def _phase_seed(self, pid: int, binding: "RankFamilyMap") -> Optional[Seed]:
        """:meth:`template_state` of one phase."""
        virtual = self._virtual.get(pid)
        if virtual is not None:
            block, row = virtual
            tiling, size = binding.tiling, binding.template_size
            plane = block.in_template(block.values[row], tiling, size)
            if plane is not None:
                return plane, (None if self._touched_all[pid] else
                               block.in_template(block.touched[row], tiling,
                                                 size))
        plane, touched = self._phase_state(pid)
        plane = binding.common(plane)
        if plane is None or touched is None:
            return None if plane is None else (plane, None)
        touched = binding.common(touched)
        return None if touched is None else (plane, touched)

    def _phase_state(self, pid: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The phase's ``(3, P)`` plane and touched mask (``None``: every
        rank touched), read without changing the machine: a virtual phase
        is expanded into fresh arrays and stays virtual."""
        virtual = self._virtual.get(pid)
        if virtual is None:
            return (self._planes[pid],
                    None if self._touched_all[pid] else self._touched[pid])
        block, row = virtual
        return (block.in_rank_order(block.values[row], self.num_ranks),
                None if self._touched_all[pid]
                else block.in_rank_order(block.touched[row], self.num_ranks))

    def _materialize(self, pid: int) -> np.ndarray:
        """Expand a virtual phase to concrete whole-machine arrays."""
        plane, touched = self._phase_state(pid)
        del self._virtual[pid]
        self._planes[pid] = plane
        self._touched[pid] = (np.ones(self.num_ranks, dtype=bool)
                              if touched is None else touched)
        return plane

    def _plane(self, pid: int) -> np.ndarray:
        """The phase's concrete plane, materializing a virtual one on demand."""
        plane = self._planes[pid]
        return self._materialize(pid) if plane is None else plane

    def _phase_col(self, pid: int, rank: int) -> Optional[np.ndarray]:
        """One rank's (messages, words, flops) column under one phase, or
        ``None`` when the rank was never charged there.  Reads virtual
        phases in class space -- holding a :class:`LedgerView` never
        expands a million-rank machine's virtual phases."""
        virtual = self._virtual.get(pid)
        if virtual is not None:
            block, row = virtual
            k = block.class_of(rank)
            if not block.touched[row, k]:
                return None
            return block.values[row, :, k]
        if not (self._touched_all[pid] or self._touched[pid][rank]):
            return None
        return self._planes[pid][:, rank]

    @property
    def phase_names(self) -> List[str]:
        """Interned phase names, in first-use order."""
        return list(self._phase_names)

    @staticmethod
    def _as_ranks(ranks: RankGroup) -> np.ndarray:
        if isinstance(ranks, np.ndarray):
            return ranks if ranks.dtype == np.intp else ranks.astype(np.intp)
        return np.asarray(ranks, dtype=np.intp)

    def _rank_index(self, ranks: RankGroup) -> np.ndarray:
        """:meth:`_as_ranks`, with a scalar rank checked against ``[0, P)``
        (numpy would silently wrap a negative one)."""
        idx = self._as_ranks(ranks)
        if idx.ndim == 0:
            self._check_rank(int(idx))
        return idx

    @classmethod
    def _as_group_matrix(cls, groups: np.ndarray) -> np.ndarray:
        g = cls._as_ranks(np.asarray(groups))
        if g.ndim != 2:
            raise ValueError(f"group matrix must be 2D (groups x size), "
                             f"got ndim={g.ndim}")
        return g

    # -- charging -----------------------------------------------------------------

    def charge_flops(self, rank: int, flops: float, phase: str) -> None:
        """Charge *flops* of local computation to *rank* under *phase*."""
        self._check_flops(flops)
        self._check_rank(rank)
        clock, total = self._concrete()
        pid = self._phase_id(phase)
        self._plane(pid)[2, rank] += flops
        if not self._touched_all[pid]:
            self._touched[pid][rank] = True
        total[2, rank] += flops
        start = clock[rank]
        end = start + flops * self.params.gamma
        clock[rank] = end
        if self._sink is not None and end > start:
            self._sink.record(TraceEvent(rank, phase, "compute",
                                         float(start), float(end)))

    def charge_flops_group(self, ranks: RankGroup, flops: float, phase: str) -> None:
        """Charge the same *flops* of local computation to every rank in *ranks*.

        Exactly equivalent to calling :meth:`charge_flops` once per rank
        (local computation on distinct ranks is independent), but one
        vectorized slice update -- the bulk path the symbolic fast paths in
        :mod:`repro.core` use when a uniform layout gives every rank an
        identical kernel invocation.
        """
        self._check_flops(flops)
        idx = self._rank_index(ranks)
        if idx.size == 0:
            return
        clock, total = self._concrete()
        pid = self._phase_id(phase)
        cover = self._whole(idx)
        plane = self._plane(pid)
        if cover is None:
            plane[2] += flops
            total[2] += flops
        else:
            plane[2, idx] += flops
            total[2, idx] += flops
        self._touch(pid, cover)
        step = flops * self.params.gamma
        if self._sink is None:
            if cover is None:
                clock += step
            else:
                clock[idx] += step
            return
        starts = clock[idx]
        ends = starts + step
        clock[idx] = ends
        for rank, start, end in zip(idx.tolist(), starts.tolist(), ends.tolist()):
            if end > start:
                self._sink.record(TraceEvent(rank, phase, "compute", start, end))

    def charge_comm_group(self, ranks: RankGroup, cost: CollectiveCost,
                          phase: str) -> None:
        """Charge one collective over *ranks*: synchronize, then add its time.

        Every participant is charged the same ``(messages, words)`` -- the
        butterfly formulas in :mod:`repro.costmodel.collectives` are already
        per-participant costs.
        """
        idx = self._rank_index(ranks)
        if idx.size == 0:
            return
        clock, total = self._concrete()
        self._ledger_comm(self._phase_id(phase), self._whole(idx), cost, total)
        step = self._comm_step(cost)
        if self._sink is None:
            clock[idx] = clock[idx].max() + step
            return
        starts = clock[idx]
        end = float(starts.max() + step)
        clock[idx] = end
        kind = "p2p" if idx.size == 2 and cost.messages == 1 else "collective"
        for rank, start in zip(idx.tolist(), starts.tolist()):
            if end > start:
                self._sink.record(TraceEvent(rank, phase, kind, start, end))

    def charge_comm_groups(self, groups: np.ndarray, cost: CollectiveCost,
                           phase: str) -> None:
        """Charge one collective per row of a ``(G, s)`` rank matrix.

        All ``G`` groups must be pairwise disjoint and are charged the same
        *cost*; because disjoint groups touch disjoint clock and ledger
        entries, this is exactly equivalent to ``G`` sequential
        :meth:`charge_comm_group` calls, collapsed into a handful of numpy
        operations.  This is the bulk path for schedule steps that sweep a
        whole communicator family (every depth fiber of an Allreduce, every
        transpose pair) in one machine call.
        """
        g = self._as_group_matrix(groups)
        if g.size == 0:
            return
        flat = g.reshape(-1)
        clock, total = self._concrete()
        self._ledger_comm(self._phase_id(phase), self._whole(flat), cost, total)
        starts = clock[g]                        # (G, s)
        ends = starts.max(axis=1) + self._comm_step(cost)   # (G,)
        clock[flat] = np.repeat(ends, g.shape[1])
        if self._sink is None:
            return
        kind = "p2p" if g.shape[1] == 2 and cost.messages == 1 else "collective"
        record = self._sink.record
        for ranks, row, end in zip(g.tolist(), starts.tolist(), ends.tolist()):
            for rank, start in zip(ranks, row):
                if end > start:
                    record(TraceEvent(rank, phase, kind, start, end))

    def charge_comm_axis(self, shape: Sequence[int], axis: int,
                         cost: CollectiveCost, phase: str) -> None:
        """Charge one collective per 1-D line along *axis* of the rank space.

        The ranks ``0 .. P-1`` are viewed as a C-order array of *shape*
        (``prod(shape) == num_ranks``); every line along *axis* is one
        group, and all of them are charged *cost* -- exactly
        :meth:`charge_comm_groups` on :meth:`axis_groups`'s matrix, but
        with no index traffic: the clock is updated through a reshaped
        view (group max, plus the step, written back along the axis) and
        the ledger by the whole-cover rows.  With a trace sink attached the
        call takes the group-matrix path so every rank's events are
        recorded.  Subclasses that observe charges must override this
        method (see the module docstring).
        """
        shape = self._axis_shape(shape, axis)
        if self._sink is not None:
            self.charge_comm_groups(axis_group_matrix(shape, axis), cost, phase)
            return
        clock, total = self._concrete()
        self._ledger_comm(self._phase_id(phase), None, cost, total)
        view = clock.reshape(shape)
        ends = view.max(axis=axis, keepdims=True)
        ends += self._comm_step(cost)
        view[...] = ends

    def axis_groups(self, shape: Sequence[int], axis: int) -> np.ndarray:
        """The ``(G, s)`` group matrix :meth:`charge_comm_axis` charges
        (cached and read-only, see :func:`axis_group_matrix`)."""
        return axis_group_matrix(self._axis_shape(shape, axis), axis)

    def _axis_shape(self, shape: Sequence[int], axis: int) -> Tuple[int, ...]:
        """*shape* as a tuple; ``ValueError`` unless
        :func:`axis_view_problem` accepts it on this machine."""
        shape = tuple(shape)
        problem = axis_view_problem(shape, axis, self.num_ranks)
        if problem is not None:
            raise ValueError(problem)
        return shape

    def barrier(self, ranks: Optional[RankGroup] = None) -> None:
        """Synchronize clocks (no cost charge).  Defaults to all ranks."""
        idx = None if ranks is None else self._rank_index(ranks)
        if idx is not None and idx.size == 0:
            return
        clock, _ = self._concrete()
        if idx is None:
            clock[:] = clock.max()
            return
        clock[idx] = clock[idx].max()

    # -- inspection ---------------------------------------------------------------

    def clock_of(self, rank: int) -> float:
        self._check_rank(rank)
        block = self._state
        if block is None:
            return float(self._clock[rank])
        return float(block.clock[block.class_of(rank)])

    def ledger_of(self, rank: int) -> LedgerView:
        """Read-only :class:`~repro.costmodel.ledger.LedgerView` of one rank."""
        self._check_rank(rank)
        return LedgerView(self, rank)

    @property
    def elapsed(self) -> float:
        """Current critical-path time (max clock over ranks)."""
        block = self._state
        return float((self._clock if block is None else block.clock).max())

    def report(self) -> CostReport:
        """Aggregate the ledger planes and clocks into a :class:`CostReport`.

        Pure numpy reductions, over classes where the state is held in
        class space: maxima are exact and order-independent, so a class
        maximum is the rank maximum, bit for bit.  Totals across ranks
        accumulate left-to-right (``np.add.accumulate``) so they match
        the sequential per-rank summation the per-rank-object machine
        performed; class totals are expanded to rank order for it, one
        row at a time (:meth:`ClassBlock.rank_sum`) -- the report's only
        per-rank pass.
        """
        n = self.num_ranks
        state = self._state
        clock, totals = ((self._clock, self._total) if state is None
                         else (state.clock, state.total))
        total = Cost(*(float(np.add.accumulate(row)[-1]) if state is None
                       else state.rank_sum(row, n)
                       for row in totals))
        max_cost = Cost(*totals.max(axis=1).tolist())
        mean = Cost(total.messages / n, total.words / n, total.flops / n)
        phase_max: Dict[str, Cost] = {}
        maxima: Dict[int, list] = {}        # id(block) -> block.maxima()
        for pid, name in enumerate(self._phase_names):
            virtual = self._virtual.get(pid)
            if virtual is not None:
                block, row = virtual
                if id(block) not in maxima:
                    maxima[id(block)] = block.maxima()
                top = maxima[id(block)][row]
                if top is not None:
                    phase_max[name] = Cost(*top)
                continue
            if self._touched_all[pid]:
                # Every rank saw this phase: max over the whole plane, no
                # boolean-mask copy.
                vals = self._planes[pid]
            else:
                touched = self._touched[pid]
                if not touched.any():
                    continue
                vals = self._planes[pid][:, touched]
            phase_max[name] = Cost(float(vals[0].max()),
                                   float(vals[1].max()),
                                   float(vals[2].max()))
        return CostReport(
            num_ranks=n,
            max_cost=max_cost,
            mean_cost=mean,
            total_cost=total,
            critical_path_time=float(clock.max()),
            phase_max=phase_max,
        )

    def reset(self) -> None:
        """Zero every ledger and clock, and clear the trace sink.

        Phase interning survives (ids stay stable across reuse); all
        accumulated costs, clocks, touched masks -- and any recorded trace
        events -- are discarded, so a reused machine starts, like a fresh
        one, as one class of zeros.
        """
        self._zero()
        if self._sink is not None:
            self._sink.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return f"VirtualMachine(num_ranks={self.num_ranks}, machine={self.machine.name!r})"
