"""The planner: screen the whole configuration space, audit the winner.

:class:`Planner` answers "given ``(m, n, P, machine)``, what should I
run?" in three stages:

1. **Enumerate** every feasible configuration of every registered
   algorithm -- grid shapes, inverse depths, panel widths -- via the
   registry's planning hooks (:mod:`repro.plan.screen`).
2. **Screen and rank** all of them with the vectorized analytic cost
   model in one batched numpy evaluation (the semi-infinite-programming
   idiom: a cheap relaxation prunes a large constrained candidate
   space).  Ranking, budget flags and Pareto marks read only screened
   values: the CholeskyQR family's screen equals the virtual machine's
   charges line for line (``tests/test_screen_agreement.py``), so a run
   could not reorder it, and the baselines are never run.
3. **Audit** the top ``top_k`` symbolically executable plans: each
   distinct one is one plain symbolic run through the engine's own
   pipeline, whose simulated critical path is attached as
   ``refined_seconds`` (``refine="symbolic"``; ``refine=None`` skips
   the audit).  The audit never changes the ranking or any flag.

One search implements all three: :func:`repro.plan.lattice.search_lattice`
answers a whole problem lattice (:meth:`Planner.plan_many`), and
:meth:`Planner.plan` is its one-point case.

The result is a ranked :class:`Plan` list with the Pareto frontier over
``(time, memory, messages)`` marked -- the planner reports the trade
surface, not just a single winner, because the paper's own story is that
the right point depends on what you can afford (§III-B: replication buys
bandwidth with memory and synchronization).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.registry import solver_for
from repro.engine.spec import MatrixSpec, RunSpec
from repro.obs import get_registry, span
from repro.plan.cache import PlanCache
from repro.plan.objective import METRICS, Objective
from repro.plan.problem import ProblemSpec, problem_fingerprint
from repro.utils.validation import require

#: Audit modes: an exact symbolic-VM run of the top plans, or none.
REFINE_MODES = ("symbolic", None)


@dataclass(frozen=True)
class Plan:
    """One ranked configuration: what to run and what it is modeled to cost."""

    algorithm: str
    config: str
    #: RunSpec overrides that execute this plan (see :meth:`to_run_spec`).
    spec_fields: Dict[str, int] = field(hash=False)
    #: Screened (batched-analytic) modeled seconds.
    modeled_seconds: float = float("nan")
    #: The symbolic audit's critical-path seconds; ``None`` when the
    #: plan was not audited.  Never read by ranking or flags.
    refined_seconds: Optional[float] = None
    #: Per-process analytic cost triple from the screen.
    messages: float = float("nan")
    words: float = float("nan")
    flops: float = float("nan")
    #: Modeled per-process peak memory (words).
    memory_words: float = float("nan")
    #: Whether this plan sits on the (time, memory, messages) Pareto frontier.
    pareto: bool = False
    #: Whether this plan satisfies every budget constraint of the
    #: problem's objective (always True for unconstrained objectives).
    within_budget: bool = True

    @property
    def seconds(self) -> float:
        """The audited time when available, the screened time otherwise."""
        return (self.refined_seconds if self.refined_seconds is not None
                else self.modeled_seconds)

    @property
    def refined(self) -> bool:
        return self.refined_seconds is not None

    def to_run_spec(self, *, matrix: Optional[MatrixSpec] = None,
                    data=None, mode: str = "numeric",
                    machine="abstract") -> RunSpec:
        """A concrete engine spec executing this plan.

        Pass the matrix (or data) and machine the run should use; the
        plan pins the algorithm and every grid/variant parameter.
        """
        return RunSpec(algorithm=self.algorithm, matrix=matrix, data=data,
                       machine=machine, mode=mode, **self.spec_fields)

    def apply_to(self, spec: RunSpec) -> RunSpec:
        """*spec* with this plan's algorithm and configuration pinned."""
        cleared = {f: None for f in ("c", "d", "pr", "pc", "block_size",
                                     "base_case_size", "procs")}
        cleared.update(self.spec_fields)
        return spec.replace(algorithm=self.algorithm, grid=None, **cleared)

    def to_dict(self) -> dict:
        """JSON-able form (the ``repro plan --json`` schema).

        The schema is every field in declaration order, then ``seconds``
        and ``refined``.  The dict is a shallow copy: ``spec_fields`` is
        copied and every other value is immutable, so mutating the dict
        never touches the plan.
        """
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["spec_fields"] = dict(self.spec_fields)
        out["seconds"] = self.seconds
        out["refined"] = self.refined
        return out


@dataclass
class PlanResult:
    """Everything one planning run produced, ranked by the objective."""

    problem: ProblemSpec
    #: Every screened candidate as a plan, best-first under the objective.
    plans: List[Plan]
    num_candidates: int
    #: Wall-clock spent in the batched screen / the exact refinement.
    screen_seconds: float = 0.0
    refine_seconds: float = 0.0
    #: How many top plans carry a symbolic audit, and its mode.
    refined_count: int = 0
    refine_mode: Optional[str] = None
    #: Whether this result was served from the on-disk plan cache.
    from_cache: bool = False

    def best(self) -> Plan:
        """The top-ranked plan under the problem's objective."""
        return self.plans[0]

    def pareto_frontier(self) -> List[Plan]:
        """The non-dominated plans over (time, memory, messages)."""
        return [p for p in self.plans if p.pareto]

    def to_dict(self) -> dict:
        """JSON-able form (the ``repro plan --json`` schema).

        The problem block is the :class:`ProblemSpec` fields in
        declaration order, with the machine resolved to its field dict
        and an :class:`~repro.plan.objective.Objective` as its
        ``weights``/``budgets`` dict.  Each plan is :meth:`Plan.to_dict`:
        its fields in declaration order plus ``seconds`` and
        ``refined``.  Every dict is a fresh shallow copy, so mutating it
        never touches this result or its plans.
        """
        problem = {f.name: getattr(self.problem, f.name)
                   for f in dataclasses.fields(self.problem)}
        problem["machine"] = self.problem.machine_spec().to_dict()
        if isinstance(self.problem.objective, Objective):
            problem["objective"] = self.problem.objective.to_dict()
        return {
            "problem": problem,
            "plans": [p.to_dict() for p in self.plans],
            "num_candidates": self.num_candidates,
            "screen_seconds": self.screen_seconds,
            "refine_seconds": self.refine_seconds,
            "refined_count": self.refined_count,
            "refine_mode": self.refine_mode,
            "from_cache": self.from_cache,
        }


def pareto_mask(points: np.ndarray) -> np.ndarray:
    """Boolean frontier mask for an ``(N, k)`` array of minimized objectives.

    A point is dominated when another point is no worse in every
    coordinate and strictly better in at least one.  Vectorized over the
    *unique* rows: a distinct row ``u`` is dominated exactly when some
    other row is ``<=`` it coordinate-wise (distinct + ``<=`` everywhere
    implies ``<`` somewhere), so one all-pairs comparison matrix answers
    every row at once -- bit-identical to the old O(N^2) Python sweep,
    including its duplicate handling (equal rows never dominate each
    other; both stay) and NaN handling (incomparable, never dominated).
    """
    n = len(points)
    if n == 0:
        return np.ones(0, dtype=bool)
    uniq, inverse = np.unique(points, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).reshape(-1)
    le = np.all(uniq[:, None, :] <= uniq[None, :, :], axis=2)
    # le[i, i] counts itself (except NaN rows, where <= is False and the
    # row is trivially non-dominated): dominated iff anyone else is <=.
    dominated = le.sum(axis=0) > 1
    return ~dominated[inverse]


class Planner:
    """Model-driven configuration search over the whole algorithm registry.

    :meth:`plan_many` runs the one lattice search
    (:func:`repro.plan.lattice.search_lattice`); :meth:`plan` is its
    one-point case, so the two agree plan for plan by construction.

    Planning spans (a ``plan`` or ``plan_many`` root over the
    ``plan_many.cache`` / ``plan_many.screen`` / ``plan_many.refine``
    stages, with candidate and survivor counts) go to the ambient
    observer of the calling context (:func:`repro.obs.use_observer`) --
    how the serve layer's per-request spans parent planner work -- and
    cost nothing when none is attached.  Observation never changes a
    plan: results are bit-identical with or without it.

    Parameters
    ----------
    refine:
        ``"symbolic"`` (default) audits the problem's top ``top_k``
        symbolically executable plans with one vectorized
        virtual-machine run each, attaching their exact simulated
        critical paths; ``None`` returns the screen alone.  Either way
        the ranking and every flag are the screen's.
    cache_dir:
        Directory for the fingerprint-keyed on-disk plan cache (same
        idiom as the engine's result cache).  ``None`` disables caching.
    """

    def __init__(self, refine: Optional[str] = "symbolic",
                 cache_dir: Optional[str] = None):
        require(refine in REFINE_MODES,
                f"refine must be one of {REFINE_MODES}, got {refine!r}")
        self.refine = refine
        self.cache = PlanCache(cache_dir) if cache_dir else None
        #: :class:`~repro.plan.lattice.LatticeStats` of the most recent
        #: :meth:`plan_many` call (``None`` before the first).
        self.last_lattice_stats = None

    # -- public API ---------------------------------------------------------------

    def plan(self, problem: ProblemSpec) -> PlanResult:
        """Search the full configuration space of *problem*; rank the plans.

        The one-point case of :meth:`plan_many`, under a ``plan`` root
        span.  It publishes no lattice statistics: a serving planner
        answers ``plan`` and ``plan_many`` calls from several threads,
        and a single plan must not overwrite a batch's accounting.
        """
        from repro.plan.lattice import search_lattice

        with span("plan", m=problem.m, n=problem.n, procs=problem.procs,
                  machine=str(problem.machine)) as root:
            [result], _ = search_lattice(self, [problem])
            if isinstance(result, Exception):
                raise result
            if result.from_cache:
                root.set(from_cache=True)
            else:
                root.set(from_cache=False, candidates=result.num_candidates,
                         refined=result.refined_count)
            return result

    def plan_many(self, problems: Sequence[ProblemSpec],
                  *, errors: str = "raise") -> List[PlanResult]:
        """Plan a whole problem lattice in one batched search.

        Plan-for-plan equal to ``[self.plan(p) for p in problems]`` (``plan``
        is the one-point case) but amortized: one enumeration and count
        evaluation per distinct shape (shared across machines), one
        segment-priced screen, audited plans deduplicated by prepared
        spec and machine and run once, one bulk plan-cache probe.
        ``errors="raise"`` re-raises the first per-point failure (matching
        the loop); ``errors="return"`` leaves the exception object in that
        point's result slot so infeasible points do not poison their
        neighbors.  Per-call statistics land on :attr:`last_lattice_stats`.
        """
        from repro.plan.lattice import search_lattice

        require(errors in ("raise", "return"),
                f"errors must be 'raise' or 'return', got {errors!r}")
        problems = list(problems)
        with span("plan_many", points=len(problems)) as root:
            results, stats = search_lattice(self, problems)
            root.set(cache_hits=stats.cache_hits, computed=stats.computed,
                     errors=stats.errors,
                     batch_duplicates=stats.batch_duplicates)
        self.last_lattice_stats = stats
        self._register_lattice_stats(stats)
        if errors == "raise":
            for res in results:
                if isinstance(res, Exception):
                    raise res
        return results

    @staticmethod
    def _register_lattice_stats(stats) -> None:
        """Publish one lattice search's amortization into the registry."""
        registry = get_registry()
        for name in ("points", "cache_hits", "batch_duplicates", "computed",
                     "errors", "screened_candidates", "refine_jobs",
                     "refine_runs"):
            value = getattr(stats, name)
            if value:
                registry.counter(f"lattice.{name}").inc(value)
        registry.gauge("lattice.screen_reuse").set(stats.screen_reuse)
        registry.gauge("lattice.refine_dedup").set(stats.refine_dedup)

    def fingerprint(self, problem: ProblemSpec) -> str:
        """The plan-cache key of *problem* under this planner's settings."""
        return problem_fingerprint(problem, refine=self.refine,
                                   algorithms=self._searched(problem))

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _searched(problem: ProblemSpec) -> Tuple[str, ...]:
        from repro.engine.registry import available_algorithms

        if problem.algorithms is None:
            return tuple(available_algorithms())
        return tuple(solver_for(name).name for name in problem.algorithms)

    @staticmethod
    def _rank(problem: ProblemSpec, seconds: np.ndarray, memory: np.ndarray,
              messages: np.ndarray
              ) -> Tuple[List[int], np.ndarray, np.ndarray]:
        """Rank screened candidates: ``(order, within_budget, pareto)``.

        *seconds*, *memory* and *messages* are the screened per-candidate
        values, in enumeration order.  Candidates rank by the scalarized
        score (:meth:`~repro.plan.objective.Objective.scores`), ties by
        the primary metric and then the other two in :data:`METRICS`
        order, so an objective-tied pair ranks its Pareto-dominant
        member first (c=1 CA-CQR2 and 1D-CQR2 are cost-identical by
        construction but differ in footprint); remaining ties keep
        enumeration order.  Budget constraints rank every within-budget
        plan before every violator, violators ordered by how badly they
        miss.  A single-metric score divides the metric by its positive
        minimum, which keeps its order.  The two masks are per
        candidate, in enumeration order.
        """
        objective = problem.objective_spec()
        scores = objective.scores(seconds, memory, messages)
        within = objective.within(seconds, memory, messages)
        violation = objective.violation(seconds, memory, messages)
        metrics = {"time": seconds, "memory": memory, "messages": messages}
        primary = objective.primary_metric
        ties = [metrics[m].tolist()
                for m in (primary, *(m for m in METRICS if m != primary))]
        keys = list(zip((~within).tolist(), violation.tolist(),
                        scores.tolist(), *ties))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        pareto = pareto_mask(np.column_stack([seconds, memory, messages]))
        return order, within, pareto
