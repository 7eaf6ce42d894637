"""The lattice planner: search a whole problem campaign in one batched pass.

The paper's interesting queries are *lattices*, not points -- crossover
studies, sweeps, and serve traffic ask the planner hundreds of closely
related ``(m, n, P, machine)`` questions.  :func:`search_lattice` answers
them all at once by amortizing everything the points share.  It is the
planner's only search: ``Planner.plan_many`` runs it over a lattice and
``Planner.plan`` is the one-point case.  It is the planner's own
semi-infinite-programming idiom (a cheap relaxation ranks, an exact
symbolic run audits the winner) lifted one level up:

- **Stage 0: bulk cache probe.**  All fingerprints are probed against
  the plan cache in one directory pass
  (:meth:`AtomicDiskCache.load_many`), and in-batch duplicate problems
  are computed once (stage 5 copies their answers).

- **Stage 1: cross-problem screening.**  Candidates are enumerated
  once per distinct machine-free shape tuple ``(m, n, P, mode, block
  sizes, depths, algorithms)``; each solver's ``(messages, words,
  flops)`` count block is evaluated once per distinct shape tuple and
  machine (keyed by the machine's field values, so a count that reads
  the machine is never shared across machines); and every distinct
  (candidates, machine) pair is priced in **one**
  :func:`~repro.costmodel.batch.priced_seconds_segments` call over the
  stacked ``(3, sum N)`` count array with segment-broadcast
  alpha/beta/gamma.  Re-planning the same shapes on M machines reuses
  one enumeration M-fold.

- **Stage 2: ranking.**  Each point ranks its screened candidates and
  marks budget and Pareto flags once, from screened values only
  (:meth:`Planner._rank <repro.plan.planner.Planner._rank>`).

- **Stage 3: deduplicated audit.**  The top ``top_k`` symbolically
  executable plans of *all* points are deduplicated by prepared spec
  and machine: each distinct one is answered by exactly one plain
  symbolic run through the engine's own pipeline
  (:func:`repro.engine.runner._execute`), so a plan repeated across
  points and objectives costs one run.  The run only attaches
  ``refined_seconds``; stage 4 assembles and caches the results in the
  order stage 2 ranked them.

Per-point infeasibility (``CapabilityError``) stays per-point: the
failing lattice point carries its exception without poisoning its
neighbors (``Planner.plan_many(errors="return")``).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.batch import priced_seconds_segments
from repro.engine.registry import CapabilityError, solver_for
from repro.engine.spec import MatrixSpec, RunSpec, field_values, fingerprint
from repro.obs import span
from repro.plan.planner import Plan, PlanResult
from repro.plan.problem import (
    ProblemSpec,
    machine_from_json,
    objective_from_json,
    problem_from_dict,
)
from repro.plan.screen import enumerate_candidates
from repro.utils.validation import ValidationError, check_positive_int


@dataclass
class LatticeStats:
    """What one :func:`search_lattice` call shared, skipped, and computed."""

    points: int = 0
    #: Points answered by the bulk plan-cache probe / by an in-batch
    #: duplicate's result / by a fresh search / by a per-point error.
    cache_hits: int = 0
    batch_duplicates: int = 0
    computed: int = 0
    errors: int = 0
    #: Screening amortization: distinct enumerations, count blocks, and
    #: price segments versus the per-point totals they answered.
    enum_groups: int = 0
    count_blocks: int = 0
    counted_lanes: int = 0
    price_segments: int = 0
    priced_lanes: int = 0
    screened_candidates: int = 0
    #: Audit amortization: audited plans versus the distinct symbolic
    #: runs that answered them.
    refine_jobs: int = 0
    refine_runs: int = 0
    #: Wall-clock of the two batched stages.
    screen_seconds: float = 0.0
    refine_seconds: float = 0.0

    @property
    def screen_reuse(self) -> float:
        """Candidate lanes answered per lane actually priced (>= 1)."""
        return self.screened_candidates / max(1, self.priced_lanes)

    @property
    def refine_dedup(self) -> float:
        """Refine jobs answered per symbolic run (>= 1)."""
        return self.refine_jobs / max(1, self.refine_runs)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["screen_reuse"] = self.screen_reuse
        out["refine_dedup"] = self.refine_dedup
        return out


def _axis(spec: Mapping, name: str) -> Optional[list]:
    """An axis field as a list of values (``None`` when absent)."""
    if name not in spec:
        return None
    value = spec[name]
    values = list(value) if isinstance(value, (list, tuple)) else [value]
    if not values:
        raise ValidationError("a lattice axis cannot be empty", field=name)
    return values


def lattice_problems(spec: Mapping) -> List[ProblemSpec]:
    """Expand a lattice request into its problem list, in product order.

    ``m``, ``n``, ``procs``, ``machine``, and ``objective`` may each be a
    scalar *or* a list (axes multiply out left to right in that order);
    ``aspects`` is accepted in place of ``m`` as a list of ``m/n`` ratios
    (the crossover-study spelling).  Every other field follows the
    :func:`~repro.plan.problem.problem_from_dict` schema and is shared by
    every point.
    """
    if not isinstance(spec, Mapping):
        raise ValidationError(
            f"a lattice request must be a JSON object, got "
            f"{type(spec).__name__}")
    body = dict(spec)
    aspects = _axis(body, "aspects")
    body.pop("aspects", None)
    if aspects is not None:
        if "m" in body:
            raise ValidationError(
                "pass either m or aspects (m = n * aspect), not both",
                field="aspects")
        for aspect in aspects:
            if isinstance(aspect, bool) or not isinstance(aspect, int):
                raise ValidationError(
                    f"aspects must be integers, got {aspect!r}",
                    field="aspects")
            check_positive_int(aspect, "aspect")
    axes = {name: _axis(body, name)
            for name in ("m", "n", "procs", "machine", "objective")}
    for name in axes:
        body.pop(name, None)
    for machine in axes["machine"] or ():
        machine_from_json(machine)
    for objective in axes["objective"] or ():
        objective_from_json(objective)

    problems = []
    for aspect in (aspects if aspects is not None else [None]):
        for m in axes["m"] or [None]:
            for n in axes["n"] or [None]:
                for procs in axes["procs"] or [None]:
                    for machine in axes["machine"] or [None]:
                        for objective in axes["objective"] or [None]:
                            point = dict(body)
                            if n is not None:
                                point["n"] = n
                            if aspect is not None:
                                if n is None:
                                    raise ValidationError(
                                        "aspects needs n (m = n * aspect)",
                                        field="aspects")
                                point["m"] = n * aspect
                            elif m is not None:
                                point["m"] = m
                            if procs is not None:
                                point["procs"] = procs
                            if machine is not None:
                                point["machine"] = machine
                            if objective is not None:
                                point["objective"] = objective
                            problems.append(problem_from_dict(point))
    return problems


# -- the batched search -----------------------------------------------------------


@dataclass
class _PointView:
    """One to-be-computed lattice point's slice of the shared stages."""

    problem: ProblemSpec
    fingerprint: Optional[str]
    enum_key: tuple = ()
    price_key: tuple = ()
    plans: List[Plan] = field(default_factory=list)
    ranked_symbolic: List[bool] = field(default_factory=list)
    num_candidates: int = 0
    #: Ranked indices of the plans the audit runs.
    audited: List[int] = field(default_factory=list)
    #: Audit run keys, one per audited plan.
    runs: List[str] = field(default_factory=list)


def _enum_key(planner, problem: ProblemSpec) -> tuple:
    """The machine-free enumeration identity of one problem.

    Candidate *identity* depends only on these fields (the candidate set
    is machine-free by the registry contract; counts may read the
    machine and are keyed by it separately).
    """
    return (problem.m, problem.n, problem.procs, problem.mode,
            problem.effective_block_sizes(), problem.inverse_depths,
            planner._searched(problem))


def search_lattice(planner, problems: Sequence[ProblemSpec],
                   ) -> Tuple[list, LatticeStats]:
    """Plan every problem in one batched pass; see the module docstring.

    Returns ``(results, stats)`` where ``results[i]`` is the point's
    :class:`~repro.plan.planner.PlanResult` or the exception planning it
    raised (error policy and the root span are the caller's --
    :meth:`Planner.plan` / :meth:`Planner.plan_many` -- concern).
    """
    stats = LatticeStats(points=len(problems))
    results: list = [None] * len(problems)
    if not problems:
        return results, stats

    # -- stage 0: fingerprints, bulk cache probe, in-batch dedup ------------------
    fingerprints: List[Optional[str]] = [None] * len(problems)
    for i, problem in enumerate(problems):
        try:
            fingerprints[i] = planner.fingerprint(problem)
        except Exception as exc:        # noqa: BLE001 - per-point isolation
            results[i] = exc
            stats.errors += 1
    with span("plan_many.cache",
              enabled=planner.cache is not None) as cache_span:
        if planner.cache is not None:
            hits = planner.cache.load_many(
                [fp for fp in fingerprints if fp is not None])
            for i, fp in enumerate(fingerprints):
                if results[i] is None and fp in hits:
                    # A private shallow copy per point: each point owns
                    # its result, as if unpickled for it alone.
                    results[i] = dataclasses.replace(hits[fp],
                                                     from_cache=True)
                    stats.cache_hits += 1
        cache_span.set(hits=stats.cache_hits)
    first_of: Dict[str, int] = {}
    followers: Dict[int, List[int]] = {}
    views: Dict[int, _PointView] = {}
    for i, problem in enumerate(problems):
        if results[i] is not None:
            continue
        fp = fingerprints[i]
        if fp in first_of:
            followers.setdefault(first_of[fp], []).append(i)
            stats.batch_duplicates += 1
            continue
        first_of[fp] = i
        views[i] = _PointView(problem=problem, fingerprint=fp)

    screen_start = time.perf_counter()

    # -- stage 1: shared enumeration, count blocks, one segment-priced screen -----
    enum_groups: Dict[tuple, list] = {}
    enum_candidates: Dict[tuple, list] = {}
    enum_memory: Dict[tuple, np.ndarray] = {}
    price_jobs: Dict[tuple, np.ndarray] = {}
    for i in list(views):
        view = views[i]
        problem = view.problem
        try:
            ekey = _enum_key(planner, problem)
            if ekey not in enum_groups:
                enum_groups[ekey] = enumerate_candidates(problem)
            groups = enum_groups[ekey]
            if not groups:
                # The planner's infeasibility contract, point-local.
                raise CapabilityError(
                    f"no feasible configuration of any searched algorithm "
                    f"for {problem.m} x {problem.n} at P={problem.procs} "
                    f"(mode={problem.mode})")
            machine = problem.machine_spec()
            params = machine.cost_params()
            # Counts may read the machine (PGEQRF's flops divide by its
            # qr_kernel_efficiency), so only points on an identical
            # machine share them.
            pkey = (ekey, field_values(machine),
                    (params.alpha, params.beta, params.gamma))
            if pkey not in price_jobs:
                blocks = []
                for solver, cands in groups:
                    block = np.asarray(
                        solver.screen_costs(problem.m, problem.n, machine,
                                            cands),
                        dtype=np.float64)
                    if block.shape != (3, len(cands)):
                        raise ValueError(
                            f"{solver.name}.screen_costs returned shape "
                            f"{block.shape} for {len(cands)} candidates "
                            f"(want (3, {len(cands)}))")
                    blocks.append(block)
                price_jobs[pkey] = np.concatenate(blocks, axis=1)
                stats.count_blocks += len(blocks)
            if ekey not in enum_candidates:
                candidates = [c for _, cands in groups for c in cands]
                enum_candidates[ekey] = candidates
                enum_memory[ekey] = np.array(
                    [c.memory_words for c in candidates], dtype=np.float64)
            view.enum_key = ekey
            view.price_key = pkey
            view.num_candidates = len(enum_candidates[ekey])
            stats.screened_candidates += view.num_candidates
        except Exception as exc:        # noqa: BLE001 - per-point isolation
            results[i] = exc
            stats.errors += 1
            del views[i]
    stats.enum_groups = len(enum_groups)
    stats.counted_lanes = sum(b.shape[1] for b in price_jobs.values())
    stats.price_segments = len(price_jobs)

    priced: Dict[tuple, np.ndarray] = {}
    with span("plan_many.screen", segments=len(price_jobs),
              enum_groups=len(enum_groups),
              candidates=stats.screened_candidates) as screen_span:
        if price_jobs:
            keys = list(price_jobs)
            lengths = np.array([price_jobs[k].shape[1] for k in keys],
                               dtype=np.int64)
            stacked = np.concatenate([price_jobs[k] for k in keys], axis=1)
            rates = np.array([k[2] for k in keys], dtype=np.float64).T
            # A machine slow enough to overflow a lane fails its points
            # in stage 2, not here, and not with a warning.
            with np.errstate(over="ignore", invalid="ignore"):
                seconds = priced_seconds_segments(stacked, rates, lengths)
            for k, chunk in zip(keys,
                                np.split(seconds, np.cumsum(lengths)[:-1])):
                priced[k] = chunk
            stats.priced_lanes = int(lengths.sum())
        screen_span.set(lanes=stats.priced_lanes)

    # -- stage 2: per-point ranking, flags and plan building ----------------------
    for i in list(views):
        view = views[i]
        problem = view.problem
        candidates = enum_candidates[view.enum_key]
        costs = price_jobs[view.price_key]
        seconds = priced[view.price_key]
        memory = enum_memory[view.enum_key]
        try:
            if not np.isfinite(seconds).all():
                raise ValidationError(
                    f"the machine prices this problem at a non-finite "
                    f"modeled time (alpha, beta, gamma = "
                    f"{view.price_key[2]}); no plan can be ranked",
                    field="machine")
            order, within, pareto = planner._rank(problem, seconds, memory,
                                                  costs[0])
            columns = zip(seconds.tolist(), *costs.tolist(), memory.tolist(),
                          within.tolist(), pareto.tolist())
            plans = [Plan.screened(cand.algorithm, cand.config,
                                   dict(cand.spec_fields), t, msgs, words,
                                   flops, mem, front, ok)
                     for cand, (t, msgs, words, flops, mem, ok, front)
                     in zip(candidates, columns)]
            view.plans = [plans[k] for k in order]
            view.ranked_symbolic = [candidates[k].symbolic_ok for k in order]
        except Exception as exc:        # noqa: BLE001 - per-point isolation
            results[i] = exc
            stats.errors += 1
            del views[i]
    stats.screen_seconds = time.perf_counter() - screen_start

    # -- stage 3: audit, one symbolic run per distinct top plan -------------------
    refine_start = time.perf_counter()
    with span("plan_many.refine", mode=planner.refine) as refine_span:
        if planner.refine is not None and views:
            _audit_lattice(views, results, stats)
        refine_span.set(survivors=stats.refine_jobs, runs=stats.refine_runs)
    stats.refine_seconds = time.perf_counter() - refine_start

    # -- stage 4: assemble, cache -------------------------------------------------
    screen_share = stats.screen_seconds / max(1, len(views))
    refine_share = stats.refine_seconds / max(1, len(views))
    for i in list(views):
        view = views[i]
        try:
            result = PlanResult(problem=view.problem, plans=view.plans,
                                num_candidates=view.num_candidates,
                                screen_seconds=screen_share,
                                refine_seconds=refine_share,
                                refined_count=len(view.audited),
                                refine_mode=planner.refine)
            results[i] = result
            if planner.cache is not None:
                planner.cache.store(view.fingerprint, result)
        except Exception as exc:        # noqa: BLE001 - per-point isolation
            results[i] = exc
            stats.errors += 1
            del views[i]
    stats.computed = len(views)

    # -- stage 5: in-batch duplicates follow their first occurrence ---------------
    for leader, follower_ids in followers.items():
        outcome = results[leader]
        for i in follower_ids:
            if isinstance(outcome, Exception):
                results[i] = outcome
            else:
                # The loop's second identical call would hit the cache
                # (from_cache=True) when one is configured, and recompute
                # an equal result (from_cache=False) when not.
                results[i] = dataclasses.replace(
                    outcome, from_cache=planner.cache is not None)
    return results, stats


def _audit_lattice(views: Dict[int, _PointView], results: list,
                   stats: LatticeStats) -> None:
    """Audit every point's top plans with one plain symbolic run each.

    The audited plans are the top ``top_k`` symbolically executable
    plans in ranking order: numeric-only baselines ranked above them do
    not use up the budget.  An audited plan is identified by its prepared spec's
    fingerprint, machine included, so a plan repeated across points and
    objectives shares one run through the engine's own pipeline.  The
    run only attaches ``refined_seconds``; the ranking, the flags and
    the screened counts stay as stage 2 left them.  A point whose
    audited plan fails to prepare ends as an error and contributes no
    runs.
    """
    from repro.engine.runner import _execute

    runs: Dict[str, RunSpec] = {}           # run key -> prepared spec
    for i in list(views):
        view = views[i]
        problem = view.problem
        matrix = MatrixSpec(problem.m, problem.n)
        audited = [k for k, ok in enumerate(view.ranked_symbolic)
                   if ok][:problem.top_k]
        try:
            prepared = []
            for k in audited:
                solver = solver_for(view.plans[k].algorithm)
                spec = solver.prepare(view.plans[k].to_run_spec(
                    matrix=matrix, mode="symbolic", machine=problem.machine))
                prepared.append((fingerprint(spec, solver.name), spec))
        except Exception as exc:        # noqa: BLE001 - per-point isolation
            results[i] = exc
            stats.errors += 1
            del views[i]
            continue
        view.audited = audited
        view.runs = [key for key, _ in prepared]
        for key, spec in prepared:
            runs.setdefault(key, spec)
    stats.refine_jobs = sum(len(view.runs) for view in views.values())
    stats.refine_runs = len(runs)

    seconds = {key: float(_execute(spec, trace=False)[0]
                          .report.critical_path_time)
               for key, spec in runs.items()}
    for view in views.values():
        for k, key in zip(view.audited, view.runs):
            view.plans[k] = dataclasses.replace(
                view.plans[k], refined_seconds=seconds[key])
