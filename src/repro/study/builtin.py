"""Generic engine-backed studies and the JSON spec-file loader.

:func:`executed_sweep_study` is the campaign every *executed* sweep in
the repository reduces to: an (algorithm x processor-count) grid over
one reproducible matrix, run through the engine's parallel cached batch
runner, measuring simulated critical-path seconds, accuracy, the
per-rank communication maxima, and the configuration each point ran.
``repro study -m M -n N -P 4,8,16 --execute`` runs it from the command
line (``--algorithms auto`` executes the planner's best configuration
per point, ``--symbolic`` runs cost-only); without ``--execute`` the
same flags run a planner study with one algorithm per point.

:func:`study_from_dict` builds a study from a plain dict (the schema the
``repro study --spec file.json`` CLI subcommand reads), dispatching on
``kind``:

* ``"executed"`` -- :func:`executed_sweep_study`; ``"mode": "symbolic"``
  runs cost-only, which the vectorized virtual machine makes tractable
  at ``P = 2**16`` and beyond;
* ``"accuracy"`` -- the stability ladder
  (:func:`repro.experiments.accuracy.accuracy_study`);
* ``"planner"`` (also spelled ``"planner-crossover"``) -- the
  model-driven generalization of the paper's crossover experiment: the
  planner's best plan, its margin over the best 2D plan and the number
  of screened candidates at every point of a problem grid, planned in
  one batched search.  Its schema is a ``/plan`` request
  (:func:`~repro.plan.problem.problem_from_dict`) in which ``m``,
  ``n``, ``procs``, ``machine``, ``objective`` and ``algorithms`` may
  each be an axis of the grid; ``aspects``, a list of ``m / n`` ratios,
  may replace ``m``::

      {"kind": "planner", "aspects": [4, 16], "n": 64, "procs": [16, 64],
       "machine": ["stampede2", "blue-waters"], "mode": "symbolic"}

  An ``algorithms`` axis is a list of lists, one restriction per point:
  the paper's crossover (:mod:`repro.experiments.crossover`) and the
  algorithm comparison (:mod:`repro.experiments.sweeps`) are such specs.

``machine`` may be a preset name or an inline machine-description object
(the :meth:`~repro.costmodel.params.MachineSpec.from_dict` schema), so
spec files can target machines beyond the two paper presets.  An
unknown, missing or malformed field is a field-labelled
:class:`~repro.utils.validation.ValidationError`.
"""

from __future__ import annotations

from numbers import Real
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.engine import (CapabilityError, MatrixSpec, RunSpec, solver_for,
                          solvers)
from repro.engine.spec import MODES
from repro.plan import Planner, PlanResult, ProblemSpec
from repro.plan.problem import (
    int_field,
    list_field,
    machine_from_json,
    objective_from_json,
    problem_from_dict,
)
from repro.study.axes import Axis, expand
from repro.study.metrics import (
    CriticalPathSeconds,
    Flops,
    Messages,
    Orthogonality,
    RawField,
    Residual,
    RunConfig,
    SolverLabel,
    Words,
)
from repro.study.study import Study
from repro.utils.validation import (
    ValidationError,
    check_positive_int,
    require,
    validated,
)


def default_executed_algorithms() -> Tuple[str, ...]:
    """Registry algorithms with distinct *executed* paths.

    Solvers sharing an executed path (CAQR runs the TSQR-panel ScaLAPACK
    machinery) would produce duplicate rows in an executed sweep, so
    each path appears once.
    """
    names = []
    seen = set()
    for solver in solvers():
        path = type(solver).execute
        if path in seen:
            continue
        seen.add(path)
        names.append(solver.name)
    return tuple(names)


def executed_sweep_study(m: int, n: int, proc_counts: Sequence[int],
                         algorithms: Optional[Sequence[str]] = None,
                         machine: str = "abstract", seed: int = 0,
                         block_size: Optional[int] = None,
                         mode: str = "numeric", kind: str = "gaussian",
                         condition: Optional[float] = None,
                         name: Optional[str] = None) -> Study:
    """An (algorithm x procs) campaign executed through the engine.

    Points whose algorithm is structurally infeasible at a scale (TSQR
    needs ``m/P >= n``, CA needs a feasible grid, ...) are recorded as
    infeasible rows rather than raising -- the campaign covers the full
    grid either way.  Aliases name their solver (``pgeqrf`` is
    ``scalapack``); ``"auto"`` points ask the planner for the best
    configuration, and the ``label`` / ``config`` columns show what each
    point ran.
    """
    if block_size is not None:
        check_positive_int(block_size, "block_size")
    if algorithms is None:
        algorithms = default_executed_algorithms()
    algorithms = tuple(name if name == "auto" else solver_for(name).name
                       for name in algorithms)
    matrix = MatrixSpec(m, n, kind=kind, condition=condition, seed=seed)

    def build_spec(point: Dict[str, object]) -> RunSpec:
        return RunSpec(algorithm=point["algorithm"], matrix=matrix,
                       procs=point["procs"], machine=machine,
                       block_size=block_size, mode=mode)

    return Study(
        name=name or f"executed-sweep-{m}x{n}-{mode}",
        description=f"{m} x {n} {kind} matrix on {machine}, engine-executed",
        axes=(Axis("algorithm", algorithms),
              Axis("procs", tuple(proc_counts))),
        metrics=(SolverLabel(), CriticalPathSeconds(), Orthogonality(),
                 Residual(), Messages(), Words(), Flops(), RunConfig()),
        spec=build_spec,
        params={"m": m, "n": n, "machine": str(machine), "seed": seed,
                "block_size": block_size, "mode": mode, "kind": kind,
                "condition": condition})


def _planned_evaluate(axes: Sequence[Axis],
                      problem: Callable[[Dict[str, object]], ProblemSpec],
                      ) -> Callable[[Dict[str, object]], Optional[dict]]:
    """A planner study's evaluator, answered by one lazy screen-only search.

    Every grid point's ``problem(point)`` is built here, so a malformed
    point fails when the study is built, before anything is planned.
    Evaluate-based studies run serially in-process, so the first
    evaluated point plans the whole grid in one
    ``Planner(refine=None).plan_many``: candidate enumeration is shared
    across points and the stacked screen prices every (candidate, point)
    pair in a single vectorized pass, bit-identical to planning each
    point separately.  Structurally infeasible points
    (:exc:`CapabilityError`) are ``None`` rows without poisoning their
    neighbors; every other point's row is its winner and the winner's
    margin over the best 2D plan.
    """
    points = [pt.values for pt in expand(axes)]
    problems = [problem(p) for p in points]
    outcomes: Dict[tuple, Union[PlanResult, Exception]] = {}

    def evaluate(point: Dict[str, object]) -> Optional[dict]:
        if not outcomes:
            results = Planner(refine=None).plan_many(problems,
                                                     errors="return")
            outcomes.update((tuple(p.values()), result)
                            for p, result in zip(points, results))
        result = outcomes[tuple(point.values())]
        if isinstance(result, CapabilityError):
            return None
        if isinstance(result, Exception):
            raise result
        best = result.best()
        baseline = [p for p in result.plans
                    if p.algorithm in ("scalapack", "caqr")]
        return {"algorithm": best.algorithm, "config": best.config,
                "modeled_seconds": best.seconds,
                "speedup_vs_2d": (baseline[0].seconds / best.seconds
                                  if baseline else None),
                "num_candidates": result.num_candidates}

    return evaluate


def _restriction(item: object) -> Tuple[str, ...]:
    """One point of an ``algorithms`` axis: solver names, aliases resolved."""
    if not isinstance(item, list) or not item:
        raise ValidationError(
            f"an algorithms axis is a list of non-empty lists of names, "
            f"got an item {item!r}", field="algorithms")
    names = list_field({"algorithms": item}, "algorithms", str) or ()
    return tuple(validated("algorithms", solver_for, a).name for a in names)


def _planner_study(cfg: dict) -> Study:
    """The planner's best plan at every point of a problem grid.

    The model-driven generalization of the paper's crossover experiment:
    instead of comparing two hand-picked families at one matrix shape,
    every point asks the planner (:mod:`repro.plan`) for the best
    configuration across *all* registered algorithms, and reports the
    winner plus its margin over the best 2D-baseline plan -- mapping
    where communication avoidance pays off as the shape, scale, machine
    and objective vary.  ``m``, ``n``, ``procs``, ``machine`` and
    ``objective`` are each a list (an axis) or a scalar (shared by every
    point); ``aspects``, always a list, is an axis of ``m / n`` ratios in
    place of ``m``.  ``algorithms`` is an axis when it is a list of
    lists, each point restricted to one list's solvers (aliases resolved,
    labelled by the names joined with ``+``); a flat list is shared.
    Axes multiply out in that order, ``aspects`` first.  Every other
    field (but ``kind`` and ``name``) follows the
    :func:`~repro.plan.problem.problem_from_dict` schema and is shared.
    The whole grid is planned as one batched lattice search
    (:func:`_planned_evaluate`).
    """
    body = {k: v for k, v in cfg.items() if k not in ("kind", "name")}
    body.setdefault("machine", "stampede2")
    body.setdefault("objective", "time")
    parse = {"machine": machine_from_json, "objective": objective_from_json}
    label = {"machine": lambda m: m if isinstance(m, str) else m.name,
             "objective": str}
    axes = []
    if "aspects" in body:
        aspects = list_field(body, "aspects", int) or ()
        del body["aspects"]
        if "m" in body:
            raise ValidationError(
                "pass either m or aspects (m = n * aspect), not both",
                field="aspects")
        if body.get("n") is None:
            raise ValidationError("aspects needs n (m = n * aspect)",
                                  field="aspects")
        for aspect in aspects:
            validated("aspects", check_positive_int, aspect, "aspect")
        body["aspect"] = list(aspects)
    for name in ("aspect", "m", "n", "procs", "machine", "objective"):
        value = body.get(name)
        if not isinstance(value, list):
            if name in parse:
                body[name] = parse[name](value)
            continue
        if not value:
            raise ValidationError("an axis cannot be empty",
                                  field="aspects" if name == "aspect"
                                  else name)
        del body[name]
        if name in parse:
            value = [parse[name](v) for v in value]
            axes.append(Axis(name, value,
                             labels=[label[name](v) for v in value]))
        else:
            axes.append(Axis(name, value))
    restrictions = body.get("algorithms")
    if (isinstance(restrictions, list)
            and any(isinstance(r, list) for r in restrictions)):
        del body["algorithms"]
        names = [_restriction(r) for r in restrictions]
        axes.append(Axis("algorithms", names,
                         labels=["+".join(r) for r in names]))

    def problem(point: Dict[str, object]) -> ProblemSpec:
        fields = {**body, **point}
        if "aspect" in fields:
            fields["m"] = int_field(fields, "n") * fields.pop("aspect")
        return problem_from_dict(fields)

    shared = {k: label[k](v) if k in label else v for k, v in body.items()}
    # The default name tags the shared shape and machine:
    # planner-crossover-n64-stampede2.
    tags = [f"{tag}{shared[k]}" for k, tag in
            (("m", "m"), ("n", "n"), ("procs", "P"), ("machine", ""))
            if k in shared]
    return Study(
        name=cfg.get("name") or "-".join([cfg["kind"], *tags]),
        description="the planner's best plan at every grid point",
        axes=tuple(axes),
        metrics=(RawField("algorithm", "{}"),
                 RawField("config", "{}"),
                 RawField("modeled_seconds", "{:.4f}"),
                 RawField("speedup_vs_2d", "{:.2f}"),
                 RawField("num_candidates", "{:d}")),
        evaluate=_planned_evaluate(tuple(axes), problem),
        params=shared)


#: Each study kind's spec fields besides ``kind`` and ``name``; the
#: planner kinds take the :func:`_planner_study` schema instead.
_SPEC_FIELDS = {
    "executed": ("m", "n", "procs", "algorithms", "machine", "seed",
                 "block_size", "mode"),
    "accuracy": ("m", "n", "conditions", "seed", "sv_mode"),
}


def study_from_dict(cfg: dict) -> Study:
    """Build a study from the ``repro study --spec`` JSON schema.

    ``kind`` (default ``"executed"``) selects the campaign; the other
    fields are the kind's own (:data:`_SPEC_FIELDS`) plus ``name``.
    ``m`` and ``n`` are integers and ``procs`` (executed) or
    ``conditions`` (accuracy) a list; ``planner`` (alias
    ``planner-crossover``) takes the :func:`_planner_study` schema.  A
    missing, unknown or malformed field raises a field-labelled
    :class:`~repro.utils.validation.ValidationError`.
    """
    require(isinstance(cfg, dict), "study spec must be a JSON object")
    kind = cfg.get("kind", "executed")
    if kind in ("planner", "planner-crossover"):
        return _planner_study(cfg)
    if not isinstance(kind, str) or kind not in _SPEC_FIELDS:
        raise ValidationError(
            f"unknown study kind {kind!r}; expected executed, accuracy, "
            "planner, or planner-crossover", field="kind")
    known = ("kind", "name", *_SPEC_FIELDS[kind])
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ValidationError(
            f"not a field of a {kind} study; known fields: {sorted(known)}",
            field=unknown[0])

    def need(key: str, elem: Optional[type] = None):
        if cfg.get(key) is None:
            raise ValidationError(f"study spec (kind={kind}) needs {key!r}",
                                  field=key)
        return int_field(cfg, key) if elem is None \
            else list_field(cfg, key, elem)

    seed = int_field(cfg, "seed")
    if kind == "accuracy":
        from repro.experiments.accuracy import accuracy_study

        return accuracy_study(
            m=need("m"), n=need("n"), conditions=need("conditions", Real),
            seed=1234 if seed is None else seed,
            mode=cfg.get("sv_mode", "geometric"), name=cfg.get("name"))
    mode = cfg.get("mode", "numeric")
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}",
                              field="mode")
    return executed_sweep_study(
        m=need("m"), n=need("n"), proc_counts=need("procs", int),
        algorithms=list_field(cfg, "algorithms", str),
        machine=machine_from_json(cfg.get("machine", "abstract")),
        seed=0 if seed is None else seed,
        block_size=int_field(cfg, "block_size"), mode=mode,
        name=cfg.get("name"))
