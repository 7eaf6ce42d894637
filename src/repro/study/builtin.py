"""Generic engine-backed studies and the JSON spec-file loader.

:func:`executed_sweep_study` is the campaign every *executed* sweep in
the repository reduces to: an (algorithm x processor-count) grid over
one reproducible matrix, run through the engine's parallel cached batch
runner, measuring simulated critical-path seconds, accuracy, the
per-rank communication maxima, and the configuration each point ran.
``repro study -m M -n N -P 4,8,16 --execute`` runs it from the command
line (``--algorithms auto`` executes the planner's best configuration
per point); without ``--execute`` the same flags run the modeled
algorithm comparison.

:func:`study_from_dict` builds a study from a plain dict (the schema the
``repro study --spec file.json`` CLI subcommand reads), dispatching on
``kind``:

* ``"executed"`` -- :func:`executed_sweep_study` (numeric or symbolic);
* ``"modeled"``  -- the analytic algorithm-comparison campaign
  (:func:`repro.experiments.sweeps.algorithm_comparison_study`);
* ``"accuracy"`` -- the stability ladder
  (:func:`repro.experiments.accuracy.accuracy_study`);
* ``"symbolic-scaling"`` -- :func:`symbolic_scaling_study`, the cost-only
  strong-scaling ladder that the vectorized virtual machine makes
  tractable at ``P = 2**16`` and beyond;
* ``"planner-crossover"`` -- :func:`planner_crossover_study`, the
  model-driven generalization of the paper's crossover experiment: the
  planner's best-plan surface over an (aspect-ratio x processor-count)
  grid.

``machine`` may be a preset name or an inline machine-description object
(the :meth:`~repro.costmodel.params.MachineSpec.from_dict` schema), so
spec files can target machines beyond the two paper presets.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.costmodel.params import MachineSpec
from repro.engine import (CapabilityError, MatrixSpec, RunSpec, solver_for,
                          solvers)
from repro.plan import Planner, PlanResult, ProblemSpec
from repro.plan.problem import int_field, list_field
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
from repro.utils.validation import check_positive_int, require


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


def symbolic_scaling_study(m: int, n: int, proc_counts: Sequence[int],
                           algorithm: str = "ca_cqr2",
                           machine: str = "abstract", seed: int = 0,
                           name: Optional[str] = None) -> Study:
    """A strong-scaling campaign run *symbolically* at paper-and-beyond scale.

    Every point executes the real distributed schedule through the engine
    with shape-only blocks, so the campaign measures the exact simulated
    critical path and per-rank communication maxima without allocating
    matrix data.  The vectorized array-backed machine is what makes the
    large end of the ladder tractable: processor counts of ``2**16`` (the
    paper's largest runs were 131072 cores) complete in seconds per
    point, and ``2**20``-rank scenarios extrapolate beyond the hardware
    the paper measured.
    """
    matrix = MatrixSpec(m, n, seed=seed)

    def build_spec(point: Dict[str, object]) -> RunSpec:
        return RunSpec(algorithm=algorithm, matrix=matrix,
                       procs=point["procs"], machine=machine,
                       mode="symbolic")

    return Study(
        name=name or f"symbolic-scaling-{algorithm}-{m}x{n}",
        description=(f"{m} x {n} strong scaling of {algorithm} on {machine}, "
                     "cost-only (symbolic) execution"),
        axes=(Axis("procs", tuple(proc_counts)),),
        metrics=(CriticalPathSeconds(), Messages(), Words(), Flops()),
        spec=build_spec,
        params={"m": m, "n": n, "algorithm": algorithm,
                "machine": str(machine), "seed": seed, "mode": "symbolic"})


def _planned_evaluate(axes: Sequence[Axis],
                      problem: Callable[[Dict[str, object]], ProblemSpec],
                      row: Callable[[PlanResult], dict],
                      ) -> Callable[[Dict[str, object]], Optional[dict]]:
    """A study evaluator answered by one lazy screen-only lattice search.

    Evaluate-based studies run serially in-process, so the first
    evaluated point plans every grid point's ``problem(point)`` in one
    ``Planner(refine=None).plan_many``: candidate enumeration is shared
    across points and the stacked screen prices every (candidate, point)
    pair in a single vectorized pass, bit-identical to planning each
    point separately.  Structurally infeasible points
    (:exc:`CapabilityError`) are ``None`` rows without poisoning their
    neighbors; ``row(result)`` turns every other result into the point's
    metrics.
    """
    outcomes: Dict[tuple, object] = {}

    def evaluate(point: Dict[str, object]) -> Optional[dict]:
        if not outcomes:
            points = [pt.values for pt in expand(axes)]
            results = Planner(refine=None).plan_many(
                [problem(p) for p in points], errors="return")
            outcomes.update((tuple(p.values()), result)
                            for p, result in zip(points, results))
        result = outcomes[tuple(point.values())]
        if isinstance(result, CapabilityError):
            return None
        if isinstance(result, Exception):
            raise result
        return row(result)

    return evaluate


def planner_crossover_study(n: int, aspects: Sequence[int],
                            proc_counts: Sequence[int],
                            machine: Union[str, MachineSpec] = "stampede2",
                            objective: str = "time",
                            name: Optional[str] = None) -> Study:
    """The planner's best-plan surface over an (aspect, procs) grid.

    The model-driven generalization of the paper's crossover experiment:
    instead of comparing two hand-picked families at one matrix shape,
    every point asks the planner (:mod:`repro.plan`) for the best
    configuration across *all* registered algorithms for an
    ``(n * aspect) x n`` matrix at that processor count, and reports the
    winner plus its margin over the best 2D-baseline plan -- mapping
    where communication avoidance pays off as the shape and scale vary.
    The whole grid is planned as one batched lattice search
    (:func:`_planned_evaluate`).
    """
    check_positive_int(n, "n")
    machine_name = machine if isinstance(machine, str) else machine.name
    axes = (Axis("aspect", tuple(aspects)), Axis("procs", tuple(proc_counts)))

    def problem(point: Dict[str, object]) -> ProblemSpec:
        return ProblemSpec(m=n * point["aspect"], n=n, procs=point["procs"],
                           machine=machine, objective=objective)

    def row(result: PlanResult) -> dict:
        best = result.best()
        baseline = [p for p in result.plans
                    if p.algorithm in ("scalapack", "caqr")]
        speedup = (baseline[0].seconds / best.seconds) if baseline else None
        return {"algorithm": best.algorithm, "config": best.config,
                "modeled_seconds": best.seconds,
                "speedup_vs_2d": speedup,
                "num_candidates": result.num_candidates}

    return Study(
        name=name or f"planner-crossover-n{n}-{machine_name}",
        description=(f"planner best-plan surface, (n*aspect) x {n} on "
                     f"{machine_name}, objective={objective}"),
        axes=axes,
        metrics=(RawField("algorithm", "{}"),
                 RawField("config", "{}"),
                 RawField("modeled_seconds", "{:.4f}"),
                 RawField("speedup_vs_2d", "{:.2f}"),
                 RawField("num_candidates", "{:d}")),
        evaluate=_planned_evaluate(axes, problem, row),
        params={"n": n, "machine": machine_name, "objective": objective})


def study_from_dict(cfg: dict) -> Study:
    """Build a study from the ``repro study --spec`` JSON schema.

    Required keys: ``m``, ``n``, plus ``procs`` (executed/modeled) or
    ``conditions`` (accuracy).  Optional: ``kind`` (default
    ``"executed"``), ``name``, ``algorithms``, ``machine``,
    ``block_size``, ``seed``, ``mode`` (numeric/symbolic) and, for
    accuracy, ``sv_mode``.
    """
    require(isinstance(cfg, dict), "study spec must be a JSON object")
    kind = cfg.get("kind", "executed")
    algorithms = list_field(cfg, "algorithms", str)
    block_size = int_field(cfg, "block_size")
    unknown = ValueError(
        f"unknown study kind {kind!r}; expected executed, modeled, "
        "accuracy, symbolic-scaling, or planner-crossover")

    def need(key: str):
        require(key in cfg, f"study spec (kind={kind}) needs {key!r}")
        return cfg[key]

    def resolve_machine(name) -> MachineSpec:
        from repro.costmodel.params import machine_by_name

        if isinstance(name, dict):
            return MachineSpec.from_dict(name)
        try:
            return machine_by_name(name)
        except KeyError as exc:
            # The CLI's error contract is ValueError -> `error: ...`.
            raise ValueError(str(exc).strip('"')) from None

    if kind == "executed":
        machine = cfg.get("machine", "abstract")
        resolved = resolve_machine(machine)  # fail fast on an unknown preset
        return executed_sweep_study(
            m=need("m"), n=need("n"), proc_counts=tuple(need("procs")),
            algorithms=algorithms,
            machine=machine if isinstance(machine, str) else resolved,
            seed=cfg.get("seed", 0), block_size=block_size,
            mode=cfg.get("mode", "numeric"), name=cfg.get("name"))
    if kind == "modeled":
        from repro.experiments.sweeps import algorithm_comparison_study

        return algorithm_comparison_study(
            m=need("m"), n=need("n"),
            machine=resolve_machine(cfg.get("machine", "stampede2")),
            proc_counts=tuple(need("procs")),
            block_size=32 if block_size is None else block_size,
            algorithms=algorithms, name=cfg.get("name"))
    if kind == "accuracy":
        from repro.experiments.accuracy import accuracy_study

        return accuracy_study(
            m=need("m"), n=need("n"), conditions=tuple(need("conditions")),
            seed=cfg.get("seed", 1234), mode=cfg.get("sv_mode", "geometric"),
            name=cfg.get("name"))
    if kind == "symbolic-scaling":
        machine = cfg.get("machine", "abstract")
        resolved = resolve_machine(machine)
        return symbolic_scaling_study(
            m=need("m"), n=need("n"), proc_counts=tuple(need("procs")),
            algorithm=cfg.get("algorithm", "ca_cqr2"),
            machine=machine if isinstance(machine, str) else resolved,
            seed=cfg.get("seed", 0), name=cfg.get("name"))
    if kind == "planner-crossover":
        return planner_crossover_study(
            n=need("n"), aspects=tuple(need("aspects")),
            proc_counts=tuple(need("procs")),
            machine=resolve_machine(cfg.get("machine", "stampede2")),
            objective=cfg.get("objective", "time"), name=cfg.get("name"))
    raise unknown
