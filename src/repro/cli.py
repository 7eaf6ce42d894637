"""Command-line interface to the reproduction harness.

Usage (after ``pip install -e .``)::

    python -m repro figures                # list reproducible figures
    python -m repro figures fig7b          # regenerate one figure's table
    python -m repro figures --all          # regenerate everything
    python -m repro accuracy               # the stability-ladder sweep
    python -m repro plan -m 1048576 -n 4096 -P 4096 --machine stampede2
    python -m repro plan -m 65536 -n 256 -P 512 --json --no-refine
    python -m repro plan -m 65536 -n 256 -P 512 \
        --objective time=1,memory=0.2 --budget "memory<=8e6"
    python -m repro factor -m 4096 -n 64 -c 2 -d 8
    python -m repro factor -m 4096 -n 64 -a auto -P 16
    python -m repro factor -m 4096 -n 64 -a tsqr -P 16
    python -m repro algorithms             # show the algorithm registry
    python -m repro study -m 1048576 -n 1024 -P 256,4096 --machine stampede2
    python -m repro study -m 2048 -n 32 -P 4,8,16 --execute --jsonl camp.jsonl
    python -m repro study -m 2048 -n 32 -P 4,8,16 --execute --algorithms auto
    python -m repro study --spec study.json --format markdown
    python -m repro cache info             # survey every session cache
    python -m repro cache info --json      # same survey, machine-readable
    python -m repro cache info --plan      # just the plan cache
    python -m repro cache check            # report unloadable cache entries
    python -m repro serve --port 8357      # planning-as-a-service endpoint
    python -m repro machines               # show the machine presets

Each subcommand prints the same tables the benchmark harness archives, so
the paper's evaluation is explorable without pytest.

Every subcommand executes through the process-wide **default session**
(:func:`repro.session.default_session`), so the ``REPRO_CACHE_DIR`` /
``REPRO_PLAN_CACHE_DIR`` environment variables override the two
default cache locations uniformly.  Scripts should do the same:
construct a :class:`repro.Session` and run
:class:`repro.engine.RunSpec` objects (or :class:`repro.Study`
campaigns) through it instead of hand-composing the :mod:`repro.vmpi` /
:mod:`repro.core` layers.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import all_figures
    from repro.experiments.reproduction import render_figure
    from repro.experiments.scaling import StrongScalingFigure

    figures = all_figures()
    wanted: List[str]
    if args.all:
        wanted = sorted(figures)
    elif args.name:
        if args.name not in figures:
            print(f"error: unknown figure {args.name!r}; known: "
                  f"{', '.join(sorted(figures))}")
            return 2
        wanted = [args.name]
    else:
        print("reproducible figures:")
        for name in sorted(figures):
            fig = figures[name]
            kind = "strong" if isinstance(fig, StrongScalingFigure) else "weak"
            print(f"  {name:<7} {kind:<7} {fig.machine.name:<12} {fig.paper_note}")
        return 0

    for name in wanted:
        print(render_figure(figures[name]))
        print()
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from repro.experiments.accuracy import accuracy_study, rows_from_table
    from repro.experiments.report import format_accuracy_table

    conditions = tuple(10.0 ** e for e in range(1, args.max_exponent + 1, 2))
    study = accuracy_study(m=args.rows, n=args.cols, conditions=conditions,
                           seed=args.seed)
    rows = rows_from_table(study.run(parallel=False))
    print(format_accuracy_table(rows))
    return 0


def _read_machine_file(path: str):
    """A ``--machine-file``'s JSON; unparseable JSON is a ``machine`` error."""
    import json

    from repro.utils.validation import ValidationError

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"machine file {path!r} is not valid JSON: {exc}",
                field="machine") from exc


def _load_machine(args: argparse.Namespace):
    """The run's machine: a ``--machine-file`` JSON description or a preset.

    Malformed input -- unparseable JSON, unknown/missing machine fields,
    an unknown preset name -- surfaces as a field-labelled
    :class:`~repro.utils.validation.ValidationError`, which :func:`main`
    turns into a clean one-line error instead of a traceback.
    """
    from repro.plan import machine_from_json

    machine_file = getattr(args, "machine_file", None)
    if machine_file:
        return machine_from_json(_read_machine_file(machine_file))
    # machine_from_json keeps preset names symbolic (plan fingerprints);
    # the CLI wants the resolved spec (it prints machine.name).
    from repro.costmodel.params import machine_by_name
    from repro.utils.validation import validated

    return validated("machine", machine_by_name, args.machine)


def _build_observer(jsonl_path: Optional[str], chrome_path: Optional[str]):
    """An Observer over the requested export sinks.

    Returns ``(observer, chrome_sink)`` -- both ``None`` when neither
    flag was passed, so instrumented code keeps its zero-cost disabled
    path.  The chrome sink is handed back separately because ``repro
    trace`` folds the VM event timeline into it before closing.
    """
    if not jsonl_path and not chrome_path:
        return None, None
    from repro.obs import ChromeTraceSink, JsonlSink, Observer

    sinks = []
    chrome = None
    if jsonl_path:
        sinks.append(JsonlSink(jsonl_path))
    if chrome_path:
        chrome = ChromeTraceSink(chrome_path)
        sinks.append(chrome)
    return Observer(*sinks), chrome


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from repro.obs import use_observer
    from repro.plan import Objective, Planner, problem_from_dict
    from repro.session import default_session
    from repro.utils.validation import check_positive_int

    check_positive_int(args.limit, "limit")
    if args.lattice is not None:
        return _cmd_plan_lattice(args)
    missing = [flag for flag, value in (("-m", args.m), ("-n", args.n),
                                        ("-P", args.procs))
               if value is None]
    if missing:
        print(f"error: {'/'.join(missing)} required (or pass --lattice)")
        return 2
    try:
        machine = _load_machine(args)
        objective = Objective.parse(args.objective,
                                    budgets=tuple(args.budget or ()))
        problem = problem_from_dict({
            "m": args.m, "n": args.n, "procs": args.procs,
            "machine": machine,
            "mode": "symbolic" if args.symbolic else "numeric",
            "objective": objective, "algorithms": args.algorithms or None,
            "block_sizes": (None if args.block_size is None
                            else [args.block_size]),
            "top_k": args.top_k})
        obs, _ = _build_observer(args.jsonl, args.chrome_trace)
        planner = Planner(refine=None if args.no_refine else "symbolic",
                          cache_dir=args.cache_dir
                          or default_session().plan_cache)
        try:
            with use_observer(obs):
                result = planner.plan(problem)
        finally:
            if obs is not None:
                obs.close()
    except OSError as exc:
        print(f"error: cannot read machine file: {exc}")
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    cached = " [cached]" if result.from_cache else ""
    print(f"plan: {args.m} x {args.n} on P={args.procs} ({machine.name}, "
          f"objective={objective}){cached}")
    print(f"screened {result.num_candidates} candidates in "
          f"{result.screen_seconds:.3f}s"
          + (f"; audited top {result.refined_count} by symbolic runs in "
             f"{result.refine_seconds:.3f}s" if result.refined_count else ""))
    print("=" * 78)
    print(f"{'rank':>4} {'algorithm':<10} {'config':<22} {'t(s)':>10} "
          f"{'mem(words)':>11} {'msgs':>9}  flags")
    shown = result.plans if args.all else result.plans[:args.limit]
    for rank, plan in enumerate(shown, start=1):
        flags = ("*" if plan.pareto else "") + ("r" if plan.refined else "") \
            + ("!" if not plan.within_budget else "")
        print(f"{rank:>4} {plan.algorithm:<10} {plan.config:<22} "
              f"{plan.seconds:>10.4g} {plan.memory_words:>11.0f} "
              f"{plan.messages:>9.0f}  {flags}")
    if not args.all and len(result.plans) > args.limit:
        print(f"... ({len(result.plans) - args.limit} more; --all to show)")
    print("flags: * = on the (time, memory, messages) Pareto frontier, "
          "r = audited by a symbolic run"
          + (", ! = over budget" if objective.budgets else ""))
    return 0


def _cmd_plan_lattice(args: argparse.Namespace) -> int:
    """`repro plan --lattice '{...}'`: one batched search over a campaign."""
    import json

    from repro.obs import use_observer
    from repro.plan import Planner, lattice_problems
    from repro.session import default_session
    from repro.utils.validation import ValidationError

    try:
        if args.budget:
            raise ValidationError(
                "--budget does not combine with --lattice; put budgeted "
                'objectives in the lattice spec ("objective" entries)')
        spec = json.loads(args.lattice)
        if not isinstance(spec, dict):
            raise ValidationError("--lattice must be a JSON object")
        if args.machine_file:
            spec.setdefault("machine", _read_machine_file(args.machine_file))
        else:
            spec.setdefault("machine", args.machine)
        spec.setdefault("objective", args.objective)
        spec.setdefault("top_k", args.top_k)
        if args.symbolic:
            spec.setdefault("mode", "symbolic")
        if args.algorithms:
            spec.setdefault("algorithms", args.algorithms)
        if args.block_size is not None:
            spec.setdefault("block_sizes", [args.block_size])
        problems = lattice_problems(spec)
        obs, _ = _build_observer(args.jsonl, args.chrome_trace)
        planner = Planner(refine=None if args.no_refine else "symbolic",
                          cache_dir=args.cache_dir
                          or default_session().plan_cache)
        try:
            with use_observer(obs):
                outcomes = planner.plan_many(problems, errors="return")
        finally:
            if obs is not None:
                obs.close()
    except OSError as exc:
        print(f"error: cannot read machine file: {exc}")
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: --lattice is not valid JSON: {exc}")
        return 2
    stats = planner.last_lattice_stats
    if args.json:
        points = []
        for problem, outcome in zip(problems, outcomes):
            entry = {"m": problem.m, "n": problem.n, "procs": problem.procs,
                     "machine": problem.machine_spec().name,
                     "objective": str(problem.objective)}
            if isinstance(outcome, Exception):
                entry["error"] = {"type": type(outcome).__name__,
                                  "message": str(outcome)}
            else:
                result = outcome.to_dict()
                if not args.all:
                    result["plans"] = result["plans"][:args.limit]
                entry["result"] = result
            points.append(entry)
        print(json.dumps({"points": points, "stats": stats.to_dict()},
                         indent=2, sort_keys=True))
        return 0
    print(f"lattice: {len(problems)} points")
    print("=" * 78)
    print(f"{'m':>9} {'n':>6} {'P':>6} {'machine':<12} {'objective':<18} "
          f"{'best':<10} {'config':<18} {'t(s)':>10}")
    for problem, outcome in zip(problems, outcomes):
        head = (f"{problem.m:>9} {problem.n:>6} {problem.procs:>6} "
                f"{problem.machine_spec().name:<12} "
                f"{problem.objective!s:<18} ")
        if isinstance(outcome, Exception):
            print(head + f"error: {outcome}")
            continue
        best = outcome.best()
        cached = " [cached]" if outcome.from_cache else ""
        print(head + f"{best.algorithm:<10} {best.config:<18} "
                     f"{best.seconds:>10.4g}{cached}")
    if stats is not None:
        print(f"shared search: {stats.enum_groups} enumerations and "
              f"{stats.priced_lanes} priced lanes answered "
              f"{stats.screened_candidates} candidate screenings "
              f"({stats.screen_reuse:.1f}x reuse); "
              f"{stats.refine_runs} symbolic runs answered "
              f"{stats.refine_jobs} refine jobs "
              f"({stats.refine_dedup:.1f}x dedup); "
              f"{stats.cache_hits} cache hits")
    return 0


def _default_ca_grid(solver, args) -> tuple:
    """The historical default ``c x d x c`` grid when nothing pins one."""
    if (solver.name == "ca_cqr2" and args.c is None and args.d is None
            and args.procs is None):
        return 2, 8
    return args.c, args.d


def _cmd_factor(args: argparse.Namespace) -> int:
    from repro.engine import MatrixSpec, RunSpec, solver_for
    from repro.session import default_session

    session = default_session()
    try:
        machine = _load_machine(args)
        c, d = args.c, args.d
        if args.algorithm != "auto":
            c, d = _default_ca_grid(solver_for(args.algorithm), args)
        a = MatrixSpec(args.m, args.n, seed=args.seed).materialize()
        spec = RunSpec(algorithm=args.algorithm, data=a, c=c, d=d,
                       procs=args.procs, pr=args.pr, pc=args.pc,
                       block_size=args.block_size, machine=machine)
        spec = session.resolve(spec)    # `-a auto` delegates to the planner
        solver = solver_for(spec.algorithm)
        result = session.run(spec)
    except OSError as exc:
        print(f"error: cannot read machine file: {exc}")
        return 2
    print(f"{solver.label} on {result.grid} "
          f"({result.report.num_ranks} virtual ranks):")
    print(f"  ||Q^T Q - I||_2    = {result.orthogonality_error():.3e}")
    print(f"  ||A - QR|| / ||A|| = {result.residual_error(a):.3e}")
    print(result.report.summary())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.engine import MatrixSpec, RunSpec, solver_for
    from repro.session import default_session
    from repro.utils.validation import check_positive_int
    from repro.vmpi.trace import format_phase_profile, render_gantt

    from repro.obs import use_observer

    check_positive_int(args.max_ranks, "max-ranks")
    solver = solver_for(args.algorithm)
    c, d = _default_ca_grid(solver, args)
    spec = RunSpec(algorithm=args.algorithm,
                   matrix=MatrixSpec(args.m, args.n, seed=args.seed),
                   c=c, d=d, procs=args.procs, pr=args.pr, pc=args.pc,
                   block_size=args.block_size, machine=args.machine,
                   mode="symbolic" if args.symbolic else "numeric")
    obs, chrome = _build_observer(args.jsonl, args.chrome_trace)
    try:
        with use_observer(obs):
            result, vm = default_session().trace(spec)
        if chrome is not None:
            # VM time is simulated seconds on its own clock; the
            # timeline lands under pid 1, span wall time under pid 0.
            chrome.add_vm_events(vm.events)
    finally:
        if obs is not None:
            obs.close()
    shown = min(vm.num_ranks, args.max_ranks)
    gantt = render_gantt(vm, width=args.width, ranks=range(shown))
    profile = format_phase_profile(vm, depth=args.depth)
    print(f"{solver.label} on {result.grid} "
          f"({vm.num_ranks} virtual ranks, {len(vm.events)} trace events)")
    print()
    print(gantt)
    if shown < vm.num_ranks:
        print(f"... ({vm.num_ranks - shown} more ranks; raise --max-ranks)")
    print()
    print(profile)
    if args.chrome_trace:
        print(f"(chrome trace written to {args.chrome_trace}; load it in "
              f"Perfetto / chrome://tracing)", file=sys.stderr)
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    from repro.engine import solvers

    print("registered algorithms (repro.engine):")
    for solver in solvers():
        aliases = f" (aliases: {', '.join(solver.aliases)})" if solver.aliases else ""
        modes = "numeric+symbolic" if solver.supports_symbolic else "numeric"
        print(f"  {solver.name:<10} {solver.label:<9} [{modes}]{aliases}")
        print(f"             requires: {solver.requires}")
    return 0


def _parse_proc_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _cmd_study(args: argparse.Namespace) -> int:
    import json

    from repro.study import study_from_dict
    from repro.utils.validation import check_positive_int

    if args.jobs is not None:
        check_positive_int(args.jobs, "jobs")

    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read spec file: {exc}")
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: {args.spec} is not valid JSON: {exc}")
            return 2
    else:
        if args.m is None or args.n is None or not args.procs:
            print("error: pass either --spec file.json or -m/-n/-P flags")
            return 2
        try:
            proc_counts = _parse_proc_list(args.procs)
        except ValueError:
            print(f"error: -P expects comma-separated integers, got {args.procs!r}")
            return 2
        cfg = {"kind": "executed" if args.execute else "modeled",
               "m": args.m, "n": args.n, "procs": proc_counts,
               "machine": args.machine, "seed": args.seed}
        if args.machine_file:
            try:
                cfg["machine"] = _read_machine_file(args.machine_file)
            except OSError as exc:
                print(f"error: cannot read machine file: {exc}")
                return 2
        if args.algorithms:
            cfg["algorithms"] = args.algorithms
        if args.block_size is not None:
            cfg["block_size"] = args.block_size
        if args.symbolic:
            cfg["kind"] = "executed"
            cfg["mode"] = "symbolic"

    def progress(info) -> None:
        # Study.stream delivers a ProgressInfo with throughput derived
        # from executed (non-resumed) rows.
        state = "ok" if info.row.ok else "infeasible"
        line = f"  [{info.done}/{info.total}] {info.row.point} {state}"
        if info.rate is not None:
            line += f"  {info.rate:.2g} pts/s"
            if info.eta_seconds is not None:
                line += f", eta {info.eta_seconds:.0f}s"
        print(line, file=sys.stderr)

    from repro.obs import use_observer
    from repro.utils.config import UNSET

    study = study_from_dict(cfg)
    obs, _ = _build_observer(args.obs_jsonl, args.chrome_trace)
    try:
        # use_observer(None) leaves the ambient observer unset, so the
        # no-flags path stays on the zero-cost NULL_SPAN route.
        with use_observer(obs):
            table = study.run(
                parallel=not args.serial, max_workers=args.jobs,
                cache_dir=args.cache_dir or UNSET,
                jsonl_path=args.jsonl, resume=not args.fresh,
                progress=progress if args.progress else None)
    finally:
        if obs is not None:
            obs.close()
    if args.format == "csv":
        print(table.to_csv(), end="")
    elif args.format == "markdown":
        print(table.to_markdown())
    else:
        print(table.to_text())
    if args.jsonl:
        print(f"(results persisted to {args.jsonl}; re-run resumes from it)",
              file=sys.stderr)
    return 0


def _print_cache_info(label: str, info: dict) -> None:
    size = info["bytes"]
    human = f"{size / 1e6:.1f} MB" if size >= 1e6 else f"{size} bytes"
    print(f"{label}: {info['path']}")
    print(f"  entries : {info['entries']}")
    print(f"  size    : {human}")


def _findings_table(findings: list) -> str:
    """The sweep's findings as an aligned text table (the CLI's house style)."""
    rows = [(f.severity, f.rule, f.loc, f.message) for f in findings]
    headers = ("severity", "rule", "loc", "message")
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    lines = ["findings",
             "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def _print_cache_check(findings: list, as_json: bool) -> int:
    """Print the sweep's findings; exit non-zero when there is any."""
    import json

    from repro.plan.cache import SEVERITIES

    findings = sorted(findings, key=lambda f: (SEVERITIES.index(f.severity),
                                               f.rule, f.loc))
    if as_json:
        print(json.dumps({"findings": [f.to_dict() for f in findings],
                          "count": len(findings)}, indent=2))
    else:
        if findings:
            print(_findings_table(findings))
        print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.engine import ResultCache
    from repro.plan.cache import PlanCache, check_cache_dir, verify_plan_result
    from repro.utils.config import default_cache_dir, default_plan_cache_dir
    from repro.utils.diskcache import clear_cache_dir, scan_cache_dir

    # Every session cache: (label, directory, entry suffix).  Default
    # directories honor REPRO_CACHE_DIR / REPRO_PLAN_CACHE_DIR; the
    # suffix keeps the two apart when they share one directory.
    caches = {
        "result": ("result cache", default_cache_dir(), ResultCache.suffix),
        "plan": ("plan cache", default_plan_cache_dir(), PlanCache.suffix),
    }
    name = "plan" if args.plan else "result"
    if args.cache_dir:
        label, _, suffix = caches[name]
        caches[name] = (label, args.cache_dir, suffix)
    if args.action == "clear":
        _, cache_dir, suffix = caches[name]
        removed = clear_cache_dir(cache_dir, suffix)
        print(f"removed {removed} cached entries from {cache_dir}")
        return 0
    # Bare `cache info` / `cache check` covers every session cache in
    # one shot; a flag narrows it to the selected one.
    survey_all = not (args.plan or args.cache_dir)
    selected = list(caches) if survey_all else [name]
    if args.action == "check":
        # Result entries must be QRRuns; plan entries, structurally
        # valid PlanResults (the check every plan-cache load runs).
        sweeps = {"result": (ResultCache.value_type, None),
                  "plan": (None, verify_plan_result)}
        findings = [f for key in selected
                    for f in check_cache_dir(caches[key][1], caches[key][2],
                                             *sweeps[key])]
        return _print_cache_check(findings, args.json)
    info = {key: scan_cache_dir(caches[key][1], caches[key][2])
            for key in selected}
    if not args.json:
        for key in selected:
            _print_cache_info(caches[key][0], info[key])
        return 0
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the planning-as-a-service HTTP endpoint (:mod:`repro.serve`)."""
    from repro.serve import PlanServer
    from repro.session import Session
    from repro.utils.config import default_plan_cache_dir

    try:
        machine = (_load_machine(args)
                   if (getattr(args, "machine_file", None) or args.machine)
                   else None)
        plan_cache = args.cache_dir or default_plan_cache_dir()
        session = Session(machine=machine, plan_cache=plan_cache)
        server = PlanServer(
            session, host=args.host, port=args.port, workers=args.workers,
            lru_capacity=args.lru_capacity,
            refine=None if args.no_refine else "symbolic",
            slow_request_seconds=args.slow_request_seconds)
        address = server.start_background()
    except OSError as exc:
        print(f"error: {exc}")
        return 2
    print(f"repro.serve listening on {address} (workers={args.workers}, "
          f"lru={args.lru_capacity}, "
          f"plan_cache={server.plan_cache.disk.cache_dir})", flush=True)
    if args.port_file:
        # CI / scripts bind port 0 and read the real port from here.
        with open(args.port_file, "w", encoding="utf-8") as fh:
            fh.write(f"{server.port}\n")
    try:
        while server._thread is not None and server._thread.is_alive():
            server._thread.join(timeout=1.0)
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    server.stop()
    return 0


def _cmd_machines(args: argparse.Namespace) -> int:
    from repro.costmodel.params import ABSTRACT_MACHINE, BLUE_WATERS, STAMPEDE2

    for m in (STAMPEDE2, BLUE_WATERS, ABSTRACT_MACHINE):
        p = m.cost_params()
        print(f"{m.name}:")
        print(f"  peak flops/node      : {m.peak_flops_per_node:.3g}")
        print(f"  injection bandwidth  : {m.injection_bandwidth:.3g} B/s")
        print(f"  procs/node           : {m.procs_per_node}")
        print(f"  flops-to-bandwidth   : {m.flops_to_bandwidth_ratio:.1f} flops/byte")
        print(f"  alpha/beta/gamma     : {p.alpha:.3g} / {p.beta:.3g} / {p.gamma:.3g} s")
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.plan.problem import ProblemSpec

    parser = argparse.ArgumentParser(
        prog="repro",
        description="CA-CQR2 reproduction harness (Hutter & Solomonik, IPDPS 2019)")
    sub = parser.add_subparsers(dest="command")
    machine_names = ["stampede2", "blue-waters", "abstract"]

    p_fig = sub.add_parser("figures", help="list or regenerate paper figures")
    p_fig.add_argument("name", nargs="?", help="figure name, e.g. fig7b")
    p_fig.add_argument("--all", action="store_true", help="regenerate every figure")
    p_fig.set_defaults(func=_cmd_figures)

    p_acc = sub.add_parser("accuracy", help="stability-ladder sweep")
    p_acc.add_argument("--rows", type=int, default=1024)
    p_acc.add_argument("--cols", type=int, default=64)
    p_acc.add_argument("--max-exponent", type=int, default=15,
                       help="sweep kappa = 10^1 .. 10^max (step 100x)")
    p_acc.add_argument("--seed", type=int, default=1234)
    p_acc.set_defaults(func=_cmd_accuracy)

    p_plan = sub.add_parser(
        "plan", help="model-driven planner: search the full algorithm x "
                     "grid x variant space for (m, n, P, machine)")
    p_plan.add_argument("-m", type=int, default=None, help="matrix rows")
    p_plan.add_argument("-n", type=int, default=None, help="matrix cols")
    p_plan.add_argument("-P", "--procs", type=int, default=None,
                        help="processor budget to configure")
    p_plan.add_argument("--lattice", default=None, metavar="JSON",
                        help="plan a whole campaign in one batched lattice "
                             'search: a JSON object whose "m" (or '
                             '"aspects"), "n", "procs", "machine", and '
                             '"objective" fields may each be a scalar or a '
                             "list (axes multiply out); other fields are "
                             "shared.  -m/-n/-P are not used; --machine / "
                             "--objective / --top-k fill unlisted axes")
    p_plan.add_argument("--machine", default="stampede2", choices=machine_names)
    p_plan.add_argument("--machine-file", default=None,
                        help="JSON machine description (MachineSpec.from_dict "
                             "schema) instead of a preset")
    p_plan.add_argument("--objective", default="time",
                        help="ranking objective: a metric (time, memory, "
                             "messages) or a weighted combination like "
                             "time=1,memory=0.2 (Pareto flags cover all "
                             "three either way)")
    p_plan.add_argument("--budget", action="append", default=None,
                        metavar="METRIC<=LIMIT",
                        help='budget constraint, e.g. "memory<=8e6" '
                             "(repeatable; within-budget plans rank first)")
    p_plan.add_argument("--symbolic", action="store_true",
                        help="plan for symbolic (cost-only) execution: "
                             "restrict to symbolically executable algorithms")
    p_plan.add_argument("--algorithms", nargs="*", default=None,
                        help="restrict the search to these registry names")
    p_plan.add_argument("-b", "--block-size", type=int, default=None,
                        help="pin the 2D panel width instead of searching one")
    p_plan.add_argument("--top-k", type=int, default=ProblemSpec.top_k,
                        help="top plans audited by an exact symbolic run; "
                             "never changes the ranking")
    p_plan.add_argument("--no-refine", action="store_true",
                        help="batched analytic screen only (skip the symbolic "
                             "audit)")
    p_plan.add_argument("--limit", type=int, default=12,
                        help="ranked plans to print (see --all)")
    p_plan.add_argument("--all", action="store_true",
                        help="print every screened plan")
    p_plan.add_argument("--json", action="store_true",
                        help="emit the full ranked plan list as JSON")
    p_plan.add_argument("--cache-dir", default=None,
                        help="on-disk plan cache directory "
                             "(e.g. .repro-plan-cache)")
    p_plan.add_argument("--jsonl", default=None, metavar="FILE",
                        help="append the planner's span/event records "
                             "(repro.obs) to this JSONL file")
    p_plan.add_argument("--chrome-trace", default=None, metavar="FILE",
                        help="write the planner's span tree as Chrome "
                             "trace-event JSON (Perfetto-loadable)")
    p_plan.set_defaults(func=_cmd_plan)

    p_fac = sub.add_parser(
        "factor", help="factor a random matrix on a simulated grid")
    p_fac.add_argument("-a", "--algorithm", default="ca_cqr2",
                       help="registered algorithm name (see `repro algorithms`)")
    p_fac.add_argument("-m", type=int, default=4096)
    p_fac.add_argument("-n", type=int, default=64)
    p_fac.add_argument("-c", type=int, default=None, help="CA grid width c")
    p_fac.add_argument("-d", type=int, default=None, help="CA grid depth d")
    p_fac.add_argument("-P", "--procs", type=int, default=None,
                       help="processor count (lets the solver pick its grid)")
    p_fac.add_argument("--pr", type=int, default=None, help="2D grid rows")
    p_fac.add_argument("--pc", type=int, default=None, help="2D grid cols")
    p_fac.add_argument("-b", "--block-size", type=int, default=None)
    p_fac.add_argument("--machine", default="abstract", choices=machine_names)
    p_fac.add_argument("--machine-file", default=None,
                       help="JSON machine description (MachineSpec.from_dict "
                            "schema) instead of a preset")
    p_fac.add_argument("--seed", type=int, default=0)
    p_fac.set_defaults(func=_cmd_factor)

    p_alg = sub.add_parser("algorithms",
                           help="show the engine's algorithm registry")
    p_alg.set_defaults(func=_cmd_algorithms)

    p_tr = sub.add_parser(
        "trace", help="run one algorithm with tracing and render its "
                      "Gantt chart + phase time profile")
    p_tr.add_argument("algorithm", nargs="?", default="ca_cqr2",
                      help="registered algorithm name (see `repro algorithms`)")
    p_tr.add_argument("-m", type=int, default=256)
    p_tr.add_argument("-n", type=int, default=16)
    p_tr.add_argument("-c", type=int, default=None, help="CA grid width c")
    p_tr.add_argument("-d", type=int, default=None, help="CA grid depth d")
    p_tr.add_argument("-P", "--procs", type=int, default=None,
                      help="processor count (lets the solver pick its grid)")
    p_tr.add_argument("--pr", type=int, default=None, help="2D grid rows")
    p_tr.add_argument("--pc", type=int, default=None, help="2D grid cols")
    p_tr.add_argument("-b", "--block-size", type=int, default=None)
    p_tr.add_argument("--machine", default="abstract", choices=machine_names)
    p_tr.add_argument("--symbolic", action="store_true",
                      help="cost-only run (no numeric factors)")
    p_tr.add_argument("--width", type=int, default=80, help="Gantt chart width")
    p_tr.add_argument("--depth", type=int, default=2,
                      help="phase-profile prefix depth")
    p_tr.add_argument("--max-ranks", type=int, default=32,
                      help="maximum timeline rows to print")
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--jsonl", default=None, metavar="FILE",
                      help="append span/event records (repro.obs) to this "
                           "JSONL file")
    p_tr.add_argument("--chrome-trace", default=None, metavar="FILE",
                      help="export the VM event timeline (rank -> track, "
                           "phase -> name, kind -> category) plus any spans "
                           "as Chrome trace-event JSON")
    p_tr.set_defaults(func=_cmd_trace)

    p_st = sub.add_parser(
        "study",
        help="run a declarative study campaign (repro.study) from flags "
             "or a JSON spec file")
    p_st.add_argument("--spec", default=None,
                      help="JSON study spec file (see repro.study.study_from_dict)")
    p_st.add_argument("-m", type=int, default=None, help="matrix rows")
    p_st.add_argument("-n", type=int, default=None, help="matrix cols")
    p_st.add_argument("-P", "--procs", default=None,
                      help="comma-separated processor counts, e.g. 4,8,16")
    p_st.add_argument("--machine", default="stampede2", choices=machine_names)
    p_st.add_argument("--machine-file", default=None,
                      help="JSON machine description (MachineSpec.from_dict "
                           "schema) instead of a preset")
    p_st.add_argument("--algorithms", nargs="*", default=None,
                      help="restrict to these registry names; with "
                           '--execute, "auto" runs the planner\'s best '
                           "configuration per point")
    p_st.add_argument("-b", "--block-size", type=int, default=None)
    p_st.add_argument("--execute", action="store_true",
                      help="execute real (numeric) runs through the engine "
                           "instead of the analytic model")
    p_st.add_argument("--symbolic", action="store_true",
                      help="execute cost-only (symbolic) runs through the engine")
    p_st.add_argument("--jsonl", default=None,
                      help="persist rows to this JSONL file; an interrupted "
                           "campaign resumes from it, executing only missing "
                           "points")
    p_st.add_argument("--fresh", action="store_true",
                      help="ignore (and overwrite) an existing --jsonl file")
    p_st.add_argument("--format", default="text",
                      choices=("text", "csv", "markdown"))
    p_st.add_argument("--jobs", type=int, default=None,
                      help="worker processes for --execute (default: cpu count)")
    p_st.add_argument("--serial", action="store_true",
                      help="disable process parallelism for --execute")
    p_st.add_argument("--cache-dir", default=None,
                      help="on-disk result cache for executed studies")
    p_st.add_argument("--progress", action="store_true",
                      help="print per-point completion lines (with rate and "
                           "ETA) to stderr; never written into --jsonl")
    p_st.add_argument("--obs-jsonl", default=None, metavar="FILE",
                      help="append span/event records (repro.obs) to this "
                           "JSONL file (--jsonl persists result rows, this "
                           "records observability spans)")
    p_st.add_argument("--chrome-trace", default=None, metavar="FILE",
                      help="write the campaign's span tree as Chrome "
                           "trace-event JSON")
    p_st.add_argument("--seed", type=int, default=0)
    p_st.set_defaults(func=_cmd_study)

    p_cache = sub.add_parser(
        "cache",
        help="inspect, reset or check the on-disk result / plan caches")
    p_cache.add_argument("action", choices=("info", "clear", "check"),
                         help="info: entries and bytes; clear: delete the "
                              "entries; check: report every entry that "
                              "does not load (exit 1 on any finding)")
    p_cache.add_argument("--plan", action="store_true",
                         help="operate on the planner's plan cache instead "
                              "of the engine's result cache")
    p_cache.add_argument("--cache-dir", default=None,
                         help="cache directory (default: .repro-cache / "
                              ".repro-plan-cache, or the REPRO_CACHE_DIR / "
                              "REPRO_PLAN_CACHE_DIR environment variables)")
    p_cache.add_argument("--json", action="store_true",
                         help="machine-readable output (entries / bytes / "
                              "path per cache, or the check's findings)")
    p_cache.set_defaults(func=_cmd_cache)

    p_srv = sub.add_parser(
        "serve",
        help="run the planning-as-a-service HTTP endpoint (POST /plan, "
             "POST /factor, GET /metrics, GET /healthz)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8357,
                       help="bind port (0 picks an ephemeral port; see "
                            "--port-file)")
    p_srv.add_argument("--workers", type=int, default=4,
                       help="planner worker threads (cold plans each hold "
                            "one for their full search)")
    p_srv.add_argument("--lru-capacity", type=int, default=128,
                       help="in-memory plan LRU size (entries)")
    p_srv.add_argument("--machine", default=None, choices=machine_names,
                       help="default machine for requests that omit one")
    p_srv.add_argument("--machine-file", default=None,
                       help="JSON MachineSpec used as the default machine")
    p_srv.add_argument("--cache-dir", default=None,
                       help="on-disk plan cache under the LRU (default: "
                            ".repro-plan-cache or REPRO_PLAN_CACHE_DIR)")
    p_srv.add_argument("--no-refine", action="store_true",
                       help="screen-only planning (skip the symbolic audit "
                            "of the top plans; rankings do not change)")
    p_srv.add_argument("--slow-request-seconds", type=float, default=None,
                       metavar="SECONDS",
                       help="log any request slower than this to stderr "
                            "(with its X-Repro-Request-Id)")
    p_srv.add_argument("--port-file", default=None,
                       help="write the bound port here once listening")
    p_srv.set_defaults(func=_cmd_serve)

    p_mach = sub.add_parser("machines", help="show machine presets")
    p_mach.set_defaults(func=_cmd_machines)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 0
    try:
        return args.func(args)
    except ValueError as exc:  # ValidationError, EngineError, JSONDecodeError
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
