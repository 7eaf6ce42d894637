"""Command line: ``run``, ``compare``, and the two internal child commands."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import DEFAULT_SECONDS, WORKLOAD_NAMES, main_run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", choices=WORKLOAD_NAMES,
                     help="one workload (default: all four, one after another)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                     help="measurement budget per workload")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: run untraced then traced, print per-layer metrics")
    run.add_argument("--out", help="directory for run files "
                                   "(default: .perf-out/runs)")
    compare = sub.add_parser("compare", help="judge a change against its parent")
    compare.add_argument("parent_dir")
    compare.add_argument("change_dir")
    for internal in ("_child", "_serve"):
        sub.add_parser(internal).add_argument("config")
    args = parser.parse_args(argv)

    if args.command == "run":
        workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        return main_run(workloads, args.seed, args.seconds, bool(args.trace),
                        args.out)
    if args.command == "compare":
        from .compare import main_compare

        return main_compare(args.parent_dir, args.change_dir)
    from .child import child_main, serve_main

    entry = child_main if args.command == "_child" else serve_main
    return entry(json.loads(args.config))


if __name__ == "__main__":
    sys.exit(main())
