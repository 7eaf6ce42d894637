"""Tests for the command-line interface."""

import os
import shlex
import time
from typing import ClassVar

import numpy as np
import pytest

import repro.cli
from repro.cli import build_parser, main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


def _repro_commands(text):
    """The argv after ``repro`` of every ``python -m repro ...`` in *text*."""
    lines = text.replace("\\\n", " ").splitlines()
    commands = []
    i = 0
    while i < len(lines):
        start = lines[i].find("python -m repro ")
        command = lines[i][start:]
        i += 1
        if start < 0:
            continue
        while True:
            try:
                argv = shlex.split(command, comments=True)
                break
            except ValueError:      # a quoted argument spans lines
                command += "\n" + lines[i]
                i += 1
        commands.append(argv[3:])
    return commands


def _documented_commands():
    with open(README, encoding="utf-8") as fh:
        fenced = "\n".join(fh.read().split("```")[1::2])
    return _repro_commands(fenced) + _repro_commands(repro.cli.__doc__)


@pytest.mark.parametrize("argv", _documented_commands(),
                         ids=lambda argv: " ".join(" ".join(argv).split()))
def test_documented_command_parses(argv):
    """Every command README and the CLI docstring show is accepted as
    written; parsing only, nothing runs."""
    build_parser().parse_args(argv)


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "CA-CQR2" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "fig99"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: unknown figure 'fig99'; known: ")
        assert out.count("\n") == 1


class TestFigures:
    def test_list(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4a", "fig5d", "fig6b", "fig7a"):
            assert name in out

    def test_single_strong(self, capsys):
        assert main(["figures", "fig7b"]) == 0
        out = capsys.readouterr().out
        assert "2097152 x 4096" in out
        assert "CA-CQR2-" in out and "ScaLAPACK-" in out
        assert "best-CA / best-ScaLAPACK" in out

    def test_single_weak(self, capsys):
        assert main(["figures", "fig5a"]) == 0
        out = capsys.readouterr().out
        assert "(8,4)" in out


class TestPlanCommand:
    def test_ranked_table(self, capsys):
        assert main(["plan", "-m", "16384", "-n", "64", "-P", "256",
                     "--machine", "stampede2"]) == 0
        out = capsys.readouterr().out
        assert "screened" in out and "candidates" in out
        assert "rank" in out and "Pareto" in out
        assert "ca_cqr2" in out

    def test_zero_block_size_is_an_error(self, capsys):
        assert main(["plan", "-m", "1024", "-n", "32", "-P", "4",
                     "--no-refine", "-b", "0"]) == 2
        assert capsys.readouterr().out == \
            "error: block_sizes: block size must be positive, got 0\n"
        assert main(["plan", "--lattice", '{"m": [1024], "n": [32], '
                     '"procs": [4]}', "--no-refine", "-b", "0"]) == 2
        assert capsys.readouterr().out == \
            "error: block_sizes: block size must be positive, got 0\n"

    def test_json_export(self, capsys):
        import json

        assert main(["plan", "-m", "16384", "-n", "64", "-P", "256",
                     "--no-refine", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_candidates"] >= 1
        assert data["plans"][0]["algorithm"]
        assert data["problem"]["machine"]["name"] == "stampede2"

    def test_objective_and_restriction(self, capsys):
        assert main(["plan", "-m", "16384", "-n", "64", "-P", "256",
                     "--objective", "memory", "--algorithms", "ca_cqr2",
                     "--no-refine"]) == 0
        out = capsys.readouterr().out
        assert "objective=memory" in out
        assert "caqr" not in out.replace("ca_cqr2", "")

    def test_plan_cache_roundtrip(self, capsys, tmp_path):
        args = ["plan", "-m", "16384", "-n", "64", "-P", "256",
                "--no-refine", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "[cached]" not in first
        assert main(args) == 0
        assert "[cached]" in capsys.readouterr().out
        assert list(tmp_path.glob("*.plan.pkl"))

    def test_infeasible(self, capsys):
        assert main(["plan", "-m", "7", "-n", "3", "-P", "4"]) == 2
        assert "no feasible" in capsys.readouterr().out

    def test_out_of_range_size_is_one_error_line(self, capsys):
        # Past int64 the screen's lanes overflowed: an OverflowError
        # traceback instead of a typed error.
        assert main(["plan", "-m", "99999999999999999999999", "-n", "8",
                     "-P", "4"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: m: ") and out.count("\n") == 1


    def test_huge_procs_is_one_error_line_fast(self, capsys):
        # The grid search looped c up to sqrt(P) and spun for minutes.
        start = time.perf_counter()
        assert main(["plan", "-m", "4096", "-n", "8",
                     "-P", str(2 ** 63 - 1)]) == 2
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert out.startswith("error: ") and out.count("\n") == 1

class TestMachineFile:
    MACHINE: ClassVar[dict] = {"name": "test-rig", "peak_flops_per_node": 1.0e12,
               "injection_bandwidth": 1.0e10, "procs_per_node": 32,
               "alpha": 2.0e-6}

    def _write(self, tmp_path):
        import json

        path = tmp_path / "machine.json"
        path.write_text(json.dumps(self.MACHINE))
        return str(path)

    def test_plan_with_machine_file(self, capsys, tmp_path):
        assert main(["plan", "-m", "16384", "-n", "64", "-P", "256",
                     "--no-refine", "--machine-file",
                     self._write(tmp_path)]) == 0
        assert "test-rig" in capsys.readouterr().out

    def test_factor_with_machine_file(self, capsys, tmp_path):
        assert main(["factor", "-m", "128", "-n", "8", "-c", "2", "-d", "4",
                     "--machine-file", self._write(tmp_path)]) == 0
        assert "||Q^T Q - I||_2" in capsys.readouterr().out

    def test_study_with_machine_file(self, capsys, tmp_path):
        assert main(["study", "-m", "65536", "-n", "256", "-P", "64",
                     "--machine-file", self._write(tmp_path)]) == 0
        assert "modeled_seconds" in capsys.readouterr().out

    def test_missing_file_is_friendly(self, capsys, tmp_path):
        assert main(["plan", "-m", "128", "-n", "8", "-P", "4",
                     "--machine-file", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().out

    def test_bad_schema_is_friendly(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x"}))
        assert main(["plan", "-m", "128", "-n", "8", "-P", "4",
                     "--machine-file", str(bad)]) == 2
        assert "missing" in capsys.readouterr().out


class TestFactorAuto:
    def test_auto_algorithm(self, capsys):
        assert main(["factor", "-m", "4096", "-n", "64", "-a", "auto",
                     "-P", "16", "--machine", "stampede2"]) == 0
        out = capsys.readouterr().out
        assert "16 virtual ranks" in out
        assert "||Q^T Q - I||_2" in out


class TestFactor:
    def test_runs(self, capsys):
        assert main(["factor", "-m", "128", "-n", "8", "-c", "2", "-d", "4"]) == 0
        out = capsys.readouterr().out
        assert "||Q^T Q - I||_2" in out
        assert "16 virtual ranks" in out


class TestAccuracyAndMachines:
    def test_accuracy_small(self, capsys):
        assert main(["accuracy", "--rows", "128", "--cols", "8",
                     "--max-exponent", "5"]) == 0
        out = capsys.readouterr().out
        assert "CholeskyQR2" in out and "Householder" in out

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "stampede2" in out and "blue-waters" in out
        assert "flops-to-bandwidth" in out

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["plan", "-m", "10", "-n", "5", "-P", "4"])
        assert args.procs == 4


class TestFactorViaRegistry:
    def test_algorithm_flag(self, capsys):
        assert main(["factor", "-m", "128", "-n", "8", "-a", "tsqr",
                     "-P", "4"]) == 0
        out = capsys.readouterr().out
        assert "TSQR on 1x4x1" in out
        assert "4 virtual ranks" in out

    def test_scalapack_from_procs(self, capsys):
        assert main(["factor", "-m", "128", "-n", "8", "-a", "scalapack",
                     "-P", "8"]) == 0
        out = capsys.readouterr().out
        assert "PGEQRF" in out and "8 virtual ranks" in out

    def test_capability_error_is_friendly(self, capsys):
        assert main(["factor", "-m", "100", "-n", "8", "-a", "tsqr",
                     "-P", "3"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_unknown_algorithm(self, capsys):
        assert main(["factor", "-a", "householder3d"]) == 2
        assert "registered algorithms" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["ca_cqr2", "tsqr"])
    def test_non_finite_matrix_is_friendly(self, capsys, monkeypatch, algorithm):
        from repro.engine import MatrixSpec

        def with_nan(spec):
            a = np.ones((spec.m, spec.n))
            a[0, 0] = np.nan
            return a

        monkeypatch.setattr(MatrixSpec, "materialize", with_nan)
        assert main(["factor", "-m", "128", "-n", "8", "-a", algorithm,
                     "-P", "4"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: data: ") and "finite" in out


class TestAlgorithms:
    def test_lists_registry(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in ("ca_cqr2", "cqr2_1d", "tsqr", "scalapack", "caqr"):
            assert name in out
        assert "requires:" in out


class TestTraceCommand:
    def test_symbolic_trace_renders_gantt_and_profile(self, capsys):
        assert main(["trace", "--symbolic", "-m", "256", "-n", "16"]) == 0
        out = capsys.readouterr().out
        assert "CA-CQR2 on 2x8x2" in out
        assert "timeline 0 .." in out
        assert "rank    0 |" in out
        assert "phase" in out and "%" in out          # the profile table
        assert "cacqr2.pass1" in out

    def test_numeric_trace_with_procs(self, capsys):
        assert main(["trace", "tsqr", "-P", "8", "-m", "128", "-n", "8"]) == 0
        out = capsys.readouterr().out
        assert "TSQR" in out and "trace events" in out

    def test_max_ranks_truncates_rows(self, capsys):
        assert main(["trace", "--symbolic", "-m", "256", "-n", "16",
                     "--max-ranks", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("rank ") == 4
        assert "more ranks" in out

    def test_capability_error_is_friendly(self, capsys):
        assert main(["trace", "ca_cqr2", "-m", "10", "-n", "7",
                     "-c", "3", "-d", "3"]) == 2
        assert "error:" in capsys.readouterr().out


class TestStudyCommand:
    def test_modeled_study_from_flags(self, capsys):
        assert main(["study", "-m", "65536", "-n", "256", "-P", "64,512",
                     "--machine", "stampede2"]) == 0
        out = capsys.readouterr().out
        assert "algorithm" in out and "modeled_seconds" in out
        assert "CA-CQR2" in out

    def test_executed_study_with_jsonl_resume(self, capsys, tmp_path):
        jsonl = str(tmp_path / "campaign.jsonl")
        args = ["study", "-m", "512", "-n", "16", "-P", "4,8", "--execute",
                "--serial", "--jsonl", jsonl,
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "seconds" in first and "orthogonality" in first
        # Second invocation resumes every row from the JSONL file.
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_executed_study_fills_and_reuses_the_result_cache(
            self, capsys, tmp_path):
        args = ["study", "-m", "512", "-n", "16", "-P", "4,8", "--execute",
                "--serial", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "executed-sweep" in out
        assert "CA-CQR2" in out and "orthogonality" in out
        assert list(tmp_path.glob("*.pkl"))        # cache was populated
        # Second invocation is served from the cache.
        assert main(args) == 0
        assert capsys.readouterr().out == out

    def test_executed_study_resolves_an_alias(self, capsys, tmp_path):
        # pgeqrf is a registered alias of scalapack: its rows are
        # scalapack's, labelled PGEQRF, on the grid the solver picked.
        assert main(["study", "-m", "2048", "-n", "32", "-P", "4,8",
                     "--execute", "--serial", "--cache-dir", str(tmp_path),
                     "--algorithms", "pgeqrf"]) == 0
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()[3:]]
        assert [row[:3] + row[-1:] for row in rows] == [
            ["scalapack", "4", "PGEQRF", "pr=4,pc=1,b=32"],
            ["scalapack", "8", "PGEQRF", "pr=8,pc=1,b=32"]]

    def test_executed_study_rejects_an_unknown_algorithm(self, capsys,
                                                         tmp_path):
        assert main(["study", "-m", "2048", "-n", "32", "-P", "4,8",
                     "--execute", "--serial", "--cache-dir", str(tmp_path),
                     "--algorithms", "tsqr", "nosuch"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: unknown algorithm 'nosuch'; ")
        assert out.count("\n") == 1

    def test_empty_proc_list(self, capsys):
        assert main(["study", "-m", "64", "-n", "8", "-P", ","]) == 2
        assert capsys.readouterr().out == "error: axis 'procs' has no values\n"

    def test_markdown_and_csv_formats(self, capsys):
        assert main(["study", "-m", "65536", "-n", "256", "-P", "64",
                     "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("| procs |")
        assert main(["study", "-m", "65536", "-n", "256", "-P", "64",
                     "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("procs,algorithm")

    def test_spec_file(self, capsys, tmp_path):
        import json

        spec = tmp_path / "study.json"
        spec.write_text(json.dumps({"kind": "accuracy", "m": 128, "n": 8,
                                    "conditions": [1e2, 1e10]}))
        assert main(["study", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "CholeskyQR2" in out and "orthogonality" in out

    def test_missing_flags(self, capsys):
        assert main(["study", "-m", "64"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_zero_block_size_is_an_error(self, capsys, tmp_path):
        import json

        assert main(["study", "-m", "1024", "-n", "32", "-P", "4",
                     "-b", "0"]) == 2
        assert capsys.readouterr().out == \
            "error: block_sizes: block size must be positive, got 0\n"
        spec = tmp_path / "study.json"
        spec.write_text(json.dumps({"kind": "modeled", "m": 1024, "n": 32,
                                    "procs": [4], "block_size": 0}))
        assert main(["study", "--spec", str(spec)]) == 2
        assert capsys.readouterr().out == \
            "error: block_sizes: block size must be positive, got 0\n"

    def test_bad_spec_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["study", "--spec", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().out
        assert main(["study", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().out

    @pytest.mark.parametrize("spec,message", [
        ({"kind": "executed", "algorithms": [5]},
         "algorithms: must be a list of strs, got [5]"),
        ({"kind": "modeled", "algorithms": [5]},
         "algorithms: must be a list of strs, got [5]"),
        ({"kind": "symbolic-scaling", "algorithm": 5},
         "algorithm: must be a string, got int"),
    ], ids=["executed", "modeled", "symbolic-scaling"])
    def test_non_string_algorithm_in_a_spec_file(self, capsys, tmp_path,
                                                 spec, message):
        import json

        path = tmp_path / "study.json"
        path.write_text(json.dumps({**spec, "m": 512, "n": 16,
                                    "procs": [4]}))
        assert main(["study", "--spec", str(path), "--serial",
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        assert capsys.readouterr().out == f"error: {message}\n"


class TestPlanObjectives:
    ARGS: ClassVar[list] = ["plan", "-m", "16384", "-n", "64", "-P", "256", "--no-refine"]

    def test_weighted_objective(self, capsys):
        assert main(self.ARGS + ["--objective", "time=1,memory=1"]) == 0
        out = capsys.readouterr().out
        assert "objective=memory=1,time=1" in out
        # The weighted winner differs from the pure-time winner (caqr/
        # scalapack 2D configs beat cqr2_1d once memory counts equally).
        first = next(line for line in out.splitlines()
                     if line.strip().startswith("1 "))
        assert "cqr2_1d" not in first

    def test_budget_constraint(self, capsys):
        assert main(self.ARGS + ["--budget", "memory<=20000"]) == 0
        out = capsys.readouterr().out
        assert "s.t. memory<=20000" in out
        assert "! = over budget" in out
        first = next(line for line in out.splitlines()
                     if line.strip().startswith("1 "))
        assert "!" not in first          # the winner is within budget

    def test_bad_objective_is_friendly(self, capsys):
        assert main(self.ARGS + ["--objective", "latency"]) == 2
        assert "error:" in capsys.readouterr().out
        assert main(self.ARGS + ["--budget", "memory>9"]) == 2
        assert "error:" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--objective", "time=1,memory=1e400"],
        ["--objective", "time=inf"],
        ["--budget", "memory<=1e400"],
    ])
    def test_non_finite_objective_is_an_error(self, capsys, flags):
        # Accepting it printed a bare `Infinity` token in --json output.
        assert main(self.ARGS + flags + ["--json"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:") and "finite" in out

    def test_non_finite_machine_file_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "inf.json"
        bad.write_text('{"name": "x", "peak_flops_per_node": 1e12, '
                       '"injection_bandwidth": 1e400, "procs_per_node": 4, '
                       '"alpha": 1e-6}')
        assert main(self.ARGS + ["--machine-file", str(bad), "--json"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: machine:") and "finite" in out

    @pytest.mark.parametrize("field, value", [
        ("peak_flops_per_node", "true"), ("name", "5"),
        ("peak_flops_per_node", "1e-300")],
        ids=["bool-rate", "int-name", "overflowing-rate"])
    def test_bad_machine_file_is_one_error_line(self, capsys, tmp_path,
                                                 field, value):
        machine = {"name": '"x"', "peak_flops_per_node": "1e12",
                   "injection_bandwidth": "1e10", "procs_per_node": "4",
                   "alpha": "1e-6", field: value}
        bad = tmp_path / "machine.json"
        bad.write_text("{" + ", ".join(f'"{k}": {v}'
                                       for k, v in machine.items()) + "}")
        assert main(self.ARGS + ["--machine-file", str(bad), "--json"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: machine:") and out.count("\n") == 1

    def test_json_includes_budget_flag(self, capsys):
        import json

        assert main(self.ARGS + ["--budget", "memory<=20000", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all("within_budget" in plan for plan in data["plans"])
        assert data["plans"][0]["within_budget"] is True


class TestPlannerAwareSweep:
    def test_auto_sweep_matches_per_point_explicit_runs(self, capsys):
        """`study --execute --algorithms auto` == resolving + running each
        point, and each row names the planned algorithm and config."""
        from repro.engine import MatrixSpec, RunSpec, solver_for
        from repro.plan import Planner, ProblemSpec
        from repro.session import default_session

        session = default_session()
        assert main(["study", "-m", "2048", "-n", "32", "-P", "4,64",
                     "--execute", "--serial", "--algorithms", "auto",
                     "--machine", "stampede2"]) == 0
        rows = {int(row[1]): row for row in
                (line.split() for line in
                 capsys.readouterr().out.splitlines()[3:])}
        for procs in (4, 64):
            spec = RunSpec(algorithm="auto", matrix=MatrixSpec(2048, 32),
                           procs=procs, machine="stampede2")
            expected = session.run(session.resolve(spec))
            best = Planner(refine=None).plan(ProblemSpec(
                m=2048, n=32, procs=procs, machine="stampede2")).best()
            algorithm, _, label, seconds, ortho, *_, config = rows[procs]
            assert (algorithm, label, config) == (
                "auto", solver_for(best.algorithm).label, best.config)
            assert seconds == f"{expected.report.critical_path_time:.4g}"
            assert ortho == f"{expected.orthogonality_error():.1e}"

    def test_auto_runs_alongside_named_algorithms(self, capsys, tmp_path):
        """An `auto` row next to the solver it plans to is the same run."""
        assert main(["study", "-m", "512", "-n", "16", "-P", "4",
                     "--execute", "--serial", "--cache-dir", str(tmp_path),
                     "--algorithms", "auto", "tsqr"]) == 0
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()[3:]]
        assert [row[0] for row in rows] == ["auto", "tsqr"]
        assert rows[0][1:] == rows[1][1:]
        assert rows[0][2] == "TSQR" and rows[0][-1] == "P=4"


class TestCacheCommand:
    def test_info_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["study", "-m", "512", "-n", "16", "-P", "4", "--execute",
                     "--serial", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        entries = int(out.split("entries :")[1].split()[0])
        assert entries > 0
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
        assert "entries : 0" in capsys.readouterr().out

    def test_info_on_missing_dir(self, capsys, tmp_path):
        assert main(["cache", "info", "--cache-dir",
                     str(tmp_path / "nope")]) == 0
        assert "entries : 0" in capsys.readouterr().out

    def test_info_json_surveys_both_caches(self, capsys, monkeypatch,
                                           tmp_path):
        import json
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "r"))
        monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(tmp_path / "p"))
        assert main(["cache", "info", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert sorted(info) == ["plan", "result"]
        for name in ("plan", "result"):
            assert sorted(info[name]) == ["bytes", "entries", "path"]

    def test_shared_directory_keeps_caches_apart(self, capsys, monkeypatch,
                                                 tmp_path):
        """The result and plan caches may share one directory."""
        import json

        import repro.session as session_module

        for env in ("REPRO_CACHE_DIR", "REPRO_PLAN_CACHE_DIR"):
            monkeypatch.setenv(env, str(tmp_path))
        monkeypatch.setattr(session_module, "_default_session", None)
        assert main(["plan", "-m", "16384", "-n", "64", "-P", "256"]) == 0
        assert main(["study", "-m", "512", "-n", "16", "-P", "4",
                     "--execute", "--serial"]) == 0
        capsys.readouterr()

        def entries():
            assert main(["cache", "info", "--json"]) == 0
            info = json.loads(capsys.readouterr().out)
            return {name: info[name]["entries"] for name in ("result", "plan")}

        before = entries()
        assert before["result"] > 0 and before["plan"] == 1
        # Every file is counted once, by the cache that wrote it.
        assert sum(before.values()) == len(list(tmp_path.iterdir()))
        assert main(["cache", "clear"]) == 0
        assert f"removed {before['result']} " in capsys.readouterr().out
        assert entries() == {**before, "result": 0}

    def test_info_json_selected_cache_counts_entries(self, capsys, tmp_path):
        import json

        from repro.plan.cache import PlanCache
        cache_dir = str(tmp_path)
        PlanCache(cache_dir).store("k", {"plan": 1})
        assert main(["cache", "info", "--json", "--plan",
                     "--cache-dir", cache_dir]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["plan"]["entries"] == 1
        assert info["plan"]["bytes"] > 0


#: Every command path that prices or runs a block size.  Only an absent
#: ``-b`` takes the default; any other value reaches validation.
BLOCK_SIZE_RUNS = {
    "plan": ["plan", "-m", "1024", "-n", "32", "-P", "4", "--no-refine"],
    "plan-lattice": ["plan", "--lattice",
                     '{"m": [1024], "n": [32], "procs": [4]}', "--no-refine"],
    "factor-pgeqrf": ["factor", "-a", "pgeqrf", "-m", "128", "-n", "8",
                      "-P", "4"],
    "factor-caqr": ["factor", "-a", "caqr", "-m", "128", "-n", "8", "-P", "4"],
    "study": ["study", "-m", "1024", "-n", "32", "-P", "4"],
    "study-execute": ["study", "-m", "512", "-n", "16", "-P", "4",
                      "--execute", "--serial"],
    "study-execute-auto": ["study", "-m", "1024", "-n", "32", "-P", "4",
                           "--execute", "--serial", "--algorithms", "auto"],
    "study-execute-pgeqrf": ["study", "-m", "1024", "-n", "32", "-P", "4",
                             "--execute", "--serial", "--algorithms",
                             "pgeqrf"],
    "study-symbolic": ["study", "-m", "1024", "-n", "32", "-P", "4",
                       "--symbolic", "--serial"],
}


class TestBlockSizeValidation:
    @staticmethod
    def assert_one_error_line(out, message):
        assert out.startswith("error: ") and out.count("\n") == 1
        assert out.endswith(f"{message}\n")

    @pytest.mark.parametrize("block_size", [0, -1])
    @pytest.mark.parametrize("run", sorted(BLOCK_SIZE_RUNS))
    def test_nonpositive_block_size_is_an_error(self, capsys, tmp_path, run,
                                                block_size):
        argv = BLOCK_SIZE_RUNS[run] + ["-b", str(block_size)]
        if argv[0] == "study":
            argv += ["--cache-dir", str(tmp_path)]
        assert main(argv) == 2
        self.assert_one_error_line(capsys.readouterr().out,
                                   f"must be positive, got {block_size}")

    @pytest.mark.parametrize("block_size,message", [
        (0, "must be positive, got 0"),
        (-1, "must be positive, got -1"),
        ("x", "error: block_size: must be an integer, got str"),
        (1.5, "error: block_size: must be an integer, got float")],
        ids=["zero", "negative", "string", "float"])
    @pytest.mark.parametrize("kind", [
        {"kind": "modeled"}, {"kind": "executed"},
        {"kind": "executed", "mode": "symbolic"}],
        ids=["modeled", "executed", "executed-symbolic"])
    def test_bad_block_size_in_a_spec_file(self, capsys, tmp_path, kind,
                                           block_size, message):
        import json

        spec = tmp_path / "study.json"
        spec.write_text(json.dumps({**kind, "m": 512, "n": 16,
                                    "procs": [4], "block_size": block_size}))
        assert main(["study", "--spec", str(spec), "--serial",
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        self.assert_one_error_line(capsys.readouterr().out, message)


class TestValidationErrors:
    def test_plan_rejects_malformed_machine_file(self, capsys, tmp_path):
        bad = tmp_path / "machine.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["plan", "-m", "512", "-n", "16", "-P", "4",
                     "--machine-file", str(bad), "--no-refine"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: machine:")
        assert "not valid JSON" in out

    def test_lattice_reports_a_malformed_machine_file(self, capsys, tmp_path):
        # The lattice is valid JSON; the machine file is not.
        bad = tmp_path / "machine.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["plan", "--lattice", '{"m": 4096, "n": 32, "procs": 16}',
                     "--machine-file", str(bad), "--no-refine"]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: machine: machine file {str(bad)!r} "
                              "is not valid JSON")
        assert out.count("\n") == 1

    def test_plan_rejects_unknown_machine_field(self, capsys, tmp_path):
        import json
        bad = tmp_path / "machine.json"
        bad.write_text(json.dumps({"name": "x", "bogus_field": 1}),
                       encoding="utf-8")
        assert main(["plan", "-m", "512", "-n", "16", "-P", "4",
                     "--machine-file", str(bad), "--no-refine"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: machine:")

    @pytest.mark.parametrize("argv,message", [
        (["trace", "-m", "128", "-n", "8", "-c", "2", "-d", "4",
          "--width", "0"], "Gantt width must be positive, got 0"),
        (["serve", "--port", "0", "--workers", "0"],
         "workers must be positive, got 0"),
        (["serve", "--port", "0", "--lru-capacity", "-1"],
         "LRU capacity must be positive, got -1"),
        (["accuracy", "--rows", "0"], "m must be positive, got 0"),
        (["accuracy", "--max-exponent", "0"],
         "axis 'condition' has no values"),
        (["plan", "-m", "4096", "-n", "64", "-P", "16", "--no-refine",
          "--limit", "-1"], "limit must be positive, got -1"),
        (["trace", "-m", "256", "-n", "16", "-c", "2", "-d", "4",
          "--max-ranks", "-3"], "max-ranks must be positive, got -3"),
        (["trace", "-m", "256", "-n", "16", "-c", "2", "-d", "4",
          "--depth", "0"], "depth must be positive, got 0"),
        (["serve", "--port", "70000"], "port: must be in 0..65535, got 70000"),
        (["serve", "--port", "-5"], "port: must be in 0..65535, got -5"),
        (["study", "-m", "512", "-n", "16", "-P", "4,8", "--execute",
          "--jobs", "-1"], "jobs must be positive, got -1"),
        (["study", "-m", "512", "-n", "16", "-P", "4,8", "--jobs", "0"],
         "jobs must be positive, got 0"),
        (["study", "-m", "512", "-n", "16", "-P", "4,8", "--execute",
          "--jobs", "-2"], "jobs must be positive, got -2"),
        (["study", "-m", "512", "-n", "16", "-P", "4,8", "--jobs", "-3"],
         "jobs must be positive, got -3"),
        (["study", "-m", "2048", "-n", "32", "-P", "4,4"],
         "axis 'procs' repeats 4"),
        (["study", "-m", "2048", "-n", "32", "-P", "4", "--execute",
          "--algorithms", "pgeqrf", "scalapack"],
         "axis 'algorithm' repeats 'scalapack'"),
    ])
    def test_bad_values_are_one_line_errors(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().out == f"error: {message}\n"

    @pytest.mark.parametrize("argv,field,ranks", [
        (["trace", "cqr2_1d", "-m", str(2 ** 36), "-n", "8",
          "-P", str(2 ** 33), "--symbolic"], "procs", 2 ** 33),
        (["factor", "-a", "cqr2_1d", "-m", "64", "-n", "8",
          "-P", str(2 ** 33)], "procs", 2 ** 33),
        (["trace", "ca_cqr2", "-m", "1024", "-n", "8", "-c", "8",
          "-d", str(2 ** 19), "--symbolic"], "d", 2 ** 25),
        (["factor", "-a", "scalapack", "-m", "64", "-n", "8",
          "--pr", str(2 ** 33), "--pc", "1"], "pc", 2 ** 33),
    ])
    def test_machine_too_large_to_allocate_is_one_error_line(
            self, capsys, argv, field, ranks):
        # A 2**33-rank machine died allocating 64 GiB of clocks.
        from repro.engine.spec import MAX_RANKS

        assert main(argv) == 2
        assert capsys.readouterr().out == (
            f"error: {field}: {ranks} ranks exceed the {MAX_RANKS}-rank "
            f"limit of a simulated machine\n")


    def test_trace_past_the_traced_rank_limit_is_one_error_line(self, capsys):
        from repro.session import MAX_TRACED_RANKS

        d = 2 * MAX_TRACED_RANKS // 16
        assert main(["trace", "ca_cqr2", "-m", str(16 * d), "-n", "64",
                     "-c", "4", "-d", str(d), "--symbolic"]) == 2
        assert capsys.readouterr().out == (
            f"error: procs: {16 * d} ranks exceed the {MAX_TRACED_RANKS}-rank "
            f"limit of a traced run (one event per rank per charge)\n")


class TestServeCommand:
    def test_parser_wires_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--port", "0",
                                          "--workers", "2"])
        assert args.func.__name__ == "_cmd_serve"
        assert args.port == 0 and args.workers == 2
        assert args.lru_capacity == 128 and args.port_file is None

    def test_serve_round_trip_over_http(self, tmp_path):
        import json
        import threading
        import time
        import urllib.request

        from repro import cli as cli_module

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "1",
             "--cache-dir", str(tmp_path / "plans"),
             "--port-file", str(tmp_path / "port.txt"), "--no-refine"])
        thread = threading.Thread(target=cli_module._cmd_serve, args=(args,),
                                  daemon=True)
        thread.start()
        port_file = tmp_path / "port.txt"
        for _ in range(200):
            if port_file.exists() and port_file.read_text().strip():
                break
            time.sleep(0.05)
        port = int(port_file.read_text().strip())
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30) as resp:
            assert json.loads(resp.read())["status"] == "ok"
