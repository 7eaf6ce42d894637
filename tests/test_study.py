"""Tests for repro.study: the declarative campaign API."""

import json
import os

import pytest

from repro import Session
from repro.costmodel.params import STAMPEDE2
from repro.engine import MatrixSpec, RunSpec, solvers
from repro.plan import Objective, Planner, ProblemSpec
from repro.study import (
    Axis,
    RawField,
    ResultTable,
    Row,
    Study,
    executed_sweep_study,
    expand,
    grid_size,
    load_partial,
    study_from_dict,
)
from repro.utils.validation import ValidationError


# ---------------------------------------------------------------------------
# Axes
# ---------------------------------------------------------------------------

class TestAxes:
    def test_expand_row_major_with_indices(self):
        pts = list(expand([Axis("a", (1, 2)), Axis("b", ("x", "y"))]))
        assert [p.index for p in pts] == [0, 1, 2, 3]
        assert [p.values for p in pts] == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]
        assert grid_size([Axis("a", (1, 2)), Axis("b", ("x", "y"))]) == 4

    def test_rich_values_get_string_labels(self):
        class Variant:
            def __str__(self):
                return "CA-(1N,8)"

        pts = list(expand([Axis("variant", (Variant(),))]))
        assert pts[0].labels == {"variant": "CA-(1N,8)"}
        assert isinstance(pts[0].values["variant"], Variant)

    def test_explicit_labels(self):
        ax = Axis("step", ((2, 1), (1, 2)), labels=("(2,1)", "(1,2)"))
        assert ax.label(1) == "(1,2)"

    def test_validation(self):
        with pytest.raises(ValueError, match="no values"):
            Axis("a", ())
        with pytest.raises(ValueError, match="labels"):
            Axis("a", (1, 2), labels=("one",))
        with pytest.raises(ValueError, match="duplicate"):
            list(expand([Axis("a", (1,)), Axis("a", (2,))]))

    def test_repeated_labels_are_rejected(self):
        # Two points with one label would share a resume key.
        with pytest.raises(ValueError, match="axis 'procs' repeats 4"):
            Axis("procs", (4, 8, 4))
        with pytest.raises(ValueError, match=r"repeats '\(2,1\)'"):
            Axis("step", ((2, 1), (1, 2)), labels=("(2,1)", "(2,1)"))
        # Equal values under distinct labels are distinct points.
        assert len(Axis("a", (1, 1), labels=("x", "y"))) == 2

    def test_point_key_is_order_independent(self):
        pts = list(expand([Axis("a", (1,)), Axis("b", (2,))]))
        pts_swapped = list(expand([Axis("b", (2,)), Axis("a", (1,))]))
        assert pts[0].key == pts_swapped[0].key


# ---------------------------------------------------------------------------
# ResultTable
# ---------------------------------------------------------------------------

def _toy_table():
    table = ResultTable(point_columns=["alg", "p"], value_columns=["t"],
                        name="toy", formats={"t": "{:.2f}"})
    table.append(Row(index=2, point={"alg": "b", "p": 4}, values={"t": 3.0}))
    table.append(Row(index=0, point={"alg": "a", "p": 4}, values={"t": 1.0}))
    table.append(Row(index=1, point={"alg": "a", "p": 8}, values={}, ok=False))
    return table


class TestResultTable:
    def test_finalize_orders_by_index(self):
        table = _toy_table().finalize()
        assert [r.index for r in table.rows] == [0, 1, 2]

    def test_filter_and_first(self):
        table = _toy_table().finalize()
        assert len(table.filter(alg="a")) == 2
        assert table.filter(lambda r: r.ok, alg="a").rows[0].values["t"] == 1.0
        assert table.first(alg="b").point["p"] == 4
        assert table.first(alg="zz") is None

    def test_pivot(self):
        rows, cols, cells = _toy_table().finalize().pivot("alg", "p", "t")
        assert rows == ["a", "b"] and cols == [4]
        assert cells[("a", 4)] == 1.0 and ("a", 8) not in cells

    def test_renderings(self):
        table = _toy_table().finalize()
        text = table.to_text()
        assert text.splitlines()[0] == "toy"
        assert "1.00" in text and "-" in text       # infeasible renders as -
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == "alg,p,t"
        assert "a,8," in csv_text                    # infeasible -> empty cell
        md = table.to_markdown()
        assert md.splitlines()[0] == "| alg | p | t |"

    def test_empty_table_renders(self):
        table = ResultTable(["a"], ["t"], name="empty")
        assert "no points" in table.to_text()

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        table = _toy_table().finalize()
        table.save(path)
        loaded = ResultTable.load(path)
        assert loaded.point_columns == ["alg", "p"]
        assert [r.values for r in loaded.rows] == [r.values for r in table.rows]
        assert [r.ok for r in loaded.rows] == [True, False, True]

    def test_load_partial_tolerates_truncated_tail(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        _toy_table().finalize().save(path)
        with open(path, "ab") as fh:
            fh.write(b'{"i": 9, "point": {"alg"')     # killed mid-write
        header, rows, good_end = load_partial(path)
        assert header["study"] == "toy"
        assert len(rows) == 3
        assert good_end < os.path.getsize(path)

    def test_load_partial_missing_file(self, tmp_path):
        assert load_partial(str(tmp_path / "nope.jsonl")) == (None, [], 0)


# ---------------------------------------------------------------------------
# Study core (custom evaluator)
# ---------------------------------------------------------------------------

def _square_study(values=(1, 2, 3), name="squares", calls=None):
    def evaluate(point):
        if calls is not None:
            calls.append(point["x"])
        if point["x"] < 0:
            return None                               # infeasible
        return {"sq": point["x"] ** 2}

    return Study(name=name, axes=(Axis("x", tuple(values)),),
                 metrics=(RawField("sq", "{}"),), evaluate=evaluate)


class TestStudyCore:
    def test_run_produces_grid_ordered_table(self):
        table = _square_study().run()
        assert [r.values["sq"] for r in table.rows] == [1, 4, 9]
        assert table.name == "squares"

    def test_infeasible_points_recorded_not_raised(self):
        table = _square_study(values=(-1, 2)).run()
        assert [r.ok for r in table.rows] == [False, True]

    def test_stream_reports_progress(self):
        seen = []
        rows = list(_square_study().stream(
            progress=lambda info: seen.append((info.done, info.total))))
        assert len(rows) == 3
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            Study(name="s", axes=(Axis("x", (1,)),), metrics=())
        with pytest.raises(ValueError, match="duplicate column"):
            Study(name="s", axes=(Axis("x", (1,)),),
                  metrics=(RawField("x"),), evaluate=lambda p: {})


# ---------------------------------------------------------------------------
# Persistence + resume
# ---------------------------------------------------------------------------

class TestResume:
    def test_interrupted_campaign_resumes_only_missing_points(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        values = tuple(range(6))

        # The uninterrupted reference run (no persistence).
        reference = _square_study(values).run()

        # A full persisted run, then simulate a mid-campaign kill: keep the
        # header + first 3 rows and a half-written 4th record.
        _square_study(values).run(jsonl_path=path)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:4])                 # header + 3 rows
            fh.write(lines[4][: len(lines[4]) // 2])  # truncated record

        calls = []
        resumed = _square_study(values, calls=calls).run(jsonl_path=path)

        # Only the missing points executed (the truncated one + the rest).
        assert calls == [3, 4, 5]
        # The final table is identical to the uninterrupted run's.
        assert resumed.to_text() == reference.to_text()
        assert [r for r in resumed.rows] == [r for r in reference.rows]
        # And the file itself is whole again: a fresh resume runs nothing.
        calls.clear()
        again = _square_study(values, calls=calls).run(jsonl_path=path)
        assert calls == []
        assert again.to_text() == reference.to_text()

    def test_resume_rejects_foreign_study_file(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        _square_study(name="mine").run(jsonl_path=path)
        with pytest.raises(ValueError, match="different study"):
            _square_study(name="other").run(jsonl_path=path)

    def test_fresh_overwrites_existing_file(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        _square_study(name="mine").run(jsonl_path=path)
        calls = []
        _square_study(name="other", calls=calls).run(jsonl_path=path,
                                                     resume=False)
        assert calls == [1, 2, 3]                    # everything re-ran
        with open(path, "r", encoding="utf-8") as fh:
            assert json.loads(fh.readline())["study"] == "other"

    def test_non_study_file_is_refused_not_clobbered(self, tmp_path):
        path = str(tmp_path / "notes.txt")
        with open(path, "w") as fh:
            fh.write("precious non-study content\n")
        with pytest.raises(ValueError, match="not a study results file"):
            _square_study().run(jsonl_path=path)
        with open(path, "r") as fh:
            assert fh.read() == "precious non-study content\n"  # untouched
        # An explicit resume=False replaces it.
        table = _square_study().run(jsonl_path=path, resume=False)
        assert len(table) == 3
        header, rows, _ = load_partial(path)
        assert header["study"] == "squares" and len(rows) == 3

    def test_resume_rejects_changed_parameterization(self, tmp_path):
        # Same grid + study name, different non-axis parameters (machine,
        # seed): resuming must refuse rather than return stale rows.
        path = str(tmp_path / "campaign.jsonl")
        kwargs = dict(m=256, n=8, proc_counts=(4,), algorithms=("tsqr",),
                      name="fixed-name")
        executed_sweep_study(machine="stampede2", **kwargs).run(
            parallel=False, jsonl_path=path)
        with pytest.raises(ValueError, match="parameterization"):
            executed_sweep_study(machine="blue-waters", **kwargs).run(
                parallel=False, jsonl_path=path)
        with pytest.raises(ValueError, match="parameterization"):
            executed_sweep_study(machine="stampede2", seed=9, **kwargs).run(
                parallel=False, jsonl_path=path)


# ---------------------------------------------------------------------------
# Engine-backed studies
# ---------------------------------------------------------------------------

class TestExecutedStudy:
    def test_matches_direct_engine_run(self):
        study = executed_sweep_study(m=256, n=8, proc_counts=(4,),
                                     algorithms=("ca_cqr2",), seed=3)
        table = study.run(parallel=False)
        assert len(table) == 1
        direct = Session().run(RunSpec(algorithm="ca_cqr2",
                                       matrix=MatrixSpec(256, 8, seed=3),
                                       procs=4))
        row = table.rows[0]
        assert row.values["seconds"] == direct.report.critical_path_time
        assert row.values["orthogonality"] == direct.orthogonality_error()
        assert row.values["messages"] == direct.report.max_cost.messages

    def test_label_and_config_name_the_prepared_spec(self):
        from repro.engine import solver_for

        session = Session()
        study = executed_sweep_study(m=256, n=8, proc_counts=(4,),
                                     algorithms=("ca_cqr2", "scalapack"))
        for row in study.run(parallel=False, session=session):
            spec = RunSpec(algorithm=row.point["algorithm"],
                           matrix=MatrixSpec(256, 8), procs=4)
            solver = solver_for(spec.algorithm)
            prepared = solver.prepare(session.resolve(spec))
            assert row.values["label"] == solver.label
            assert row.values["config"] == (
                f"{prepared.c}x{prepared.d}x{prepared.c}"
                if prepared.c is not None else
                f"pr={prepared.pr},pc={prepared.pc},b={prepared.block_size}")

    def test_aliases_name_their_solver(self):
        study = executed_sweep_study(m=256, n=8, proc_counts=(4,),
                                     algorithms=("pgeqrf", "tsqr", "auto"))
        assert study.axes[0].values == ("scalapack", "tsqr", "auto")
        with pytest.raises(ValueError,
                           match="axis 'algorithm' repeats 'scalapack'"):
            executed_sweep_study(m=256, n=8, proc_counts=(4,),
                                 algorithms=("pgeqrf", "scalapack"))

    def test_infeasible_scale_recorded(self):
        # TSQR needs m/P >= n: infeasible at P=64 for 256x8? 256/64=4 < 8.
        study = executed_sweep_study(m=256, n=8, proc_counts=(4, 64),
                                     algorithms=("tsqr",))
        table = study.run(parallel=False)
        assert [r.ok for r in table.rows] == [True, False]

    def test_symbolic_mode_has_costs_but_no_accuracy(self):
        study = executed_sweep_study(m=512, n=16, proc_counts=(8,),
                                     algorithms=("ca_cqr2",), mode="symbolic")
        row = study.run(parallel=False).rows[0]
        assert row.ok
        assert row.values["seconds"] > 0
        assert row.values["orthogonality"] is None
        assert row.values["residual"] is None

    def test_cached_resume_uses_engine_cache(self, tmp_path):
        study = executed_sweep_study(m=256, n=8, proc_counts=(2, 4),
                                     algorithms=("cqr2_1d",))
        cold = study.run(parallel=False, cache_dir=str(tmp_path))
        warm = study.run(parallel=False, cache_dir=str(tmp_path))
        assert cold.to_text() == warm.to_text()
        assert list(tmp_path.glob("*.pkl"))

    def test_jsonl_resume_is_byte_identical(self, tmp_path):
        path = str(tmp_path / "exec.jsonl")
        study = executed_sweep_study(m=256, n=8, proc_counts=(2, 4),
                                     algorithms=("ca_cqr2", "tsqr"))
        reference = study.run(parallel=False)
        study.run(parallel=False, jsonl_path=path)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:3])                 # header + 2 of 4 rows
        resumed = study.run(parallel=False, jsonl_path=path)
        assert resumed.to_text() == reference.to_text()


# ---------------------------------------------------------------------------
# study_from_dict (the CLI spec-file schema)
# ---------------------------------------------------------------------------

def _comparison(m, n, procs, block_size=32, algorithms=None,
                machine=STAMPEDE2):
    """The algorithm-comparison planner study: one algorithm per point."""
    return study_from_dict({
        "kind": "planner", "m": m, "n": n, "procs": list(procs),
        "machine": machine,
        "algorithms": [[a] for a in algorithms or [s.name for s in solvers()]],
        "block_sizes": [block_size], "inverse_depths": [0]})


def _crossover(m, n, nodes, machine=STAMPEDE2):
    """The crossover planner study: CA-CQR2's and PGEQRF's best plans."""
    return study_from_dict({
        "kind": "planner", "m": m, "n": n, "machine": machine,
        "procs": [k * machine.procs_per_node for k in nodes],
        "algorithms": [["ca_cqr2"], ["scalapack"]],
        "block_sizes": [16, 32, 64], "inverse_depths": [0]})


class TestStudyFromDict:
    def test_executed_kind(self):
        study = study_from_dict({"kind": "executed", "m": 256, "n": 8,
                                 "procs": [4], "algorithms": ["tsqr"]})
        table = study.run(parallel=False)
        assert table.rows[0].ok

    def test_comparison_spec(self):
        study = _comparison(2 ** 16, 2 ** 8, [2 ** 6])
        table = study.run(parallel=False)
        assert any(r.ok for r in table.rows)
        assert "modeled_seconds" in table.value_columns

    def test_accuracy_kind(self):
        study = study_from_dict({"kind": "accuracy", "m": 128, "n": 8,
                                 "conditions": [1e2, 1e10]})
        table = study.run(parallel=False)
        assert len(table) == 2 * 5

    def test_unknown_kind_and_missing_keys(self):
        for kind in ("nope", 5, ["executed"], "modeled", "symbolic-scaling"):
            with pytest.raises(ValidationError,
                               match="unknown study kind") as info:
                study_from_dict({"kind": kind, "m": 4, "n": 2})
            assert info.value.field == "kind"
        with pytest.raises(ValueError, match="needs 'procs'"):
            study_from_dict({"kind": "executed", "m": 4, "n": 2})

    def test_unknown_machine_is_value_error(self):
        # The CLI's error contract: bad input -> ValueError -> `error: ...`.
        for kind in ("executed", "planner"):
            with pytest.raises(ValueError, match="unknown machine"):
                study_from_dict({"kind": kind, "m": 64, "n": 8,
                                 "procs": [4], "machine": "bogus"})


# ---------------------------------------------------------------------------
# The planner study: a problem grid, planned in one batched search
# ---------------------------------------------------------------------------

def _assert_rows_are_plans(table, problems):
    """Each row is its problem's screen-only best plan, planned alone."""
    planner = Planner(refine=None)
    assert len(table.rows) == len(problems)
    for row, problem in zip(table.rows, problems):
        best = planner.plan(problem).best()
        assert (row.values["algorithm"], row.values["config"],
                row.values["modeled_seconds"]) == \
            (best.algorithm, best.config, best.seconds), problem


class TestPlannerStudy:
    def test_axes_multiply_out_in_product_order(self):
        study = study_from_dict({
            "kind": "planner", "m": [1024, 4096], "n": 32, "procs": [8, 16],
            "machine": ["stampede2", "blue-waters"], "mode": "symbolic"})
        points = [pt.labels for pt in study.points()]
        assert len(points) == 8
        assert [p["m"] for p in points[:4]] == [1024] * 4
        assert [p["procs"] for p in points[:2]] == [8, 8]
        assert [p["machine"] for p in points[:2]] == ["stampede2",
                                                      "blue-waters"]
        _assert_rows_are_plans(study.run(), [
            ProblemSpec(m=p["m"], n=32, procs=p["procs"],
                        machine=p["machine"], mode="symbolic")
            for p in points])

    def test_aspects_spelling(self):
        study = study_from_dict({"kind": "planner", "aspects": [4, 16],
                                 "n": 64, "procs": 16})
        assert [pt.labels for pt in study.points()] == [{"aspect": 4},
                                                        {"aspect": 16}]
        _assert_rows_are_plans(study.run(), [
            ProblemSpec(m=256, n=64, procs=16),
            ProblemSpec(m=1024, n=64, procs=16)])
        with pytest.raises(ValidationError, match="not both"):
            study_from_dict({"kind": "planner", "aspects": [4], "m": 256,
                             "n": 64, "procs": 4})
        with pytest.raises(ValidationError, match="needs n"):
            study_from_dict({"kind": "planner", "aspects": [4], "procs": 4})

    def test_scalar_axes_give_one_point(self):
        study = study_from_dict({"kind": "planner", "m": 1024, "n": 32,
                                 "procs": 8})
        assert study.axes == () and len(study) == 1
        _assert_rows_are_plans(study.run(),
                               [ProblemSpec(m=1024, n=32, procs=8)])

    def test_bad_axes_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            study_from_dict({"kind": "planner", "m": [], "n": 32,
                             "procs": 8})
        with pytest.raises(ValidationError):
            study_from_dict({"kind": "planner", "m": 1024, "n": 32,
                             "procs": 8, "machine": ["no-such-machine"]})
        with pytest.raises(ValueError, match="JSON object"):
            study_from_dict([1, 2, 3])

    def test_objective_axis_round_trips(self):
        study = study_from_dict({
            "kind": "planner", "m": 1024, "n": 32, "procs": 8,
            "objective": ["time", "time=1,memory=0.2"]})
        labels = [pt.labels["objective"] for pt in study.points()]
        assert labels == ["time", str(Objective.parse("time=1,memory=0.2"))]
        _assert_rows_are_plans(study.run(), [
            ProblemSpec(m=1024, n=32, procs=8, objective=objective)
            for objective in ("time", Objective.parse("time=1,memory=0.2"))])

    @pytest.mark.parametrize("spec,field", [
        ({"m": [], "n": 32, "procs": 8}, "m"),
        ({"aspects": [], "n": 32, "procs": 8}, "aspects"),
        ({"aspects": [4], "m": 128, "n": 32, "procs": 8}, "aspects"),
        ({"aspects": [4], "procs": 8}, "aspects"),
        ({"aspects": [4.5], "n": 32, "procs": 8}, "aspects"),
        ({"aspects": [True], "n": 32, "procs": 8}, "aspects"),
        ({"aspects": [0], "n": 32, "procs": 8}, "aspects"),
        ({"aspects": 4, "n": 32, "procs": 8}, "aspects"),
        ({"m": 128, "n": 32, "procs": 8, "machine": "bogus"}, "machine"),
        ({"m": 128, "n": 32, "procs": 8, "machine": ["stampede2", 5]},
         "machine"),
        ({"m": 128, "n": 32, "procs": 8, "objective": "latency"},
         "objective"),
        ({"m": 128, "n": [32, 32.5], "procs": 8}, "n"),
        ({"aspects": [4], "n": 32.5, "procs": 8}, "n"),
        ({"m": 128, "n": 32, "procs": [8], "block_sizes": [0]},
         "block_sizes"),
        ({"m": 128, "n": 32, "procs": 8, "algorithms": [["tsqr"], []]},
         "algorithms"),
        ({"m": 128, "n": 32, "procs": 8, "algorithms": [["tsqr"], ["nope"]]},
         "algorithms"),
        ({"m": 128, "n": 32, "procs": 8, "algorithms": [["tsqr"], "caqr"]},
         "algorithms"),
        ({"m": 128, "n": 32, "procs": 8, "algorithms": [["tsqr"], [5]]},
         "algorithms"),
    ], ids=["empty-m", "empty-aspects", "m-and-aspects", "aspects-without-n",
            "float-aspect", "bool-aspect", "zero-aspect", "scalar-aspects",
            "unknown-machine", "non-string-machine", "unknown-objective",
            "float-n-axis", "float-n-with-aspects", "zero-block-size",
            "empty-algorithms-item", "unknown-algorithm-in-axis",
            "mixed-flat-and-nested-algorithms", "non-string-algorithm-in-axis"])
    def test_each_check_names_its_field(self, spec, field):
        with pytest.raises(ValidationError) as info:
            study_from_dict({"kind": "planner", **spec})
        assert info.value.field == field

    def test_algorithms_axis_restricts_each_point(self):
        study = study_from_dict({
            "kind": "planner", "m": 4096, "n": 32, "procs": [16, 64],
            "algorithms": [["ca_cqr2"], ["pgeqrf", "caqr"], ["tsqr"]]})
        points = [pt.labels for pt in study.points()]
        assert [p["algorithms"] for p in points] == \
            ["ca_cqr2", "scalapack+caqr", "tsqr"] * 2
        assert [p["procs"] for p in points] == [16] * 3 + [64] * 3
        _assert_rows_are_plans(study.run(), [
            ProblemSpec(m=4096, n=32, procs=procs, algorithms=algorithms)
            for procs in (16, 64)
            for algorithms in (("ca_cqr2",), ("scalapack", "caqr"),
                               ("tsqr",))])

    def test_algorithms_axis_rejects_a_repeated_solver(self):
        with pytest.raises(ValueError,
                           match="axis 'algorithms' repeats 'scalapack'"):
            study_from_dict({"kind": "planner", "m": 4096, "n": 32,
                             "procs": 16,
                             "algorithms": [["pgeqrf"], ["scalapack"]]})

    def test_flat_algorithms_are_one_shared_restriction(self):
        study = study_from_dict({"kind": "planner", "m": 4096, "n": 32,
                                 "procs": [16, 64],
                                 "algorithms": ["ca_cqr2", "tsqr"]})
        assert [a.name for a in study.axes] == ["procs"]
        assert study.params["algorithms"] == ["ca_cqr2", "tsqr"]
        _assert_rows_are_plans(study.run(), [
            ProblemSpec(m=4096, n=32, procs=procs,
                        algorithms=("ca_cqr2", "tsqr"))
            for procs in (16, 64)])

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown request field"):
            study_from_dict({"kind": "planner", "m": 128, "n": 32,
                             "procs": 8, "nme": "x"})

    def test_crossover_spelling_is_the_same_study(self):
        spec = {"aspects": [4, 16], "n": 32, "procs": [8, 16]}
        crossover = study_from_dict({"kind": "planner-crossover", **spec})
        planner = study_from_dict({"kind": "planner", **spec})
        assert crossover.name == "planner-crossover-n32-stampede2"
        assert planner.name == "planner-n32-stampede2"
        assert crossover.params == planner.params == {
            "n": 32, "machine": "stampede2", "objective": "time"}
        assert [r.values for r in crossover.run().rows] == \
            [r.values for r in planner.run().rows]


# ---------------------------------------------------------------------------
# Experiment campaigns declared as studies
# ---------------------------------------------------------------------------

def _scalar_cost(algorithm, m, n, fields, machine):
    """The scalar closed-form cost of one configuration (the test oracle)."""
    from repro.baselines.caqr import caqr_cost
    from repro.baselines.scalapack_qr import pgeqrf_cost
    from repro.baselines.tsqr import tsqr_cost
    from repro.costmodel.tables import ca_cqr2_lines, cqr2_1d_lines, lane_cost, total

    if algorithm == "ca_cqr2":
        return lane_cost(total(ca_cqr2_lines(m, n, fields["c"], fields["d"],
                                             fields["base_case_size"])))
    if algorithm == "cqr2_1d":
        return lane_cost(total(cqr2_1d_lines(m, n, fields["procs"])))
    if algorithm == "tsqr":
        return tsqr_cost(m, n, fields["procs"])
    grid = (fields["pr"], fields["pc"], fields["block_size"])
    if algorithm == "scalapack":
        return pgeqrf_cost(m, n, *grid,
                           kernel_efficiency=machine.qr_kernel_efficiency)
    return caqr_cost(m, n, *grid)


def _spec_from_config(algorithm, m, n, config):
    """The RunSpec a study row's configuration label names."""
    names = {"P": "procs", "n0": "base_case_size", "b": "block_size"}
    fields = {}
    for part in config.split(","):
        if "x" in part:
            c, d, _ = part.split("x")
            fields.update(c=int(c), d=int(d))
        else:
            key, value = part.split("=")
            fields[names.get(key, key)] = int(value)
    return RunSpec(algorithm=algorithm, matrix=MatrixSpec(m, n), **fields)


class TestExperimentStudies:
    def test_sweeps_study_matches_legacy_shim(self):
        """Every row is the scalar-oracle minimum over runnable candidates."""
        import re

        from repro.costmodel.performance import ExecutionModel
        from repro.engine import CapabilityError

        m, n, procs, b = 2 ** 18, 2 ** 9, (2 ** 6, 2 ** 10), 32
        table = _comparison(m, n, procs, block_size=b).run(parallel=False)
        model = ExecutionModel(STAMPEDE2)
        for p in procs:
            for s in solvers():
                priced = {}
                for cand in s.plan_candidates(m, n, p, STAMPEDE2, (b,), (0,)):
                    try:
                        s.prepare(RunSpec(algorithm=s.name,
                                          matrix=MatrixSpec(m, n),
                                          **cand.spec_fields))
                    except CapabilityError:
                        continue
                    priced[cand.config] = model.seconds(_scalar_cost(
                        s.name, m, n, cand.spec_fields, STAMPEDE2))
                row = table.first(procs=p, algorithms=s.name)
                assert row.ok == bool(priced)
                if not priced:
                    continue
                assert row.values["algorithm"] == s.name
                assert row.values["modeled_seconds"] == min(priced.values())
                assert priced[row.values["config"]] == min(priced.values())
                if s.name == "ca_cqr2":
                    assert re.fullmatch(r"(\d+)x\d+x\1,n0=\d+",
                                        row.values["config"])

    def test_comparison_study_names_aliases_by_solver(self):
        from repro.engine import solver_for

        table = _comparison(2 ** 16, 2 ** 8, (64,),
                            algorithms=["pgeqrf"]).run(parallel=False)
        assert [(r.point["algorithms"],
                 solver_for(r.values["algorithm"]).label)
                for r in table.rows] == [("scalapack", "PGEQRF")]
        with pytest.raises(ValueError,
                           match="axis 'algorithms' repeats 'scalapack'"):
            _comparison(2 ** 16, 2 ** 8, (64,),
                        algorithms=["pgeqrf", "scalapack"])

    def test_modeled_winners_are_runnable(self):
        """Every reported configuration passes its solver's prepare().

        The grid includes PGEQRF grids with pc > b (infeasible: the
        solver needs pc | b), which the sweeps must never report.
        """
        from repro.engine import solver_for

        m, n, b = 2 ** 15, 2 ** 7, 16
        sweep = _comparison(m, n, (2 ** 6, 2 ** 10, 2 ** 12),
                            block_size=b).run(parallel=False)
        cross = _crossover(m, n, (16, 64)).run(parallel=False)
        rows = [(r.point["algorithms"], r) for r in sweep.rows]
        rows += [(r.point["algorithms"], r) for r in cross.rows]
        assert cross.first(procs=16 * STAMPEDE2.procs_per_node,
                           algorithms="scalapack").ok
        for algorithm, row in rows:
            if row.ok:
                solver_for(algorithm).prepare(_spec_from_config(
                    algorithm, m, n, row.values["config"]))

    def test_scaling_study_covers_full_grid(self):
        from repro.experiments.figures import FIG7
        from repro.experiments.scaling import (
            strong_scaling_study,
            strong_series_from_table,
        )

        fig = FIG7[1]
        table = strong_scaling_study(fig).run(parallel=False)
        n_variants = len(fig.ca_variants) + len(fig.sl_variants)
        assert len(table) == n_variants * len(fig.nodes)
        # Each curve point is its variant's direct model evaluation.
        series = strong_series_from_table(table)
        for variant in fig.ca_variants + fig.sl_variants:
            expected = []
            for nodes in fig.nodes:
                gf = variant.gigaflops(fig.machine, nodes, fig.m, fig.n)
                if gf is not None:
                    expected.append((str(nodes), gf))
            assert [(p.x_label, p.gigaflops_per_node)
                    for p in series.get(variant.label, [])] == expected

    def test_crossover_study_sides(self):
        table = _crossover(2 ** 18, 2 ** 8, (16, 64)).run(parallel=False)
        assert {row.get("algorithms") for row in table} == {"ca_cqr2",
                                                            "scalapack"}

    def test_accuracy_study_matches_legacy_shim(self):
        """Every row equals a direct measurement on the seeded ladder."""
        import numpy as np

        from repro.experiments.accuracy import (
            ACCURACY_ALGORITHMS,
            accuracy_study,
            measure,
            rows_from_table,
        )
        from repro.utils.matgen import matrix_with_condition

        conditions = (1e2, 1e8)
        table = accuracy_study(m=128, n=8, conditions=conditions,
                               seed=5).run(parallel=False)
        rng = np.random.default_rng(5)
        matrices = [matrix_with_condition(128, 8, c, rng) for c in conditions]
        expected = [(name, cond, *measure(algo, a))
                    for cond, a in zip(conditions, matrices)
                    for name, algo in ACCURACY_ALGORITHMS.items()]
        assert [(r.algorithm, r.condition, r.orthogonality, r.residual,
                 r.failed) for r in rows_from_table(table)] == expected


class TestSymbolicScalingStudy:
    """The cost-only strong-scaling ladder is an executed symbolic spec."""

    SPEC = {"kind": "executed", "mode": "symbolic", "algorithms": ["ca_cqr2"],
            "m": 1024, "n": 16, "procs": [16, 64]}

    def test_matches_engine_symbolic_runs(self):
        study = study_from_dict(self.SPEC)
        assert study.name == "executed-sweep-1024x16-symbolic"
        table = study.run(parallel=False)
        assert [row.point["procs"] for row in table.rows] == [16, 64]
        for row in table.rows:
            assert row.ok
            spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(1024, 16),
                           procs=row.point["procs"], mode="symbolic")
            report = Session().run(spec).report
            assert row.values["seconds"] == report.critical_path_time
            assert row.values["messages"] == report.max_cost.messages
            assert row.values["words"] == report.max_cost.words
            assert row.values["flops"] == report.max_cost.flops
