"""The Session API: context propagation, the default session, cache isolation."""

import concurrent.futures
import os
import pickle

import numpy as np
import pytest

from repro import (
    Budget,
    MatrixSpec,
    Objective,
    RunSpec,
    Session,
    SessionConfig,
    default_session,
    set_default_session,
    use_session,
)
from repro.costmodel.params import STAMPEDE2
from repro.session import _run_in_worker
from repro.utils.config import usable_cpus
from repro.utils.validation import ValidationError


def assert_same_run(a, b):
    """Bit-identical QRRun: factors, grid, and the full cost report."""
    if a.q is None:
        assert b.q is None
    else:
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.r, b.r)
    assert a.grid == b.grid
    assert a.report.critical_path_time == b.report.critical_path_time
    assert a.report.max_cost == b.report.max_cost
    assert a.report.total_cost == b.report.total_cost
    assert a.report.phase_max == b.report.phase_max


class TestSessionConstruction:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_PLAN_CACHE_DIR", raising=False)
        session = Session()
        assert session.machine is None
        assert session.result_cache is None
        assert session.plan_cache is None
        assert session.objective is None
        assert session.executor == "process"

    def test_env_vars_supply_default_cache_dirs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc"))
        monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(tmp_path / "pc"))
        session = Session()
        assert session.result_cache == str(tmp_path / "rc")
        assert session.plan_cache == str(tmp_path / "pc")
        # Explicit None still disables caching despite the environment.
        opt_out = Session(result_cache=None, plan_cache=None)
        assert opt_out.result_cache is None
        assert opt_out.plan_cache is None

    def test_executor_spellings(self):
        assert Session(executor="serial").executor == "serial"
        assert Session(executor="process").executor == "process"
        with pytest.raises(ValidationError) as err:
            Session(executor=4)
        assert err.value.field == "executor"

    def test_sched_cache_keyword_accepts_only_none(self):
        assert Session(sched_cache=None).config == Session().config
        with pytest.raises(ValidationError) as err:
            Session(sched_cache=".repro-sched-cache")
        assert err.value.field == "sched_cache"

    def test_objective_coerced(self):
        session = Session(objective="time=1,memory=0.2")
        assert isinstance(session.objective, Objective)
        assert dict(session.objective.weights) == {"time": 1.0, "memory": 0.2}


class TestWorkerCounts:
    """Pools are sized by the CPUs the process may use, not the host's."""

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5},
                            raising=False)
        assert usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert usable_cpus() == 64

    def test_pinned_process_runs_a_batch_serially(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-CPU process must not fork a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        specs = [RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(64 * k, 8),
                         c=2, d=4, mode="symbolic") for k in (1, 2)]
        runs = Session(result_cache=None).run_batch(specs, parallel=True)
        assert len(runs) == 2

    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_non_positive_worker_count_is_rejected(self, max_workers):
        spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(64, 8), c=2,
                       d=4, mode="symbolic")
        with pytest.raises(ValidationError) as err:
            Session(result_cache=None).run_batch([spec, spec],
                                                 max_workers=max_workers)
        assert err.value.field == "max_workers"


class TestSessionConfigPickling:
    def test_round_trip(self, tmp_path):
        session = Session(
            machine=STAMPEDE2,
            result_cache=str(tmp_path / "rc"),
            plan_cache=str(tmp_path / "pc"),
            executor="serial",
            objective=Objective.single("time",
                                       budgets=(Budget("memory", 8e6),)))
        config = session.config
        restored = pickle.loads(pickle.dumps(config))
        assert restored == config
        rebuilt = Session.from_config(restored)
        assert rebuilt.machine == STAMPEDE2
        assert rebuilt.result_cache == str(tmp_path / "rc")
        assert rebuilt.plan_cache == str(tmp_path / "pc")
        assert rebuilt.objective == session.objective
        assert rebuilt.executor == "serial"

    def test_default_config_is_picklable(self):
        config = pickle.loads(pickle.dumps(Session().config))
        assert config == SessionConfig()


class TestWorkerContextPropagation:
    SPEC = RunSpec(algorithm="auto", matrix=MatrixSpec(2048, 32), procs=64,
                   machine="stampede2")

    def test_worker_sees_session_objective(self):
        """A pool worker resolves auto specs under the parent's objective."""
        plain = Session(executor="serial")
        budgeted = Session(executor="serial",
                           objective=Objective.single(
                               "time", budgets=(Budget("memory", 3000),)))
        assert plain.resolve(self.SPEC).algorithm != \
            budgeted.resolve(self.SPEC).algorithm
        # _run_in_worker is exactly what ProcessPoolExecutor invokes.
        from_worker = _run_in_worker(pickle.loads(pickle.dumps(
            budgeted.config)), self.SPEC)
        in_parent = budgeted.run(self.SPEC)
        assert_same_run(from_worker, in_parent)
        assert from_worker.report.num_ranks == 64

    def test_worker_uses_session_plan_cache(self, tmp_path):
        session = Session(executor="serial", plan_cache=str(tmp_path))
        _run_in_worker(session.config, self.SPEC)
        assert list(tmp_path.glob("*.plan.pkl"))

    def test_parallel_batch_matches_serial(self, tmp_path):
        session = Session(objective=Objective.single(
            "time", budgets=(Budget("memory", 3000),)))
        specs = [self.SPEC, self.SPEC.replace(procs=128)]
        parallel = session.run_batch(specs, parallel=True)
        serial = session.run_batch(specs, parallel=False)
        for a, b in zip(parallel, serial):
            assert_same_run(a, b)


class TestDefaultSessionShims:
    def test_factor_matches_wrapper_semantics(self, rng):
        """Session.factor runs exactly the RunSpec its fields describe."""
        a = rng.standard_normal((64, 8))
        spec = RunSpec(algorithm="scalapack", data=a, pr=4, pc=2,
                       block_size=4)
        factored = Session().factor(a, algorithm="scalapack", pr=4, pc=2,
                                    block_size=4)
        assert_same_run(factored, Session().run(spec))

    def test_use_session_redirects_free_functions(self):
        """A study run without a session runs under the installed default."""
        from repro.study import Axis, CriticalPathSeconds, Study

        spec = RunSpec(algorithm="auto", matrix=MatrixSpec(2048, 32),
                       procs=64, machine="stampede2")
        study = Study(name="redirect", axes=(Axis("procs", (64,)),),
                      metrics=(CriticalPathSeconds(),),
                      spec=lambda point: spec)
        budgeted = Session(objective=Objective.single(
            "time", budgets=(Budget("memory", 3000),)))

        def seconds():
            return study.run(parallel=False).rows[0].values["seconds"]

        baseline = seconds()
        with use_session(budgeted):
            redirected = seconds()
        assert redirected == budgeted.run(spec).report.critical_path_time
        assert redirected != baseline
        assert seconds() == baseline                          # restored

    def test_set_default_session(self):
        original = default_session()
        replacement = Session(machine="stampede2")
        try:
            set_default_session(replacement)
            assert default_session() is replacement
        finally:
            set_default_session(original)
        with pytest.raises(ValueError, match="Session"):
            set_default_session("not a session")


class TestSessionFactor:
    def test_matrix_spec_input(self):
        run = Session().factor(MatrixSpec(256, 8), algorithm="tsqr", procs=4)
        assert run.orthogonality_error() < 1e-12

    def test_session_machine_default(self, rng):
        a = rng.standard_normal((64, 8))
        timed = Session(machine=STAMPEDE2).factor(a, algorithm="ca_cqr2",
                                                  c=2, d=4)
        abstract = Session().factor(a, algorithm="ca_cqr2", c=2, d=4)
        np.testing.assert_array_equal(timed.q, abstract.q)
        assert timed.report.critical_path_time != \
            abstract.report.critical_path_time

    def test_explicit_machine_overrides_session(self, rng):
        a = rng.standard_normal((64, 8))
        run = Session(machine="stampede2").factor(
            a, algorithm="ca_cqr2", c=2, d=4, machine="abstract")
        base = Session().factor(a, algorithm="ca_cqr2", c=2, d=4)
        assert run.report.critical_path_time == \
            base.report.critical_path_time


class TestSessionCacheIsolation:
    SPEC = RunSpec(algorithm="tsqr", matrix=MatrixSpec(256, 8), procs=4)

    def test_result_caches_are_per_session(self, tmp_path):
        one = Session(result_cache=str(tmp_path / "one"), executor="serial")
        two = Session(result_cache=str(tmp_path / "two"), executor="serial")
        first = one.run_batch([self.SPEC])[0]
        assert list((tmp_path / "one").glob("*.pkl"))
        assert not list((tmp_path / "two").glob("*.pkl"))
        again = two.run_batch([self.SPEC])[0]
        assert list((tmp_path / "two").glob("*.pkl"))
        assert_same_run(first, again)

    def test_cached_hit_returns_identical_run(self, tmp_path):
        session = Session(result_cache=str(tmp_path), executor="serial")
        cold = session.run_batch([self.SPEC])[0]
        warm = session.run_batch([self.SPEC])[0]
        assert_same_run(cold, warm)

    def test_symbolic_refine_does_not_touch_foreign_caches(self, monkeypatch,
                                                           tmp_path):
        """Refine replays stay internal: no default-session cache writes."""
        from repro.session import set_default_session

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        set_default_session(None)
        try:
            mine = tmp_path / "mine"
            session = Session(result_cache=str(mine), executor="serial")
            session.plan(m=2048, n=32, procs=16, machine="stampede2",
                         refine="symbolic")
            assert not (tmp_path / "env").exists() \
                or not list((tmp_path / "env").glob("*.pkl"))
            assert not mine.exists() or not list(mine.glob("*.pkl"))
        finally:
            set_default_session(None)

    def test_plan_caches_are_per_session(self, tmp_path):
        one = Session(plan_cache=str(tmp_path / "one"))
        two = Session(plan_cache=str(tmp_path / "two"))
        one.plan(m=2 ** 14, n=64, procs=256, refine=None)
        assert list((tmp_path / "one").glob("*.plan.pkl"))
        assert not (tmp_path / "two").exists() \
            or not list((tmp_path / "two").glob("*.plan.pkl"))
        warm = one.plan(m=2 ** 14, n=64, procs=256, refine=None)
        assert warm.from_cache


class TestSessionPlan:
    def test_kwargs_fill_session_defaults(self):
        session = Session(machine="stampede2",
                          objective=Objective.parse("time=1,memory=1"))
        result = session.plan(m=2 ** 14, n=64, procs=256, refine=None)
        assert result.problem.machine_spec() is STAMPEDE2
        assert result.problem.objective_spec() == session.objective

    def test_call_objective_overrides_session(self):
        session = Session(objective="memory")
        result = session.plan(m=2 ** 14, n=64, procs=256,
                              machine="stampede2", refine=None,
                              objective="time")
        assert result.problem.objective_spec() == Objective.single("time")

    def test_problem_spec_passthrough(self):
        from repro.plan import ProblemSpec

        problem = ProblemSpec(m=2 ** 14, n=64, procs=256)
        result = Session().plan(problem, refine=None)
        assert result.problem is problem
        with pytest.raises(ValueError, match="not both"):
            Session().plan(problem, m=64)

    def test_session_objective_drives_auto_runs(self):
        spec = RunSpec(algorithm="auto", matrix=MatrixSpec(2048, 32),
                       procs=64, machine="stampede2")
        budgeted = Session(objective=Objective.single(
            "time", budgets=(Budget("memory", 3000),)))
        resolved = budgeted.resolve(spec)
        assert resolved.algorithm != Session().resolve(spec).algorithm
        assert_same_run(budgeted.run(spec), budgeted.run(resolved))


class TestSessionStudy:
    def test_dict_spec_runs(self, tmp_path):
        session = Session(executor="serial",
                          result_cache=str(tmp_path / "cache"))
        table = session.study({"kind": "executed", "m": 512, "n": 16,
                               "procs": [4, 8]})
        assert len(table.rows) > 0
        assert any(row.ok for row in table.rows)
        assert list((tmp_path / "cache").glob("*.pkl"))

    def test_study_rejects_non_study(self):
        with pytest.raises(ValueError, match="Study"):
            Session().study(42)

    def test_auto_study_resolves_under_session(self):
        from repro.study import Axis, CriticalPathSeconds, Study

        def build(point):
            return RunSpec(algorithm="auto", matrix=MatrixSpec(2 ** 12, 32),
                           procs=point["procs"], machine="stampede2",
                           mode="symbolic")

        study = Study(name="session-auto", axes=(Axis("procs", (16, 64)),),
                      metrics=(CriticalPathSeconds(),), spec=build)
        table = Session(executor="serial").study(study)
        assert all(row.ok for row in table.rows)
        assert all(row.values["seconds"] > 0 for row in table.rows)


class TestEnvCacheDirs:
    def test_default_cache_dir_env(self, monkeypatch, tmp_path):
        from repro.utils.config import default_cache_dir

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc"))
        assert default_cache_dir() == str(tmp_path / "rc")
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir() == ".repro-cache"

    def test_default_plan_cache_dir_env(self, monkeypatch, tmp_path):
        from repro.utils.config import default_plan_cache_dir

        monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(tmp_path / "pc"))
        assert default_plan_cache_dir() == str(tmp_path / "pc")
        monkeypatch.delenv("REPRO_PLAN_CACHE_DIR")
        assert default_plan_cache_dir() == ".repro-plan-cache"

    def test_cli_cache_respects_env(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc"))
        monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(tmp_path / "pc"))
        assert main(["cache", "info"]) == 0
        assert str(tmp_path / "rc") in capsys.readouterr().out
        assert main(["cache", "info", "--plan"]) == 0
        out = capsys.readouterr().out
        assert "plan cache" in out and str(tmp_path / "pc") in out

    def test_env_cached_session_run(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc"))
        session = Session(executor="serial")
        session.run_batch([RunSpec(algorithm="tsqr",
                                   matrix=MatrixSpec(256, 8), procs=4)])
        assert list((tmp_path / "rc").glob("*.pkl"))

    def test_free_functions_defer_to_env_cache(self, monkeypatch, tmp_path):
        """Default-session batches without cache_dir= honor REPRO_CACHE_DIR."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc"))
        set_default_session(None)           # rebuild under the patched env
        try:
            spec = RunSpec(algorithm="tsqr", matrix=MatrixSpec(256, 8),
                           procs=4)
            default_session().run_batch([spec], parallel=False)
            assert list((tmp_path / "rc").glob("*.pkl"))
            # An explicit None still disables caching.
            (tmp_path / "rc2").mkdir()
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "rc2"))
            set_default_session(None)
            default_session().run_batch([spec], parallel=False,
                                        cache_dir=None)
            assert not list((tmp_path / "rc2").glob("*.pkl"))
        finally:
            set_default_session(None)


def test_worker_ignores_parent_parallelism():
    """A worker rebuilt from config must not fan out its own pool."""
    config = Session(executor="process").config
    spec = RunSpec(algorithm="tsqr", matrix=MatrixSpec(256, 8), procs=4)
    result = _run_in_worker(config, spec)     # single run: no pool involved
    assert result.orthogonality_error() < 1e-12


def test_os_environ_not_required(monkeypatch):
    """Sessions work with no cache env vars at all (the common case)."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_PLAN_CACHE_DIR", raising=False)
    session = Session()
    run = session.factor(MatrixSpec(256, 8), algorithm="tsqr", procs=4)
    assert run.report.num_ranks == 4
    assert not os.path.exists(".repro-session-test-cache")
