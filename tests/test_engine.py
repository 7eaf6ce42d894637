"""Tests for the unified algorithm registry + spec-driven run engine."""

import time

import numpy as np
import pytest

from repro import Session
from repro.engine import (
    CapabilityError,
    Grid2DShape,
    MatrixSpec,
    ResultCache,
    RunSpec,
    UnknownAlgorithmError,
    available_algorithms,
    solver_for,
    solvers,
)
from repro.utils.diskcache import clear_cache_dir, scan_cache_dir
from repro.utils.validation import ValidationError

session = Session()


class TestRegistry:
    def test_all_five_algorithms_registered(self):
        assert set(available_algorithms()) == {
            "ca_cqr2", "cqr2_1d", "tsqr", "scalapack", "caqr"}

    def test_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithmError, match="registered algorithms"):
            solver_for("householder3d")

    def test_unknown_algorithm_from_run(self):
        spec = RunSpec(algorithm="nope", matrix=MatrixSpec(64, 8), procs=4)
        with pytest.raises(UnknownAlgorithmError):
            session.run(spec)

    def test_aliases_and_case(self):
        assert solver_for("pgeqrf").name == "scalapack"
        assert solver_for("CA-CQR2").name == "ca_cqr2"
        assert solver_for("cacqr2").name == "ca_cqr2"
        assert solver_for("1d").name == "cqr2_1d"

    def test_labels(self):
        labels = {s.label for s in solvers()}
        assert labels == {"CA-CQR2", "1D-CQR2", "TSQR", "PGEQRF", "CAQR"}


class TestCapabilityChecks:
    def test_wide_matrix_rejected(self):
        spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(8, 64), c=1, d=1)
        with pytest.raises(CapabilityError, match="tall"):
            session.run(spec)

    def test_cacqr2_divisibility(self):
        spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(64, 9), c=2, d=4)
        with pytest.raises(CapabilityError, match="divisible"):
            session.run(spec)

    def test_tsqr_local_rows(self):
        spec = RunSpec(algorithm="tsqr", matrix=MatrixSpec(64, 32), procs=4)
        with pytest.raises(CapabilityError, match="m/P >= n"):
            session.run(spec)

    def test_symbolic_rejected_for_numeric_only(self):
        spec = RunSpec(algorithm="tsqr", matrix=MatrixSpec(64, 8), procs=4,
                       mode="symbolic")
        with pytest.raises(CapabilityError, match="numeric"):
            session.run(spec)

    def test_scalapack_block_constraints(self):
        spec = RunSpec(algorithm="scalapack", matrix=MatrixSpec(64, 8),
                       pr=4, pc=2, block_size=3)
        with pytest.raises(CapabilityError):
            session.run(spec)

    def test_missing_grid_and_procs(self):
        spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(64, 8))
        with pytest.raises(CapabilityError, match="explicit"):
            session.run(spec)

    def test_half_specified_grids_rejected(self):
        # A lone c (or pr) must not be silently replaced by the auto-picked
        # grid.
        with pytest.raises(CapabilityError, match="both c and d"):
            session.run(RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(64, 8),
                                c=2, procs=16))
        with pytest.raises(CapabilityError, match="both pr and pc"):
            session.run(RunSpec(algorithm="scalapack", matrix=MatrixSpec(64, 8),
                                pr=4, procs=8))

    def test_infeasible_procs_is_capability_error(self):
        with pytest.raises(CapabilityError, match="no feasible"):
            session.run(RunSpec(algorithm="ca_cqr2",
                                matrix=MatrixSpec(100, 10), procs=7))


class TestRun:
    def test_all_five_algorithms_run(self, rng):
        a = rng.standard_normal((64, 8))
        cases = [
            ("ca_cqr2", dict(c=2, d=4)),
            ("cqr2_1d", dict(procs=4)),
            ("tsqr", dict(procs=4)),
            ("scalapack", dict(pr=4, pc=2, block_size=4)),
            ("caqr", dict(pr=4, pc=2, block_size=4)),
        ]
        for algorithm, grid_kwargs in cases:
            result = session.run(RunSpec(algorithm=algorithm, data=a,
                                         **grid_kwargs))
            assert result.orthogonality_error() < 1e-12
            assert result.residual_error(a) < 1e-12
            assert result.grid is not None
            assert result.report.critical_path_time > 0

    def test_matches_api_wrappers(self, rng):
        # Session.factor is the one-call spelling of the same RunSpec.
        a = rng.standard_normal((64, 8))
        cases = [
            ("ca_cqr2", dict(c=2, d=4)),
            ("cqr2_1d", dict(procs=4)),
            ("tsqr", dict(procs=4)),
            ("scalapack", dict(pr=4, pc=2, block_size=4)),
        ]
        for algorithm, fields in cases:
            wrapped = session.factor(a, algorithm=algorithm, **fields)
            engine_run = session.run(RunSpec(algorithm=algorithm, data=a,
                                             **fields))
            np.testing.assert_array_equal(engine_run.q, wrapped.q)
            np.testing.assert_array_equal(engine_run.r, wrapped.r)
            assert (engine_run.report.critical_path_time
                    == wrapped.report.critical_path_time)

    def test_procs_resolution_matches_explicit_grid(self, rng):
        a = rng.standard_normal((64, 8))
        auto = session.run(RunSpec(algorithm="ca_cqr2", data=a, procs=16))
        assert auto.grid.procs == 16

    def test_matrix_spec_is_deterministic(self):
        spec = RunSpec(algorithm="cqr2_1d", matrix=MatrixSpec(64, 8, seed=7),
                       procs=4)
        first, second = session.run(spec), session.run(spec)
        np.testing.assert_array_equal(first.q, second.q)

    def test_symbolic_mode_matches_numeric_costs(self):
        numeric = session.run(RunSpec(algorithm="ca_cqr2",
                                      matrix=MatrixSpec(64, 8), c=2, d=4))
        symbolic = session.run(RunSpec(algorithm="ca_cqr2",
                                       matrix=MatrixSpec(64, 8), c=2, d=4,
                                       mode="symbolic"))
        assert not symbolic.is_numeric
        assert symbolic.q is None and symbolic.r is None
        assert symbolic.report.max_cost == numeric.report.max_cost

    def test_scalapack_grid_populated(self, rng):
        # Regression: scalapack runs used to return grid=None.
        result = session.run(RunSpec(algorithm="scalapack",
                                     data=rng.standard_normal((64, 8)),
                                     pr=4, pc=2, block_size=4))
        assert result.grid == Grid2DShape(pr=4, pc=2)
        assert result.grid.procs == 8


#: One explicit grid per registered algorithm, for a 64 x 8 input.
NUMERIC_GRIDS = {
    "ca_cqr2": dict(c=2, d=4),
    "cqr2_1d": dict(procs=4),
    "tsqr": dict(procs=4),
    "scalapack": dict(pr=4, pc=2, block_size=4),
    "caqr": dict(pr=4, pc=2, block_size=4),
}


class TestDataValidation:
    """Explicit ``data`` must be real and finite, for every algorithm."""

    def test_every_registered_algorithm_is_covered(self):
        assert set(NUMERIC_GRIDS) == set(available_algorithms())

    @pytest.mark.parametrize("algorithm", sorted(NUMERIC_GRIDS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, rng, algorithm, bad):
        a = rng.standard_normal((64, 8))
        a[5, 3] = bad
        spec = RunSpec(algorithm=algorithm, data=a, **NUMERIC_GRIDS[algorithm])
        with pytest.raises(ValidationError, match="finite") as info:
            session.run(spec)
        assert info.value.field == "data"

    @pytest.mark.parametrize("algorithm", sorted(NUMERIC_GRIDS))
    def test_complex_data_rejected_at_construction(self, rng, algorithm):
        a = rng.standard_normal((64, 8)) + 0j
        with pytest.raises(ValidationError, match="real") as info:
            RunSpec(algorithm=algorithm, data=a, **NUMERIC_GRIDS[algorithm])
        assert info.value.field == "data"

    def test_integer_data_accepted(self):
        a = np.arange(64 * 8).reshape(64, 8) % 7 + np.eye(64, 8, dtype=int)
        result = session.run(RunSpec(algorithm="cqr2_1d", data=a, procs=4))
        assert result.residual_error(a.astype(float)) < 1e-12

    def test_non_string_algorithm_rejected_at_construction(self):
        # It reached solver_for as an AttributeError ('int' has no strip).
        with pytest.raises(ValidationError, match="must be a string") as info:
            RunSpec(algorithm=5, matrix=MatrixSpec(64, 8), procs=4)
        assert info.value.field == "algorithm"


class TestSpecKeys:
    def test_key_stable_across_aliases_and_resolution(self):
        matrix = MatrixSpec(64, 8)
        key = session.spec_key
        assert (key(RunSpec(algorithm="ca_cqr2", matrix=matrix, procs=16))
                == key(RunSpec(algorithm="CA-CQR2", matrix=matrix, procs=16)))

    def test_key_sensitive_to_inputs(self):
        key = session.spec_key
        base = RunSpec(algorithm="cqr2_1d", matrix=MatrixSpec(64, 8), procs=4)
        assert key(base) != key(base.replace(procs=8))
        assert key(base) != key(base.replace(matrix=MatrixSpec(64, 8, seed=1)))
        assert key(base) != key(base.replace(machine="stampede2"))
        assert key(base) != key(base.replace(mode="symbolic"))

    def test_key_hashes_data_content(self, rng):
        key = session.spec_key
        a = rng.standard_normal((64, 8))
        k1 = key(RunSpec(algorithm="tsqr", data=a, procs=4))
        assert k1 == key(RunSpec(algorithm="tsqr", data=a.copy(), procs=4))
        b = a.copy()
        b[0, 0] += 1.0
        assert k1 != key(RunSpec(algorithm="tsqr", data=b, procs=4))


def _sweep_specs(count=8, m=512, n=16):
    return [RunSpec(algorithm=alg, matrix=MatrixSpec(m, n, seed=seed), procs=procs)
            for seed, (alg, procs) in enumerate(
                (alg, procs)
                for alg in ("ca_cqr2", "cqr2_1d")
                for procs in (4, 8, 16, 32)[:count // 2])]


class TestBatchRunner:
    def test_parallel_equals_serial(self):
        specs = _sweep_specs()
        serial = session.run_batch(specs, parallel=False)
        parallel = session.run_batch(specs, parallel=True, max_workers=2)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.q, b.q)
            np.testing.assert_array_equal(a.r, b.r)
            assert a.report.critical_path_time == b.report.critical_path_time

    def test_cache_hit_returns_identical_results(self, tmp_path):
        specs = _sweep_specs()
        cold = session.run_batch(specs, parallel=False, cache_dir=str(tmp_path))
        cached = session.run_batch(specs, parallel=False, cache_dir=str(tmp_path))
        for a, b in zip(cold, cached):
            np.testing.assert_array_equal(a.q, b.q)
            np.testing.assert_array_equal(a.r, b.r)
            assert a.report.critical_path_time == b.report.critical_path_time

    def test_cache_shared_across_equivalent_specs(self, tmp_path):
        # procs=16 resolves to the same concrete grid as the explicit (c, d)
        # it implies, so the second batch is served from the first's cache.
        matrix = MatrixSpec(64, 8)
        from repro.core.tuning import optimal_grid
        shape = optimal_grid(64, 8, 16)
        session.run_batch([RunSpec(algorithm="ca_cqr2", matrix=matrix,
                                   procs=16)],
                          parallel=False, cache_dir=str(tmp_path))
        cache_files = list(tmp_path.glob("*.pkl"))
        session.run_batch([RunSpec(algorithm="ca_cqr2", matrix=matrix,
                                   c=shape.c, d=shape.d)],
                          parallel=False, cache_dir=str(tmp_path))
        assert list(tmp_path.glob("*.pkl")) == cache_files

    def test_order_preserved_with_mixed_hits(self, tmp_path):
        specs = _sweep_specs()
        session.run_batch(specs[::2], parallel=False, cache_dir=str(tmp_path))
        results = session.run_batch(specs, parallel=False, cache_dir=str(tmp_path))
        for spec, result in zip(specs, results):
            assert result.grid.procs == solver_for(spec.algorithm).prepare(
                spec).procs

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        specs = _sweep_specs(count=2)
        session.run_batch(specs, parallel=False, cache_dir=str(tmp_path))
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        results = session.run_batch(specs, parallel=False, cache_dir=str(tmp_path))
        assert all(r.orthogonality_error() < 1e-12 for r in results)

    def test_run_iter_streams_all_indices(self):
        specs = _sweep_specs()
        results = dict(session.run_iter(specs, parallel=False))
        assert sorted(results) == list(range(len(specs)))
        for i, spec in enumerate(specs):
            assert results[i].grid.procs == solver_for(
                spec.algorithm).prepare(spec).procs

    def test_run_iter_matches_run_batch(self):
        specs = _sweep_specs()
        batch = session.run_batch(specs, parallel=False)
        streamed = dict(session.run_iter(specs, parallel=False))
        for i, expected in enumerate(batch):
            np.testing.assert_array_equal(streamed[i].q, expected.q)

    def test_run_iter_progress_callback(self):
        specs = _sweep_specs(count=4)
        seen = []
        list(session.run_iter(
            specs, parallel=False,
            progress=lambda done, total: seen.append((done, total))))
        assert seen == [(i + 1, 4) for i in range(4)]

    def test_run_iter_yields_cache_hits_first(self, tmp_path):
        specs = _sweep_specs(count=4)
        session.run_batch(specs[2:], parallel=False, cache_dir=str(tmp_path))
        order = [i for i, _ in session.run_iter(specs, parallel=False,
                                                cache_dir=str(tmp_path))]
        assert order == [2, 3, 0, 1]   # hits stream out before misses

    def test_run_iter_unknown_algorithm_raises(self):
        bad = [RunSpec(algorithm="nope", matrix=MatrixSpec(64, 8), procs=4)]
        with pytest.raises(UnknownAlgorithmError):
            list(session.run_iter(bad, parallel=False))


    def test_batch_speedup_at_least_2x(self, tmp_path):
        # The acceptance claim: on a >= 8-point sweep, the batch runner's
        # parallelism + cache beat the serial uncached loop by >= 2x.  The
        # cache pass alone collapses every point to one disk read, so the
        # bound holds even on single-core CI runners.
        specs = _sweep_specs(count=8, m=1024, n=32)
        assert len(specs) >= 8

        start = time.perf_counter()
        serial = [session.run(spec) for spec in specs]
        t_serial = time.perf_counter() - start

        session.run_batch(specs, cache_dir=str(tmp_path))   # populate (parallel)
        start = time.perf_counter()
        batched = session.run_batch(specs, cache_dir=str(tmp_path))
        t_batched = time.perf_counter() - start

        for a, b in zip(serial, batched):
            np.testing.assert_array_equal(a.q, b.q)
        assert t_batched * 2.0 <= t_serial, (
            f"batch runner too slow: serial={t_serial:.4f}s "
            f"batched={t_batched:.4f}s")


class TestRunTraced:
    def test_returns_result_and_traced_machine(self):
        spec = RunSpec(algorithm="ca_cqr2", matrix=MatrixSpec(256, 16),
                       c=2, d=8, mode="symbolic")
        result, vm = session.trace(spec)
        assert result.report.critical_path_time > 0
        assert vm.trace_enabled and len(vm.events) > 0
        # The traced run charges exactly what the untraced run charges.
        assert result.report == session.run(spec).report
        # And the events cover the whole critical path.
        assert max(e.end for e in vm.events) \
            == pytest.approx(result.report.critical_path_time)

    def test_trace_refuses_more_ranks_than_it_can_record(self):
        from repro.session import MAX_TRACED_RANKS
        from repro.utils.validation import ValidationError

        assert MAX_TRACED_RANKS >= 1024            # CI traces 1024 ranks
        spec = RunSpec(algorithm="cqr2_1d", matrix=MatrixSpec(
            4 * MAX_TRACED_RANKS, 8), procs=2 * MAX_TRACED_RANKS,
            mode="symbolic")
        with pytest.raises(ValidationError, match="traced run") as info:
            session.trace(spec)
        assert info.value.field == "procs"
        edge = spec.replace(procs=MAX_TRACED_RANKS)
        assert session.trace(edge)[1].num_ranks == MAX_TRACED_RANKS

    def test_plain_run_is_untraced(self):
        from repro.engine.runner import _execute

        spec = RunSpec(algorithm="tsqr", matrix=MatrixSpec(64, 8), procs=4)
        result, vm = _execute(spec, trace=False)      # the Session.run path
        assert not vm.trace_enabled
        assert vm.events == []
        assert result.q is not None


class TestCacheTools:
    def test_info_and_clear(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        suffix = ResultCache.suffix
        session.run_batch(_sweep_specs(count=4), parallel=False,
                          cache_dir=cache_dir)
        info = scan_cache_dir(cache_dir, suffix)
        assert info["entries"] == 4 and info["bytes"] > 0
        assert clear_cache_dir(cache_dir, suffix) == 4
        assert scan_cache_dir(cache_dir, suffix)["entries"] == 0
        assert clear_cache_dir(cache_dir, suffix) == 0    # idempotent

    def test_missing_dir_is_empty(self, tmp_path):
        info = scan_cache_dir(str(tmp_path / "nope"), ResultCache.suffix)
        assert info["entries"] == 0 and info["bytes"] == 0
