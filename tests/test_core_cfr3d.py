"""Unit tests for CFR3D (Algorithms 2-3)."""

import numpy as np
import pytest

from tests.conftest import assert_depth_replicated, make_cubic, spd_matrix

from repro.core.cfr3d import _cfr3d_program, cfr3d, default_base_case
from repro.costmodel.tables import cfr3d_lines, lane_cost, total
from repro.sched import ScheduleRecorder
from repro.vmpi.distmatrix import DistMatrix
from repro.vmpi.grid import Grid3D


class TestCorrectness:
    @pytest.mark.parametrize("p,n,n0", [(1, 8, 2), (2, 8, 2), (2, 16, 4), (2, 32, 8)])
    def test_factorization(self, rng, p, n, n0):
        vm, g = make_cubic(p)
        a = spd_matrix(n, rng)
        l, y = cfr3d(vm, DistMatrix.from_global(g, a), n0)
        l_g, y_g = l.to_global(), y.to_global()
        np.testing.assert_allclose(l_g @ l_g.T, a, atol=1e-10)
        np.testing.assert_allclose(y_g @ l_g, np.eye(n), atol=1e-9)

    def test_triangular_structure(self, rng):
        vm, g = make_cubic(2)
        a = spd_matrix(16, rng)
        l, y = cfr3d(vm, DistMatrix.from_global(g, a), 4)
        assert np.allclose(l.to_global(), np.tril(l.to_global()))
        assert np.allclose(y.to_global(), np.tril(y.to_global()))

    def test_matches_numpy_cholesky(self, rng):
        vm, g = make_cubic(2)
        a = spd_matrix(16, rng)
        l, _ = cfr3d(vm, DistMatrix.from_global(g, a), 4)
        np.testing.assert_allclose(l.to_global(), np.linalg.cholesky(a), atol=1e-10)

    def test_base_case_only(self, rng):
        # n == n0: single Allgather + redundant CholInv, no recursion.
        vm, g = make_cubic(2)
        a = spd_matrix(8, rng)
        l, y = cfr3d(vm, DistMatrix.from_global(g, a), 8)
        np.testing.assert_allclose(l.to_global() @ l.to_global().T, a, atol=1e-11)

    def test_result_replicated(self, rng):
        vm, g = make_cubic(2)
        a = spd_matrix(16, rng)
        l, y = cfr3d(vm, DistMatrix.from_global(g, a), 4)
        assert_depth_replicated(l)
        assert_depth_replicated(y)

    def test_ill_conditioned_spd_still_factors(self, rng):
        vm, g = make_cubic(2)
        a = spd_matrix(16, rng, condition=1e10)
        l, _ = cfr3d(vm, DistMatrix.from_global(g, a), 4)
        l_g = l.to_global()
        np.testing.assert_allclose(l_g @ l_g.T, a, atol=1e-6)


class TestValidation:
    def test_rejects_non_square(self):
        vm, g = make_cubic(2)
        with pytest.raises(ValueError, match="square"):
            cfr3d(vm, DistMatrix.symbolic(g, 8, 4), 2)

    def test_rejects_non_power_quotient(self):
        vm, g = make_cubic(2)
        # 24 / 8 = 3 levels is not a power of two quotient: 24 = 8 * 3.
        with pytest.raises(ValueError, match="power of two"):
            cfr3d(vm, DistMatrix.symbolic(g, 24, 24), 8)

    def test_rejects_base_case_not_multiple_of_grid(self):
        vm, g = make_cubic(2)
        with pytest.raises(ValueError, match="divisible by grid extent"):
            cfr3d(vm, DistMatrix.symbolic(g, 8, 8), 1)

    def test_rejects_tunable_grid(self):
        from tests.conftest import make_tunable

        vm, g = make_tunable(2, 8)
        with pytest.raises(ValueError, match="cubic"):
            cfr3d(vm, DistMatrix.symbolic(g, 8, 8), 2)


class TestDefaultBaseCase:
    def test_targets_n_over_p_squared(self):
        assert default_base_case(64, 2) == 16   # 64 / 4
        assert default_base_case(256, 4) == 16  # 256 / 16

    def test_clamps_to_grid_extent(self):
        # n/p^2 < p: clamp so blocks exist on every rank.
        assert default_base_case(8, 2) % 2 == 0
        assert default_base_case(8, 2) >= 2

    def test_divides_n_with_power_of_two_quotient(self):
        for n, p in ((64, 2), (128, 4), (32, 2), (8, 2)):
            n0 = default_base_case(n, p)
            assert n % n0 == 0
            q = n // n0
            assert q & (q - 1) == 0


class TestCosts:
    @pytest.mark.parametrize("p,n,n0", [(2, 16, 4), (2, 32, 8), (4, 32, 8), (2, 32, 32)])
    def test_ledger_matches_closed_form(self, p, n, n0):
        vm, g = make_cubic(p)
        cfr3d(vm, DistMatrix.symbolic(g, n, n), n0)
        assert vm.report().max_cost == lane_cost(total(cfr3d_lines(n, p, n0)))

    def test_smaller_base_case_more_latency_less_flops(self):
        # The Section II-D tradeoff: n0 down -> alpha up, gamma down.
        deep = lane_cost(total(cfr3d_lines(64, 2, 2)))
        shallow = lane_cost(total(cfr3d_lines(64, 2, 32)))
        assert deep.messages > shallow.messages
        assert deep.flops < shallow.flops

    def test_phase_attribution_covers_tables(self):
        # Table II's per-line structure is recoverable from phases.
        vm, g = make_cubic(2)
        cfr3d(vm, DistMatrix.symbolic(g, 32, 32), 8, phase="cfr")
        rep = vm.report()
        assert rep.phase_total("cfr.basecase.allgather").messages > 0
        assert rep.phase_total("cfr.basecase.cholinv").flops > 0
        assert rep.phase_total("cfr.transpose").messages > 0
        assert rep.phase_total("cfr.mm3d-l21").flops > 0
        assert rep.phase_total("cfr.schur").flops > 0
        total = rep.phase_total("cfr")
        assert total.isclose(rep.max_cost)


def _direct_capture(c, n, n0):
    """CFR3D recorded node by node on a fresh recorder."""
    rec = ScheduleRecorder(c ** 3)
    cfr3d(rec, DistMatrix.symbolic(Grid3D.build(rec, c, c, c), n, n), n0,
          "@.cfr3d")
    return rec.program()


def _assert_same_program(got, want):
    assert got.num_ranks == want.num_ranks
    assert got.phases == want.phases
    assert len(got.ops) == len(want.ops)
    for a, b in zip(got.ops, want.ops):
        assert (a.kind, a.payload, a.phase, a.axis) == \
            (b.kind, b.payload, b.phase, b.axis)
        if b.ranks is None:
            assert a.ranks is None
        else:
            assert (a.ranks.dtype, a.ranks.shape, a.ranks.tobytes()) == \
                (b.ranks.dtype, b.ranks.shape, b.ranks.tobytes())


class TestLevelCapture:
    """CFR3D captured one recursion level at a time, each level splicing
    the memoized half-size program, equals a direct capture."""

    @pytest.mark.parametrize("levels", range(7), ids=lambda k: f"n/n0={2 ** k}")
    @pytest.mark.parametrize("c", [1, 2, 3, 4, 8])
    def test_composed_program_equals_direct_capture(self, c, levels):
        n0 = c
        n = n0 << levels
        _cfr3d_program.cache_clear()
        got = _cfr3d_program(c, n, n0)
        # A cold capture records each level once: log2(n/n0) + 1 misses.
        assert _cfr3d_program.cache_info().misses == levels + 1
        _assert_same_program(got, _direct_capture(c, n, n0))

    def test_spliced_phases_keep_first_appearance_order(self):
        """A spliced program whose phases the recorder interned in another
        order is re-indexed op by op, never re-ordered."""
        half = _direct_capture(2, 8, 4)
        rec = ScheduleRecorder(8)
        rec.charge_flops(0, 1.0, "@.cfr3d.transpose")
        rec.extend(half)
        want = ScheduleRecorder(8)
        want.charge_flops(0, 1.0, "@.cfr3d.transpose")
        cfr3d(want, DistMatrix.symbolic(Grid3D.build(want, 2, 2, 2), 8, 8), 4,
              "@.cfr3d")
        _assert_same_program(rec.program(), want.program())

    def test_extend_rejects_another_rank_space_before_appending(self):
        rec = ScheduleRecorder(8)
        with pytest.raises(ValueError, match="27-rank program"):
            rec.extend(_cfr3d_program(3, 12, 3))
        assert rec.num_ops == 0
        assert rec.program().phases == []

    def test_capture_validates_like_cfr3d(self):
        with pytest.raises(ValueError, match="power of two"):
            _cfr3d_program(2, 24, 4)
        with pytest.raises(ValueError, match="divisible by grid extent"):
            _cfr3d_program(4, 24, 6)
