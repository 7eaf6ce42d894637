"""Unit tests for grid tuning (Section III-B's c x d x c selection)."""

import time

import pytest

from repro.core.tuning import (
    GridShape,
    feasible_grids,
    grid_is_feasible,
    inverse_depth_to_base_case,
    optimal_grid,
)
from repro.core.cfr3d import default_base_case
from repro.costmodel.params import BLUE_WATERS, STAMPEDE2
from repro.costmodel.tables import ca_cqr2_lines, lane_cost, total
from repro.plan import Planner, ProblemSpec


def planned_grid(m, n, procs, machine, inverse_depth=0):
    """The planner's CA-CQR2 pick: the model-driven grid selection."""
    problem = ProblemSpec(m=m, n=n, procs=procs, machine=machine,
                          algorithms=("ca_cqr2",),
                          inverse_depths=(inverse_depth,))
    best = Planner(refine=None).plan(problem).best()
    return GridShape(c=best.spec_fields["c"], d=best.spec_fields["d"])


class TestGridShape:
    def test_procs_and_subcubes(self):
        g = GridShape(c=4, d=16)
        assert g.procs == 256
        assert g.subcubes == 4
        assert str(g) == "4x16x4"


class TestFeasibleGrids:
    def test_covers_1d_to_3d(self):
        grids = feasible_grids(2 ** 16, 2 ** 8, 512)
        cs = [g.c for g in grids]
        assert 1 in cs           # 1D end
        assert 8 in cs           # cubic end (8^3 = 512)
        assert all(g.procs == 512 for g in grids)
        assert all(g.d % g.c == 0 for g in grids)

    def test_ordered_by_c(self):
        grids = feasible_grids(2 ** 16, 2 ** 8, 512)
        assert [g.c for g in grids] == sorted(g.c for g in grids)

    def test_divisibility_filters(self):
        # n = 4 rules out c = 8.
        grids = feasible_grids(2 ** 16, 4, 512)
        assert all(g.c <= 4 for g in grids)

    def test_d_at_least_c(self):
        for g in feasible_grids(2 ** 20, 2 ** 10, 4096):
            assert g.d >= g.c

    def test_feasibility_checks(self):
        assert grid_is_feasible(64, 8, GridShape(2, 4))
        assert not grid_is_feasible(64, 8, GridShape(2, 3))   # c does not divide d
        assert not grid_is_feasible(62, 8, GridShape(2, 4))   # m not divisible by d


class TestOptimalGrid:
    def test_square_matrix_gets_cubic_grid(self):
        g = optimal_grid(2 ** 10, 2 ** 10, 512)
        assert g.c == 8 and g.d == 8

    def test_very_tall_gets_1d(self):
        g = optimal_grid(2 ** 24, 2 ** 4, 64)
        assert g.c == 1

    def test_interior_aspect_ratio(self):
        # m/n = 2^6, P = 2^12: real optimum c = (P n/m)^(1/3) = 2^2.
        g = optimal_grid(2 ** 18, 2 ** 12, 2 ** 12)
        assert g.c == 4

    def test_raises_when_nothing_feasible(self):
        with pytest.raises(ValueError, match="no feasible"):
            optimal_grid(7, 3, 4)


class TestInverseDepth:
    def test_zero_is_default(self):
        from repro.core.cfr3d import default_base_case

        assert inverse_depth_to_base_case(256, 4, 0) == default_base_case(256, 4)

    def test_each_level_halves(self):
        n0_0 = inverse_depth_to_base_case(1024, 2, 0)
        n0_1 = inverse_depth_to_base_case(1024, 2, 1)
        n0_2 = inverse_depth_to_base_case(1024, 2, 2)
        assert n0_1 == n0_0 // 2
        assert n0_2 == n0_0 // 4

    def test_clamped_at_grid_extent(self):
        # Cannot go below a multiple of c.
        n0 = inverse_depth_to_base_case(64, 4, 50)
        assert n0 % 4 == 0
        assert n0 >= 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            inverse_depth_to_base_case(64, 4, -1)


class TestFeasibilityEdgeCases:
    def test_extreme_aspect_only_1d_feasible(self):
        # n = 3 on a power-of-two processor count: c must divide n and
        # c**2 must divide P, so only the 1D end of the grid survives.
        grids = feasible_grids(3 * 2 ** 20, 3, 1024)
        assert grids == [GridShape(c=1, d=1024)]

    def test_n_smaller_than_c_rejected(self):
        # CFR3D needs at least one base-case row per face processor.
        assert not grid_is_feasible(2 ** 20, 4, GridShape(c=8, d=16))
        assert all(g.c <= 4 for g in feasible_grids(2 ** 20, 4, 1024))

    def test_search_stops_at_c_equals_n(self):
        # The loop ran c up to sqrt(P): billions of steps at P = 2**63 - 1.
        def brute(m, n, procs):
            return [GridShape(c=c, d=procs // (c * c))
                    for c in range(1, int(procs ** 0.5) + 1)
                    if procs % (c * c) == 0 and procs // (c * c) >= c
                    and grid_is_feasible(m, n, GridShape(c, procs // (c * c)))]

        for m, n, procs in [(2 ** 16, 4, 512), (2 ** 20, 2 ** 10, 4096),
                            (3 * 2 ** 20, 3, 1024), (64, 8, 1),
                            (2 ** 12, 16, 2 ** 16)]:
            assert feasible_grids(m, n, procs) == brute(m, n, procs)
        start = time.perf_counter()
        assert feasible_grids(4096, 8, 2 ** 63 - 1) == []
        assert time.perf_counter() - start < 1.0

    def test_single_processor(self):
        assert feasible_grids(64, 8, 1) == [GridShape(c=1, d=1)]
        assert optimal_grid(64, 8, 1) == GridShape(c=1, d=1)

    def test_optimal_grid_snaps_inward_when_cube_infeasible(self):
        # A square matrix wants c = P**(1/3) = 8, but n = 4 forbids c > 4.
        g = optimal_grid(2 ** 16, 4, 512)
        assert g.c <= 4
        assert g in feasible_grids(2 ** 16, 4, 512)

    def test_autotune_raises_when_nothing_feasible(self):
        with pytest.raises(ValueError, match="no feasible"):
            planned_grid(7, 3, 4, STAMPEDE2)


class TestAutotunePlannerShim:
    """The planner's CA-CQR2 pick equals direct minimization over the grids."""

    def _direct_minimization(self, m, n, procs, machine, inverse_depth=0):
        from repro.costmodel.tables import ca_cqr2_lines, lane_cost, total
        from repro.costmodel.performance import ExecutionModel

        model = ExecutionModel(machine)

        def t(shape):
            n0 = inverse_depth_to_base_case(n, shape.c, inverse_depth)
            return model.seconds(lane_cost(total(ca_cqr2_lines(
                m, n, shape.c, shape.d, n0))))

        return min(feasible_grids(m, n, procs), key=t)

    @pytest.mark.parametrize("m,n,procs,machine", [
        (2 ** 16, 2 ** 8, 512, STAMPEDE2),
        (2 ** 22, 2 ** 4, 256, BLUE_WATERS),
        (2 ** 12, 2 ** 12, 512, STAMPEDE2),
        (2 ** 18, 2 ** 9, 4096, BLUE_WATERS),
    ])
    def test_matches_legacy_minimization(self, m, n, procs, machine):
        assert planned_grid(m, n, procs, machine) == \
            self._direct_minimization(m, n, procs, machine)

    def test_matches_legacy_at_depth(self):
        m, n, procs = 2 ** 18, 2 ** 9, 4096
        for depth in (0, 1, 2):
            assert planned_grid(m, n, procs, STAMPEDE2, depth) == \
                self._direct_minimization(m, n, procs, STAMPEDE2, depth)


class TestAutotune:
    def test_returns_feasible(self):
        g = planned_grid(2 ** 16, 2 ** 8, 512, STAMPEDE2)
        assert g in feasible_grids(2 ** 16, 2 ** 8, 512)

    def test_tall_skinny_prefers_small_c_on_low_latency_machine(self):
        # Very overdetermined: the n^2/c^2 and n^3/c^3 terms are negligible,
        # so larger c only adds synchronization.
        g = planned_grid(2 ** 22, 2 ** 4, 256, BLUE_WATERS)
        assert g.c <= 2

    def test_squarish_prefers_larger_c(self):
        g = planned_grid(2 ** 12, 2 ** 12, 512, STAMPEDE2)
        assert g.c >= 4

    def test_beats_or_matches_paper_rule_under_model(self):
        from repro.core.cfr3d import default_base_case
        from repro.costmodel.tables import ca_cqr2_lines, lane_cost, total
        from repro.costmodel.performance import ExecutionModel

        m, n, procs = 2 ** 18, 2 ** 9, 4096
        model = ExecutionModel(STAMPEDE2)

        def t(g):
            return model.seconds(lane_cost(total(ca_cqr2_lines(
                m, n, g.c, g.d, default_base_case(n, g.c)))))

        assert t(planned_grid(m, n, procs, STAMPEDE2)) <= t(optimal_grid(m, n, procs))


class TestAblations:
    """The reproduction record's grid-shape and InverseDepth sweeps."""

    def test_grid_shape_interpolates_1d_to_3d(self):
        m, n, procs = 2 ** 21, 2 ** 11, 2 ** 12
        by_c = {s.c: lane_cost(total(ca_cqr2_lines(
                    m, n, s.c, s.d, default_base_case(n, s.c))))
                for s in feasible_grids(m, n, procs)}
        cs = sorted(by_c)
        assert cs[0] == 1 and cs[-1] >= 8, "sweep must span 1D to 3D"
        # Latency monotone up in c; redundant flops monotone down.
        msgs = [by_c[c].messages for c in cs]
        flops = [by_c[c].flops for c in cs]
        assert msgs == sorted(msgs)
        assert flops == sorted(flops, reverse=True)
        # The paper's rule lands on an interior grid here.
        rule = optimal_grid(m, n, procs)
        assert 1 < rule.c < procs ** (1 / 3) + 1

    def test_inverse_depth_trades_latency_for_flops(self):
        m, n, c, d = 2 ** 21, 2 ** 12, 8, 2 ** 12
        n0s, costs = [], []
        for depth in range(5):
            n0s.append(inverse_depth_to_base_case(n, c, depth))
            costs.append(lane_cost(total(ca_cqr2_lines(m, n, c, d, n0s[-1]))))
        # Each extra level adds latency and removes redundant flops.
        msgs = [cost.messages for cost in costs]
        flops = [cost.flops for cost in costs]
        assert msgs == sorted(msgs)
        assert flops == sorted(flops, reverse=True)
        # Distinct depths actually change the cutoff (not saturated).
        assert n0s[0] > n0s[2]
