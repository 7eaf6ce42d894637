"""Tests for the crossover analysis."""

import re

import pytest

from repro.baselines.scalapack_qr import pgeqrf_cost
from repro.core.cfr3d import default_base_case
from repro.core.tuning import feasible_grids
from repro.costmodel.params import BLUE_WATERS, STAMPEDE2
from repro.costmodel.performance import ExecutionModel
from repro.costmodel.tables import ca_cqr2_lines, lane_cost, total
from repro.experiments.crossover import (
    CrossoverPoint,
    find_crossover,
    format_crossover_table,
    points_from_table,
)
from repro.study import study_from_dict


def crossover_table(m, n, machine, node_counts):
    """The crossover planner study's table: both sides at every node count."""
    return study_from_dict({
        "kind": "planner", "m": m, "n": n, "machine": machine,
        "procs": [k * machine.procs_per_node for k in node_counts],
        "algorithms": [["ca_cqr2"], ["scalapack"]],
        "block_sizes": [16, 32, 64], "inverse_depths": [0],
    }).run(parallel=False)


def crossover_points(m, n, machine, node_counts):
    """Best-vs-best points of the crossover study at every node count."""
    return points_from_table(crossover_table(m, n, machine, node_counts),
                             machine.procs_per_node)


class TestBestConfigs:
    """Each side's row is the scalar-oracle minimum over its grids."""

    M, N, NODES = 2 ** 20, 2 ** 10, 2 ** 12 // STAMPEDE2.procs_per_node

    def row(self, side):
        table = crossover_table(self.M, self.N, STAMPEDE2, (self.NODES,))
        return table.first(procs=2 ** 12, algorithms=side).values

    def test_best_ca_is_minimal(self):
        model = ExecutionModel(STAMPEDE2)
        row = self.row("ca_cqr2")
        expected = min(
            model.seconds(lane_cost(total(ca_cqr2_lines(
                self.M, self.N, s.c, s.d, default_base_case(self.N, s.c)))))
            for s in feasible_grids(self.M, self.N, 2 ** 12))
        assert row["modeled_seconds"] == expected
        assert re.fullmatch(r"(\d+)x\d+x\1,n0=\d+", row["config"])

    def test_best_scalapack_sweeps_pr(self):
        model = ExecutionModel(STAMPEDE2)
        row = self.row("scalapack")
        procs = 2 ** 12
        runnable = [model.seconds(pgeqrf_cost(
                        self.M, self.N, pr, procs // pr, b,
                        kernel_efficiency=STAMPEDE2.qr_kernel_efficiency))
                    for pr in (2 ** k for k in range(13))
                    for b in (16, 32, 64)
                    if b % (procs // pr) == 0 and self.M // pr >= b]
        assert row["modeled_seconds"] == min(runnable)
        assert row["config"].startswith("pr=")


class TestCrossover:
    def test_stampede2_has_crossover(self):
        # The paper's core result: CA-CQR2 overtakes at some node count on
        # Stampede2 and stays ahead.
        points = crossover_points(2 ** 21, 2 ** 12, STAMPEDE2,
                                  node_counts=(16, 64, 256, 1024, 4096))
        cross = find_crossover(points)
        assert cross is not None
        assert cross <= 1024
        last = points[-1]
        assert last.ca_wins and last.speedup > 1.5

    def test_blue_waters_crossover_late_or_never(self):
        # On BW the same sweep must favor ScaLAPACK at moderate scale.
        points = crossover_points(2 ** 21, 2 ** 12, BLUE_WATERS,
                                  node_counts=(16, 64, 256, 1024))
        assert not points[0].ca_wins
        cross = find_crossover(points)
        assert cross is None or cross >= 1024

    def test_speedup_monotone_towards_scale_on_stampede2(self):
        points = crossover_points(2 ** 21, 2 ** 12, STAMPEDE2,
                                  node_counts=(64, 256, 1024, 4096))
        speedups = [p.speedup for p in points]
        assert speedups == sorted(speedups)

    def test_paper_scale_sweep(self):
        # The reproduction record's sweep: nine node counts on both machines.
        m, n = 2 ** 21, 2 ** 12
        nodes = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
        s2_table = crossover_table(m, n, STAMPEDE2, nodes)
        bw_table = crossover_table(m, n, BLUE_WATERS, nodes)
        s2 = points_from_table(s2_table, STAMPEDE2.procs_per_node)
        bw = points_from_table(bw_table, BLUE_WATERS.procs_per_node)
        assert len(s2_table) == len(nodes) * 2
        assert s2 and bw
        cross_s2 = find_crossover(s2)
        cross_bw = find_crossover(bw)
        assert cross_s2 is not None and cross_s2 <= 1024
        assert cross_bw is None or cross_bw > cross_s2
        assert s2[-1].speedup > 1.5
        # Speedup grows monotonically toward scale on Stampede2.
        speedups = [p.speedup for p in s2 if p.nodes >= 64]
        assert speedups == sorted(speedups)

    def test_point_properties(self):
        pt = CrossoverPoint(nodes=64, ca_seconds=1.0, sl_seconds=2.0,
                            ca_grid="4x64x4", sl_grid="pr=512,pc=8,b=32")
        assert pt.ca_wins and pt.speedup == pytest.approx(2.0)

    def test_table_renders(self):
        points = crossover_points(2 ** 18, 2 ** 9, STAMPEDE2,
                                  node_counts=(16, 64))
        text = format_crossover_table(2 ** 18, 2 ** 9, STAMPEDE2, points)
        assert "crossover" in text
        assert "winner" in text

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            crossover_points(8, 16, STAMPEDE2, (16,))
