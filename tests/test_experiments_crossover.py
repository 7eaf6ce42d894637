"""Tests for the crossover analysis."""

import pytest

from repro.costmodel.params import BLUE_WATERS, STAMPEDE2
from repro.experiments.crossover import (
    CrossoverPoint,
    best_ca_seconds,
    best_scalapack_seconds,
    crossover_study,
    find_crossover,
    format_crossover_table,
    points_from_table,
)


def crossover_points(m, n, machine, node_counts):
    """Best-vs-best points of the crossover study at every node count."""
    return points_from_table(
        crossover_study(m, n, machine, node_counts).run(parallel=False))


class TestBestConfigs:
    def test_best_ca_is_minimal(self):
        t, grid = best_ca_seconds(2 ** 20, 2 ** 10, 2 ** 12, STAMPEDE2)
        assert t > 0 and "x" in grid

    def test_best_scalapack_sweeps_pr(self):
        t, cfg = best_scalapack_seconds(2 ** 20, 2 ** 10, 2 ** 12, STAMPEDE2)
        assert t > 0 and cfg.startswith("pr=")


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
