"""Tests for the time-breakdown helper and the CAQR baseline model."""

import pytest

from repro.baselines.caqr import caqr_cost
from repro.baselines.scalapack_qr import pgeqrf_cost
from repro.core.cfr3d import default_base_case
from repro.costmodel.breakdown import breakdown
from repro.costmodel.ledger import Cost
from repro.costmodel.params import ABSTRACT_MACHINE, STAMPEDE2
from repro.costmodel.tables import ca_cqr2_lines, lane_cost, total


class TestBreakdown:
    def test_shares_sum_to_one(self):
        b = breakdown(Cost(10, 1000, 1e9), STAMPEDE2)
        total = b.share("latency") + b.share("bandwidth") + b.share("compute")
        assert total == pytest.approx(1.0)

    def test_total_matches_execution_model(self):
        from repro.costmodel.performance import ExecutionModel

        cost = Cost(123, 4.5e6, 7.8e10)
        b = breakdown(cost, STAMPEDE2)
        assert b.total == pytest.approx(ExecutionModel(STAMPEDE2).seconds(cost))

    def test_dominant_term(self):
        assert breakdown(Cost(1e9, 0, 0), ABSTRACT_MACHINE).dominant == "latency"
        assert breakdown(Cost(0, 1e9, 0), ABSTRACT_MACHINE).dominant == "bandwidth"
        assert breakdown(Cost(0, 0, 1e9), ABSTRACT_MACHINE).dominant == "compute"

    def test_zero_cost(self):
        b = breakdown(Cost(), STAMPEDE2)
        assert b.total == 0
        assert b.share("compute") == 0

    def test_render(self):
        text = breakdown(Cost(10, 100, 1000), ABSTRACT_MACHINE).render()
        assert "latency" in text and "%" in text

    def test_paper_narrative_strong_scaling(self):
        # At 64 Stampede2 nodes CA-CQR2 is compute-heavy; at 1024 nodes
        # communication terms take over -- the crossover mechanism.
        m, n, c = 2 ** 21, 2 ** 12, 8
        small, large = (breakdown(lane_cost(total(ca_cqr2_lines(
            m, n, c, d, default_base_case(n, c)))), STAMPEDE2) for d in (64, 1024))
        assert small.share("compute") > large.share("compute")
        assert large.share("bandwidth") > small.share("bandwidth")


class TestCAQRModel:
    def test_latency_beats_pgeqrf(self):
        m, n, pr, pc, b = 2 ** 20, 2 ** 10, 2 ** 9, 2 ** 3, 32
        caqr = caqr_cost(m, n, pr, pc, b)
        pg = pgeqrf_cost(m, n, pr, pc, b)
        assert caqr.messages < pg.messages / 4

    def test_bandwidth_same_class_as_pgeqrf(self):
        m, n, pr, pc, b = 2 ** 20, 2 ** 10, 2 ** 9, 2 ** 3, 32
        caqr = caqr_cost(m, n, pr, pc, b)
        pg = pgeqrf_cost(m, n, pr, pc, b)
        assert 0.2 < caqr.words / pg.words < 5.0

    def test_flops_near_householder(self):
        from repro.kernels.flops import householder_flops

        m, n, pr, pc, b = 2 ** 20, 2 ** 10, 2 ** 9, 2 ** 3, 32
        caqr = caqr_cost(m, n, pr, pc, b)
        assert caqr.flops < 2.5 * householder_flops(m, n) / (pr * pc)

    def test_ca_cqr2_beats_caqr_bandwidth_at_scale(self):
        # The paper's Theta(P^(1/6)) claim against the best 2D algorithms
        # applies to CAQR too.
        m = n = 2 ** 13
        procs = 2 ** 15
        # Best CA grid for a square matrix is the cubic one (c = P^(1/3)).
        ca = lane_cost(total(ca_cqr2_lines(m, n, 32, 32, default_base_case(n, 32))))
        cq = caqr_cost(m, n, 2 ** 8, 2 ** 7, 64)
        assert ca.words < cq.words

    def test_validation(self):
        with pytest.raises(ValueError):
            caqr_cost(16, 32, 2, 2, 8)
