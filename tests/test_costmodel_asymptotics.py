"""Table I asymptotics vs the exact closed-form costs: scaling-exponent checks.

Experiment E1's backbone: for each Table I row, sweep the driving parameter
over powers of two and verify the exact cost function tracks the leading-
order expression (ratios converge to a constant).
"""

import math

import pytest

from repro.core.cfr3d import default_base_case
from repro.costmodel.asymptotics import (
    ca_cqr_asymptotic,
    ca_cqr_optimal_asymptotic,
    cfr3d_asymptotic,
    cqr_1d_asymptotic,
    cqr_3d_asymptotic,
    mm3d_asymptotic,
)
from repro.costmodel.tables import (
    ca_cqr_lines,
    cfr3d_lines,
    cqr_1d_lines,
    lane_cost,
    mm3d_lines,
    total,
)


def ratios_converge(pairs, tol=0.35):
    """Check exact/asymptotic ratios stay within a band (constant factor)."""
    ratios = [e / a for e, a in pairs if a > 0]
    lo, hi = min(ratios), max(ratios)
    assert hi / lo < 1 + tol, f"ratios drift: {ratios}"


class TestMM3DRow:
    def test_bandwidth_scales_as_p_to_two_thirds(self):
        pairs = []
        for p in (2, 4, 8, 16):
            n = 64 * p
            pairs.append((lane_cost(total(mm3d_lines(n, n, n, p))).words,
                          mm3d_asymptotic(n, n, n, p ** 3).bandwidth))
        ratios_converge(pairs, tol=0.2)

    def test_flops_scale_as_inverse_p(self):
        pairs = []
        for p in (2, 4, 8):
            pairs.append((lane_cost(total(mm3d_lines(64, 64, 64, p))).flops,
                          mm3d_asymptotic(64, 64, 64, p ** 3).flops))
        ratios_converge(pairs, tol=0.01)


class TestCFR3DRow:
    def test_bandwidth(self):
        pairs = []
        for p in (2, 4, 8):
            n = 64 * p
            n0 = default_base_case(n, p)
            pairs.append((lane_cost(total(cfr3d_lines(n, p, n0))).words,
                          cfr3d_asymptotic(n, p ** 3).bandwidth))
        ratios_converge(pairs, tol=0.6)

    def test_latency_superlogarithmic(self):
        # P^(2/3) log P: latency grows polynomially with grid extent.
        msgs = []
        for p in (2, 4, 8):
            n = 64 * p
            msgs.append(lane_cost(total(cfr3d_lines(n, p, default_base_case(n, p)))).messages)
        assert msgs[1] > 2 * msgs[0]
        assert msgs[2] > 2 * msgs[1]


class TestCQR1DRow:
    def test_bandwidth_flat_in_p(self):
        words = [lane_cost(total(cqr_1d_lines(64 * p, 32, p))).words for p in (4, 8, 16, 32)]
        assert len(set(words)) == 1
        assert words[0] == pytest.approx(2 * 32 * 32)

    def test_flop_floor_n_cubed(self):
        n = 64
        asym = cqr_1d_asymptotic(n * 2 ** 20, n, 2 ** 20)
        assert asym.flops >= n ** 3


class TestCACQRRow:
    def test_bandwidth_tracks_leading_term_at_fixed_c(self):
        # For a fixed c-family (the constant in front of n^2/c^2 depends on
        # c through CFR3D), sweeping d with m ~ d keeps the per-term
        # constants fixed, so exact/asymptotic ratios must converge.
        n, c = 2 ** 8, 2
        pairs = []
        for d in (4, 16, 64):
            m = 2 ** 8 * d
            exact = lane_cost(total(ca_cqr_lines(m, n, c, d, default_base_case(n, c))))
            asym = ca_cqr_asymptotic(m, n, c, d)
            pairs.append((exact.words, asym.bandwidth))
        ratios_converge(pairs, tol=0.5)

    def test_flops_track_leading_term(self):
        n, c = 2 ** 8, 2
        pairs = []
        for d in (4, 16, 64):
            m = 2 ** 8 * d
            exact = lane_cost(total(ca_cqr_lines(m, n, c, d, default_base_case(n, c))))
            asym = ca_cqr_asymptotic(m, n, c, d)
            pairs.append((exact.flops, asym.flops))
        ratios_converge(pairs, tol=0.5)

    def test_optimal_bandwidth_is_mn2_over_p_to_two_thirds(self):
        m, n, p = 2 ** 20, 2 ** 10, 2 ** 12
        asym = ca_cqr_optimal_asymptotic(m, n, p)
        assert asym.bandwidth == pytest.approx((m * n * n / p) ** (2 / 3))


class TestP16Claim:
    def test_communication_improvement_over_2d(self):
        # The headline Theta(P^(1/6)) claim: CA-CQR's optimal bandwidth
        # vs the 2D lower bound sqrt(m n^3 / P) grows like P^(1/6).
        improvements = []
        for logp in (9, 12, 15, 18):
            p = 2 ** logp
            m = n = 2 ** 12
            w_2d = math.sqrt(m * n ** 3 / p)
            w_3d = ca_cqr_optimal_asymptotic(m, n, p).bandwidth
            improvements.append(w_2d / w_3d)
        # Each 8x increase in P should grow the improvement by 8^(1/6) ~ 1.41.
        for a, b in zip(improvements, improvements[1:]):
            assert b / a == pytest.approx(2 ** 0.5, rel=0.01)


class TestCQR3DRow:
    def test_flops(self):
        asym = cqr_3d_asymptotic(2 ** 12, 2 ** 12, 2 ** 9)
        assert asym.flops == pytest.approx(2 ** 12 * 2 ** 24 / 2 ** 9)
