"""Tests for the accuracy study (experiment E12): the stability ladder."""

import pytest

from repro.experiments.accuracy import (
    ACCURACY_ALGORITHMS,
    accuracy_study,
    measure,
    rows_from_table,
)
from repro.experiments.report import format_accuracy_table
from repro.utils.matgen import matrix_with_condition


@pytest.fixture(scope="module")
def sweep():
    study = accuracy_study(m=256, n=16,
                           conditions=(1e1, 1e4, 1e7, 1e12, 1e14), seed=7)
    return rows_from_table(study.run(parallel=False))


def rows_for(sweep, algo):
    return {r.condition: r for r in sweep if r.algorithm == algo}


class TestSweepStructure:
    def test_all_algorithms_present(self, sweep):
        algos = {r.algorithm for r in sweep}
        assert algos == set(ACCURACY_ALGORITHMS)

    def test_row_count(self, sweep):
        assert len(sweep) == 5 * len(ACCURACY_ALGORITHMS)


class TestStabilityLadder:
    def test_householder_always_orthogonal(self, sweep):
        for r in rows_for(sweep, "Householder").values():
            assert not r.failed
            assert r.orthogonality < 1e-13

    def test_cholesky_qr_degrades_quadratically(self, sweep):
        rows = rows_for(sweep, "CholeskyQR")
        mild, hard = rows[1e1], rows[1e4]
        assert not mild.failed and not hard.failed
        assert hard.orthogonality > 1e3 * mild.orthogonality

    def test_cholesky_qr_breaks_down_eventually(self, sweep):
        rows = rows_for(sweep, "CholeskyQR")
        assert rows[1e14].failed

    def test_cqr2_matches_householder_below_sqrt_eps(self, sweep):
        hh = rows_for(sweep, "Householder")
        cq = rows_for(sweep, "CholeskyQR2")
        for cond in (1e1, 1e4, 1e7):
            assert not cq[cond].failed
            assert cq[cond].orthogonality < 100 * max(hh[cond].orthogonality, 1e-16)

    def test_cqr2_fails_beyond_sqrt_eps(self, sweep):
        rows = rows_for(sweep, "CholeskyQR2")
        assert rows[1e12].failed or rows[1e12].orthogonality > 1e-8
        assert rows[1e14].failed

    def test_shifted_cqr3_unconditionally_stable(self, sweep):
        for cond, r in rows_for(sweep, "sCholeskyQR3").items():
            assert not r.failed, f"sCQR3 failed at cond={cond}"
            assert r.orthogonality < 1e-12

    def test_residuals_small_when_not_failed(self, sweep):
        for r in sweep:
            if not r.failed and r.algorithm != "sCholeskyQR3":
                assert r.residual < 1e-9


class TestPaperSweep:
    """The reproduction record's ladder: 1024 x 64, kappa = 1e1 .. 1e15."""

    CONDITIONS = (1e1, 1e3, 1e5, 1e7, 1e9, 1e11, 1e13, 1e15)

    def test_stability_ladder(self):
        table = accuracy_study(m=1024, n=64, conditions=self.CONDITIONS,
                               seed=1234).run(parallel=False)
        # The study covers the full (condition x algorithm) grid.
        assert len(table) == len(self.CONDITIONS) * 5
        by = {(r.algorithm, r.condition): r for r in rows_from_table(table)}
        # Householder: always at machine precision.
        for cond in self.CONDITIONS:
            assert by[("Householder", cond)].orthogonality < 1e-13
        # CholeskyQR: quadratic degradation, then breakdown.
        assert by[("CholeskyQR", 1e5)].orthogonality > \
            1e6 * by[("CholeskyQR", 1e1)].orthogonality
        assert by[("CholeskyQR", 1e15)].failed
        # CholeskyQR2: Householder-level until ~1/sqrt(eps), then broken.
        for cond in (1e1, 1e3, 1e5, 1e7):
            assert by[("CholeskyQR2", cond)].orthogonality < 1e-13
        late = by[("CholeskyQR2", 1e13)]
        assert late.failed or late.orthogonality > 1e-8
        # Shifted CholeskyQR3: unconditionally stable.
        for cond in self.CONDITIONS:
            r = by[("sCholeskyQR3", cond)]
            assert not r.failed and r.orthogonality < 1e-12


class TestMeasure:
    def test_reports_failure_not_raise(self):
        a = matrix_with_condition(128, 16, 1e15, rng=0)
        orth, resid, failed = measure(ACCURACY_ALGORITHMS["CholeskyQR"], a)
        assert failed
        assert orth is None and resid is None


class TestReportRendering:
    def test_table_contains_breakdowns_and_values(self, sweep):
        text = format_accuracy_table(sweep)
        assert "BREAKDOWN" in text
        assert "Householder" in text
        assert "e-" in text  # scientific-notation orthogonality values
