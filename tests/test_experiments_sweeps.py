"""Tests for the generic algorithm-comparison sweeps."""

import pytest

from repro.costmodel.params import BLUE_WATERS, STAMPEDE2
from repro.engine import solvers
from repro.experiments.sweeps import (
    fastest_at,
    format_sweep_table,
    series_from_table,
)
from repro.study import study_from_dict


def comparison_table(m, n, machine, proc_counts):
    """The algorithm-comparison planner study's table."""
    return study_from_dict({
        "kind": "planner", "m": m, "n": n, "machine": machine,
        "procs": list(proc_counts),
        "algorithms": [[s.name] for s in solvers()],
        "block_sizes": [32], "inverse_depths": [0],
    }).run(parallel=False)


def sweep(m, n, machine, proc_counts):
    """The comparison study's table as ``label -> timings`` series."""
    return series_from_table(comparison_table(m, n, machine, proc_counts))


def timings_at(m, n, procs, machine):
    """Every applicable algorithm's best modeled timing at one point."""
    return [t for timings in sweep(m, n, machine, (procs,)).values()
            for t in timings]


class TestCompareAlgorithms:
    def test_all_algorithms_present_when_applicable(self):
        timings = timings_at(2 ** 20, 2 ** 8, 2 ** 10, STAMPEDE2)
        labels = {t.algorithm for t in timings}
        assert labels == {"CA-CQR2", "1D-CQR2", "TSQR", "PGEQRF", "CAQR"}

    def test_tsqr_omitted_when_local_too_short(self):
        # m/P < n: TSQR infeasible.
        timings = timings_at(2 ** 12, 2 ** 8, 2 ** 10, STAMPEDE2)
        labels = {t.algorithm for t in timings}
        assert "TSQR" not in labels
        assert "CA-CQR2" in labels

    def test_positive_times_and_configs(self):
        for t in timings_at(2 ** 18, 2 ** 8, 2 ** 8, BLUE_WATERS):
            assert t.seconds > 0
            assert t.config

    def test_ca_beats_1d_for_wide_matrices(self):
        # For n large the 1D algorithm's redundant n^3 and n^2 allreduce
        # are crushing; CA-CQR2 must win.
        timings = timings_at(2 ** 16, 2 ** 12, 2 ** 12, STAMPEDE2)
        by = {t.algorithm: t.seconds for t in timings}
        assert by["CA-CQR2"] < by["1D-CQR2"]

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            timings_at(16, 64, 4, STAMPEDE2)


class TestSweep:
    def test_series_structure(self):
        series = sweep(2 ** 20, 2 ** 10, STAMPEDE2,
                       proc_counts=(2 ** 8, 2 ** 12, 2 ** 16))
        assert "CA-CQR2" in series
        for timings in series.values():
            procs = [t.procs for t in timings]
            assert procs == sorted(procs)

    def test_paper_story_at_scale_on_stampede2(self):
        # The paper's conclusion among *implemented* algorithms: at large P
        # on Stampede2, CA-CQR2 beats ScaLAPACK's PGEQRF and the 1D
        # algorithm decisively.  (The idealized CAQR cost model rivals it
        # -- consistent with the paper's remark that communication-optimal
        # QR algorithms existed on paper but not in practice.)
        series = sweep(2 ** 21, 2 ** 12, STAMPEDE2,
                       proc_counts=(2 ** 16,))
        by = {label: t[0].seconds for label, t in series.items()}
        assert by["CA-CQR2"] < by["PGEQRF"] / 2
        assert by["CA-CQR2"] < by["1D-CQR2"] / 10
        assert fastest_at(series, 2 ** 16) in ("CA-CQR2", "CAQR")

    def test_2d_wins_at_small_scale(self):
        series = sweep(2 ** 21, 2 ** 12, STAMPEDE2,
                       proc_counts=(2 ** 8,))
        assert fastest_at(series, 2 ** 8) in ("PGEQRF", "CAQR")

    def test_paper_scale_comparison(self):
        # The reproduction record's comparison: 2^21 x 2^10 on both machines.
        m, n = 2 ** 21, 2 ** 10
        procs = (2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16)
        s2_table = comparison_table(m, n, STAMPEDE2, procs)
        bw = series_from_table(comparison_table(m, n, BLUE_WATERS, procs))
        s2 = series_from_table(s2_table)
        assert len(s2_table) == len(procs) * 5
        assert "CA-CQR2" in s2 and bw
        # At the largest scale on Stampede2, CA-CQR2 decisively beats the
        # implemented baselines (PGEQRF, 1D); only the idealized CAQR model
        # rivals it.
        by = {label: {t.procs: t.seconds for t in ts} for label, ts in s2.items()}
        top = max(procs)
        assert by["CA-CQR2"][top] < by["PGEQRF"][top] / 2
        assert by["CA-CQR2"][top] < by["1D-CQR2"][top] / 2
        assert fastest_at(s2, top) in ("CA-CQR2", "CAQR")
        # At the smallest scale a 2D algorithm wins (compute-bound regime).
        assert fastest_at(s2, min(procs)) in ("PGEQRF", "CAQR")

    def test_fastest_at_unknown_point(self):
        series = sweep(2 ** 16, 2 ** 8, STAMPEDE2, proc_counts=(64,))
        assert fastest_at(series, 999) is None

    def test_table_renders(self):
        series = sweep(2 ** 18, 2 ** 9, STAMPEDE2,
                       proc_counts=(2 ** 6, 2 ** 10))
        text = format_sweep_table(2 ** 18, 2 ** 9, STAMPEDE2, series)
        assert "winner" in text
        assert "CA-CQR2" in text

    def test_empty_series_renders_friendly_table(self):
        # Regression: an all-infeasible sweep used to crash on max().
        text = format_sweep_table(2 ** 18, 2 ** 9, STAMPEDE2, {})
        assert "no feasible points" in text
        assert "algorithm comparison" in text
