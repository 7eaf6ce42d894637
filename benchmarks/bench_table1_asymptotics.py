"""E1 -- Table I: asymptotic cost verification for every algorithm row.

For each Table I row we sweep the driving parameter and print the measured
(exact) cost next to the leading-order expression; the ratio column should
be flat (a constant factor), confirming the scaling exponents the paper
derives.  The benchmark times a full sweep evaluation.
"""

from __future__ import annotations


from benchmarks.common import archive

from repro.core.cfr3d import default_base_case
from repro.costmodel.asymptotics import (
    ca_cqr_asymptotic,
    cfr3d_asymptotic,
    cqr_1d_asymptotic,
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


def _row(label, lines, asym_value, kind):
    exact = lane_cost(total(lines))
    value = {"lat": exact.messages, "bw": exact.words, "fl": exact.flops}[kind]
    ratio = value / asym_value if asym_value else float("nan")
    return f"{label:<28} {value:>14.0f} {asym_value:>14.0f} {ratio:>8.2f}"


def table1_sweep():
    lines = ["Table I verification: exact cost vs leading-order term",
             "=" * 70,
             f"{'case':<28} {'exact':>14} {'asymptotic':>14} {'ratio':>8}"]

    lines.append("-- MM3D bandwidth ~ (mn+nk+mk)/P^(2/3) --")
    for p in (2, 4, 8, 16):
        n = 64 * p
        lines.append(_row(f"mm3d n={n} p^3={p ** 3}", mm3d_lines(n, n, n, p),
                          mm3d_asymptotic(n, n, n, p ** 3).bandwidth, "bw"))

    lines.append("-- CFR3D bandwidth ~ n^2/P^(2/3) --")
    for p in (2, 4, 8):
        n = 128 * p
        n0 = default_base_case(n, p)
        lines.append(_row(f"cfr3d n={n} p^3={p ** 3}", cfr3d_lines(n, p, n0),
                          cfr3d_asymptotic(n, p ** 3).bandwidth, "bw"))

    lines.append("-- 1D-CQR bandwidth ~ n^2 (flat in P) --")
    for p in (4, 16, 64):
        m = 64 * p
        lines.append(_row(f"1d-cqr m={m} P={p}", cqr_1d_lines(m, 32, p),
                          cqr_1d_asymptotic(m, 32, p).bandwidth, "bw"))

    lines.append("-- CA-CQR bandwidth ~ mn/(dc) + n^2/c^2 (fixed c=2) --")
    for d in (4, 16, 64):
        m, n, c = 256 * d, 256, 2
        lines.append(_row(f"ca-cqr d={d}", ca_cqr_lines(m, n, c, d, default_base_case(n, c)),
                          ca_cqr_asymptotic(m, n, c, d).bandwidth, "bw"))

    lines.append("-- CA-CQR flops ~ mn^2/(c^2 d) + n^3/c^3 (fixed c=2) --")
    for d in (4, 16, 64):
        m, n, c = 256 * d, 256, 2
        lines.append(_row(f"ca-cqr d={d}", ca_cqr_lines(m, n, c, d, default_base_case(n, c)),
                          ca_cqr_asymptotic(m, n, c, d).flops, "fl"))
    return "\n".join(lines)


def _ratios(rows, pick):
    out = []
    for args in rows:
        exact, asym = pick(*args)
        out.append(exact / asym)
    return out


def bench_table1(benchmark):
    text = benchmark(table1_sweep)
    archive("table1_asymptotics", text)

    # Assert the flat-ratio property for two representative rows.
    mm_ratios = _ratios([(2,), (4,), (8,), (16,)],
                        lambda p: (lane_cost(total(mm3d_lines(64 * p, 64 * p, 64 * p, p))).words,
                                   mm3d_asymptotic(64 * p, 64 * p, 64 * p, p ** 3).bandwidth))
    assert max(mm_ratios) / min(mm_ratios) < 1.2

    ca_ratios = _ratios([(4,), (16,), (64,)],
                        lambda d: (lane_cost(total(ca_cqr_lines(
                            256 * d, 256, 2, d, default_base_case(256, 2)))).words,
                                   ca_cqr_asymptotic(256 * d, 256, 2, d).bandwidth))
    assert max(ca_ratios) / min(ca_ratios) < 1.5
