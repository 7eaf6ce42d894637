"""Tables II-VI: the closed-form line tables vs the executed phase ledgers.

This is the load-bearing validation of the reproduction methodology: the
figures and the planner's screen are evaluated from the line tables at
paper scale, and these tests prove, over a lattice of shapes, grids and
base-case sizes (non-power-of-two ``n0`` included), that every line
equals the cost the executed algorithm charges to that phase -- with
``==``, not closeness -- that the lines sum to the run's ``max_cost``,
and that the table lists its lines in the run's first-charge order.
"""

import numpy as np
import pytest

from tests.conftest import make_1d, make_cubic, make_tunable

from repro.core.cacqr import ca_cqr, ca_cqr2, cqr2_3d
from repro.core.cfr3d import cfr3d, default_base_case
from repro.core.cqr_1d import cqr2_1d, cqr_1d
from repro.core.mm3d import mm3d
from repro.costmodel.batch import transpose_batch
from repro.costmodel.ledger import Cost
from repro.costmodel.tables import (
    ca_cqr2_lines,
    ca_cqr_lines,
    cfr3d_lines,
    cqr2_1d_lines,
    cqr_1d_lines,
    format_line_table,
    lane_cost,
    mm3d_lines,
    total,
)
from repro.vmpi.distmatrix import DistMatrix, dist_transpose


def assert_lines_exact(vm, lines):
    """Every line == its phase total; the ordered sum == ``max_cost``;
    the lines appear in the run's first-charge order."""
    report = vm.report()
    for key, line in lines.items():
        assert report.phase_total(key) == lane_cost(line), key
    assert report.max_cost == lane_cost(total(lines))
    phases = list(report.phase_max)
    firsts = [next(i for i, name in enumerate(phases)
                   if name == key or name.startswith(key + "."))
              for key, line in lines.items() if line.any()]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("p,m,k,n", [(1, 4, 4, 4), (2, 8, 8, 8), (2, 16, 8, 24),
                                     (3, 9, 6, 3), (3, 12, 6, 9), (4, 16, 16, 16)])
def test_mm3d(p, m, k, n):
    vm, g = make_cubic(p)
    mm3d(vm, DistMatrix.symbolic(g, m, k), DistMatrix.symbolic(g, k, n))
    assert_lines_exact(vm, mm3d_lines(m, k, n, p))


@pytest.mark.parametrize("p,n", [(1, 4), (2, 8), (3, 6), (3, 9), (4, 16)])
def test_transpose(p, n):
    # The CFR3D and CA-CQR tables charge each transpose as this one
    # transpose_batch lane: the (n/p)**2 local block, free when p = 1.
    vm, g = make_cubic(p)
    dist_transpose(vm, DistMatrix.symbolic(g, n, n), "t")
    assert_lines_exact(vm, {"t": transpose_batch(np.array([(n // p) ** 2]),
                                                 np.array([p]))})


CFR3D_CASES = [(1, 8, 2), (1, 8, 8), (1, 24, 3), (1, 76, 19), (2, 8, 4),
               (2, 16, 4), (2, 32, 8), (2, 32, 32), (2, 48, 6), (2, 64, 16),
               (2, 96, 12), (3, 24, 6), (4, 16, 8), (4, 32, 4), (4, 48, 12),
               (4, 64, 16), (4, 256, 16)]


@pytest.mark.parametrize("p,n,n0", CFR3D_CASES)
def test_cfr3d(p, n, n0):
    vm, g = make_cubic(p)
    cfr3d(vm, DistMatrix.symbolic(g, n, n), n0)
    assert_lines_exact(vm, cfr3d_lines(n, p, n0))


CQR1D_CASES = [(16, 4, 1), (64, 8, 4), (72, 6, 6), (96, 12, 3), (128, 16, 8),
               (152, 19, 8), (256, 8, 32), (2 ** 14, 64, 64)]


@pytest.mark.parametrize("m,n,p", CQR1D_CASES)
def test_cqr_1d(m, n, p):
    vm, g = make_1d(p)
    cqr_1d(vm, DistMatrix.symbolic(g, m, n))
    assert_lines_exact(vm, cqr_1d_lines(m, n, p))


@pytest.mark.parametrize("m,n,p", CQR1D_CASES)
def test_cqr2_1d(m, n, p):
    vm, g = make_1d(p)
    cqr2_1d(vm, DistMatrix.symbolic(g, m, n))
    assert_lines_exact(vm, cqr2_1d_lines(m, n, p))


CACQR_CASES = [
    (32, 4, 1, 4, None), (64, 8, 2, 2, None), (64, 8, 2, 4, None),
    (64, 8, 2, 8, None), (128, 16, 2, 8, None), (256, 16, 4, 4, None),
    (96, 8, 2, 4, None), (64, 16, 2, 4, 4), (128, 16, 2, 4, 8),
    (96, 12, 2, 4, 6), (192, 24, 2, 8, 6), (144, 24, 2, 4, 12),
    (108, 18, 3, 3, 9), (216, 36, 3, 6, 9), (76, 19, 1, 4, 19),
    (152, 38, 2, 4, 38), (64, 12, 1, 4, 3), (512, 32, 4, 8, 8),
    (2 ** 12, 64, 4, 16, None),
    # CholInv(38) is not an integral flop count: summing both passes as
    # one doubled pass rounds the total differently from the run, which
    # adds the lines one by one as total() does.
    (40, 38, 2, 4, 38),
]


def _n0(n, c, n0):
    return default_base_case(n, c) if n0 is None else n0


@pytest.mark.parametrize("m,n,c,d,n0", CACQR_CASES)
def test_ca_cqr(m, n, c, d, n0):
    vm, g = make_tunable(c, d)
    ca_cqr(vm, DistMatrix.symbolic(g, m, n), base_case_size=n0)
    assert_lines_exact(vm, ca_cqr_lines(m, n, c, d, _n0(n, c, n0)))


@pytest.mark.parametrize("m,n,c,d,n0", CACQR_CASES)
def test_ca_cqr2(m, n, c, d, n0):
    vm, g = make_tunable(c, d)
    ca_cqr2(vm, DistMatrix.symbolic(g, m, n), base_case_size=n0)
    assert_lines_exact(vm, ca_cqr2_lines(m, n, c, d, _n0(n, c, n0)))


@pytest.mark.parametrize("m,n,p", [(64, 16, 2), (128, 16, 2), (192, 24, 3)])
def test_cqr2_3d_is_cubic_ca_cqr2(m, n, p):
    vm, g = make_cubic(p)
    cqr2_3d(vm, DistMatrix.symbolic(g, m, n))
    assert_lines_exact(vm, ca_cqr2_lines(m, n, p, p, default_base_case(n, p),
                                         prefix="cqr2-3d"))


def test_numeric_and_symbolic_charge_identically(rng):
    # The dual backend invariant: same algorithm, same ledger.
    vm_s, g_s = make_tunable(2, 4)
    ca_cqr2(vm_s, DistMatrix.symbolic(g_s, 32, 8))
    vm_n, g_n = make_tunable(2, 4)
    ca_cqr2(vm_n, DistMatrix.from_global(g_n, rng.standard_normal((32, 8))))
    assert vm_s.report().max_cost == vm_n.report().max_cost
    assert vm_s.report().critical_path_time == vm_n.report().critical_path_time


class TestLanes:
    def test_each_lane_is_its_batch_of_one(self):
        # CFR3D's recursion depth varies per lane: 0, 2 and 4 levels here,
        # plus a non-power-of-two n0 on another grid.
        n = np.array([256, 256, 256, 96])
        p = np.array([2, 2, 2, 3])
        n0 = np.array([256, 64, 16, 6])
        lines = cfr3d_lines(n, p, n0)
        for i in range(len(n)):
            one = cfr3d_lines(int(n[i]), int(p[i]), int(n0[i]))
            assert list(one) == list(lines)
            for key, line in one.items():
                assert line[:, 0].tolist() == lines[key][:, i].tolist(), (i, key)

    def test_ca_cqr2_lanes_over_grids(self):
        m, n = 2 ** 16, 2 ** 8
        c = np.array([1, 2, 4, 8, 2])
        d = np.array([512, 128, 32, 8, 128])
        n0 = np.array([default_base_case(n, int(x)) for x in c])
        n0[-1] //= 4
        got = total(ca_cqr2_lines(m, n, c, d, n0))
        assert got.shape == (3, len(c))
        for i in range(len(c)):
            want = total(ca_cqr2_lines(m, n, int(c[i]), int(d[i]), int(n0[i])))
            assert got[:, i].tolist() == want[:, 0].tolist()

    def test_scalar_inputs_give_one_lane(self):
        lines = ca_cqr2_lines(4096, 64, 2, 16, 16)
        assert {line.shape for line in lines.values()} == {(3, 1)}

    def test_total_adds_lines_in_order(self):
        lines = ca_cqr2_lines(4096, 64, 2, 16, 16)
        want = np.zeros(3)
        for line in lines.values():
            want = want + line[:, 0]
        assert total(lines)[:, 0].tolist() == want.tolist()


class TestValidation:
    """Every lane is checked as the scalar closed forms checked it."""

    def test_cfr3d_cannot_double_past_n(self):
        with pytest.raises(ValueError, match="cannot recurse"):
            cfr3d_lines(24, 4, 4)

    def test_cfr3d_cannot_halve_cleanly(self):
        with pytest.raises(ValueError, match="cannot recurse"):
            cfr3d_lines(12, 2, 5)

    def test_cfr3d_bad_lane_in_a_batch(self):
        with pytest.raises(ValueError, match=r"lanes \[1\]"):
            cfr3d_lines(np.array([32, 24]), 4, 4)

    def test_mm3d_divisibility(self):
        with pytest.raises(ValueError, match="MM3D"):
            mm3d_lines(6, 4, 4, 4)

    def test_ca_cqr_needs_c_dividing_d(self):
        with pytest.raises(ValueError, match=r"c \| d"):
            ca_cqr_lines(64, 8, 2, 3, 2)
        with pytest.raises(ValueError, match=r"c \| d"):
            ca_cqr2_lines(64, 8, np.array([2]), np.array([3]), np.array([4]))

    def test_cqr_1d_needs_p_dividing_m(self):
        with pytest.raises(ValueError, match=r"P \| m"):
            cqr_1d_lines(65, 8, 4)
        with pytest.raises(ValueError, match=r"P \| m"):
            cqr2_1d_lines(65, 8, 4)

    def test_non_integral_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="m must be integral"):
            ca_cqr2_lines(64.7, 8, 2, 4, 4)
        # An integral float is the same candidate.
        assert total(ca_cqr2_lines(64.0, 8, 2, 4, 4)).tolist() == \
            total(ca_cqr2_lines(64, 8, 2, 4, 4)).tolist()

    @pytest.mark.parametrize("bad", [0, -2])
    def test_non_positive_parameter_is_rejected(self, bad):
        with pytest.raises(ValueError, match=">= 1"):
            cfr3d_lines(16, 2, bad)


class TestTableStructure:
    def test_mm3d_lines_have_equal_cost(self):
        # Table II charges lines 7, 9, 12, 14 identically.
        lines = cfr3d_lines(32, 2, 8)
        mm = [line for key, line in lines.items() if ".mm3d-" in key]
        assert len(mm) == 4
        for line in mm[1:]:
            assert line.tolist() == mm[0].tolist()

    def test_mm3d_flops_scale_inverse_p_cubed(self):
        f2 = lane_cost(total(mm3d_lines(64, 64, 64, 2))).flops
        f4 = lane_cost(total(mm3d_lines(64, 64, 64, 4))).flops
        assert f2 == 8 * f4

    def test_merge_is_paper_third_of_n_cubed(self):
        lines = cqr2_1d_lines(64, 8, 4)
        assert lane_cost(lines["cqr2-1d.merge-r"]).flops == 8 ** 3 / 3

    def test_table_ii_structure(self):
        # The record's Table II (n=256, grid 4^3, n0=16): the four MM3D
        # lines dominate bandwidth, the base case dominates latency.
        expected = {k: lane_cost(v) for k, v in cfr3d_lines(256, 4, 16).items()}
        mm_words = sum(v.words for k, v in expected.items() if ".mm3d-" in k)
        assert mm_words > expected["cfr3d.basecase.allgather"].words
        assert expected["cfr3d.basecase.allgather"].messages > 0

    def test_table_iii_structure(self):
        # The record's Table III: one allreduce of 2n^2 words is the only
        # communication; the n^3 CholInv is redundant on every rank.
        m, n, p = 2 ** 14, 64, 64
        vm, g = make_1d(p)
        cqr_1d(vm, DistMatrix.symbolic(g, m, n), phase="cqr1d")
        report = vm.report()
        assert report.phase_total("cqr1d.allreduce").words == 2 * n * n
        assert report.phase_total("cqr1d.cholinv").flops == n ** 3

    def test_table_v_gram_dance_at_record_scale(self):
        # The record's Table V (m=4096, n=64, grid 4x16x4).
        m, n, c, d = 2 ** 12, 64, 4, 16
        vm, g = make_tunable(c, d)
        ca_cqr(vm, DistMatrix.symbolic(g, m, n), phase="cacqr")
        report = vm.report()
        mloc, nloc = m // d, n // c
        assert report.phase_total("cacqr.bcast-w").words == 2 * mloc * nloc
        assert report.phase_total("cacqr.allreduce-roots").words == 2 * nloc * nloc

    def test_gram_dance_words_match_table_v(self):
        # Table V lines 1-5: bcast(mn/dc, c), reduce(n^2/c^2, c),
        # allreduce(n^2/c^2, d/c), bcast(n^2/c^2, c).
        m, n, c, d = 64, 8, 2, 4
        lines = ca_cqr_lines(m, n, c, d, default_base_case(n, c))
        words = {key: lane_cost(line).words for key, line in lines.items()}
        assert words["cacqr.bcast-w"] == 2 * (m // d) * (n // c)
        assert words["cacqr.reduce-group"] == 2 * (n // c) ** 2
        assert words["cacqr.allreduce-roots"] == 2 * (n // c) ** 2
        assert words["cacqr.bcast-depth"] == 2 * (n // c) ** 2


class TestRendering:
    def test_format_with_measured(self):
        vm, g = make_cubic(2)
        cfr3d(vm, DistMatrix.symbolic(g, 16, 16), 4, phase="cfr3d")
        expected = cfr3d_lines(16, 2, 4)
        measured = {k: vm.report().phase_total(k) for k in expected}
        text = format_line_table("Table II", expected, measured)
        assert "OK" in text
        assert "DIFF" not in text

    def test_format_flags_a_mismatch(self):
        expected = cfr3d_lines(16, 2, 4)
        measured = {k: lane_cost(line) for k, line in expected.items()}
        measured["cfr3d.schur"] = Cost()
        text = format_line_table("Table II", expected, measured)
        assert text.count("DIFF") == 1
