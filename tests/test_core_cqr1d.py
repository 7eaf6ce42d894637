"""Unit tests for 1D-CQR / 1D-CQR2 (Algorithms 6-7)."""

import hashlib

import numpy as np
import pytest

from tests.conftest import make_1d

from repro.core.cqr import cqr2_sequential
from repro.core.cqr_1d import cqr2_1d, cqr_1d
from repro.kernels.cholesky import CholeskyFailure
from repro.costmodel.tables import cqr2_1d_lines, cqr_1d_lines, lane_cost, total
from repro.vmpi.distmatrix import DistMatrix


class TestCorrectness:
    @pytest.mark.parametrize("procs", [1, 2, 4, 8])
    def test_single_pass(self, rng, procs):
        vm, g = make_1d(procs)
        a = rng.standard_normal((64, 8))
        q, r = cqr_1d(vm, DistMatrix.from_global(g, a))
        q_g, r_g = q.to_global(), np.triu(r.to_global())
        np.testing.assert_allclose(q_g @ r_g, a, atol=1e-11)
        np.testing.assert_allclose(q_g.T @ q_g, np.eye(8), atol=1e-10)

    @pytest.mark.parametrize("procs", [1, 4])
    def test_cqr2(self, rng, procs):
        vm, g = make_1d(procs)
        a = rng.standard_normal((64, 8))
        q, r = cqr2_1d(vm, DistMatrix.from_global(g, a))
        q_g, r_g = q.to_global(), np.triu(r.to_global())
        np.testing.assert_allclose(q_g @ r_g, a, atol=1e-11)
        np.testing.assert_allclose(q_g.T @ q_g, np.eye(8), atol=1e-13)

    def test_matches_sequential_cqr2(self, rng):
        # The distributed run performs the same mathematical steps.
        vm, g = make_1d(4)
        a = rng.standard_normal((32, 4))
        q_dist, r_dist = cqr2_1d(vm, DistMatrix.from_global(g, a))
        q_seq, r_seq = cqr2_sequential(a)
        np.testing.assert_allclose(q_dist.to_global(), q_seq, atol=1e-12)
        np.testing.assert_allclose(np.triu(r_dist.to_global()), r_seq, atol=1e-12)

    def test_q_distributed_like_a(self, rng):
        vm, g = make_1d(4)
        a = rng.standard_normal((32, 4))
        q, _ = cqr_1d(vm, DistMatrix.from_global(g, a))
        assert q.grid is g
        assert q.local_rows == 8

    def test_r_replicated_on_all_ranks(self, rng):
        vm, g = make_1d(4)
        a = rng.standard_normal((32, 4))
        _, r = cqr_1d(vm, DistMatrix.from_global(g, a))
        assert sorted(r.ranks.tolist()) == list(range(4))
        r.to_global()  # raises if copies diverge

    def test_r_is_one_shared_read_only_block(self, rng):
        vm, g = make_1d(8)
        _, r = cqr2_1d(vm, DistMatrix.from_global(g, rng.standard_normal((64, 4))))
        assert r.copies is None and r.ranks.size == 8
        assert not r.shared_block.data.flags.writeable
        assert r.to_global().flags.writeable     # callers get their own copy

    def test_overflowing_gram_raises_cholesky_failure(self, rng):
        # The 1e200-scaled Gram matrix overflows; its non-finite Cholesky
        # factor must surface as CholeskyFailure, not scipy's ValueError.
        vm, g = make_1d(4)
        a = rng.standard_normal((64, 8)) * 1e200
        with pytest.raises(CholeskyFailure), \
                np.errstate(over="ignore", invalid="ignore"):
            cqr2_1d(vm, DistMatrix.from_global(g, a))

    def test_rejects_non_1d_grid(self, rng):
        from tests.conftest import make_cubic

        vm, g = make_cubic(2)
        with pytest.raises(ValueError, match="1 x P x 1"):
            cqr_1d(vm, DistMatrix.symbolic(g, 16, 4))


class TestCosts:
    @pytest.mark.parametrize("m,n,procs", [(64, 8, 4), (128, 16, 8), (64, 8, 1)])
    def test_single_pass_ledger_matches_closed_form(self, m, n, procs):
        vm, g = make_1d(procs)
        cqr_1d(vm, DistMatrix.symbolic(g, m, n))
        assert vm.report().max_cost == lane_cost(total(cqr_1d_lines(m, n, procs)))

    @pytest.mark.parametrize("m,n,procs", [(64, 8, 4), (256, 16, 16)])
    def test_cqr2_ledger_matches_closed_form(self, m, n, procs):
        vm, g = make_1d(procs)
        cqr2_1d(vm, DistMatrix.symbolic(g, m, n))
        assert vm.report().max_cost == lane_cost(total(cqr2_1d_lines(m, n, procs)))

    def test_latency_logarithmic(self):
        # Table I: 1D-CQR latency is O(log P).
        c8 = lane_cost(total(cqr_1d_lines(1024, 8, 8)))
        c64 = lane_cost(total(cqr_1d_lines(1024 * 8, 8, 64)))
        assert c64.messages == pytest.approx(c8.messages * 2)  # log 64 = 2 log 8

    def test_bandwidth_independent_of_p(self):
        # Table I: 1D-CQR bandwidth is O(n^2), flat in P.
        c1 = lane_cost(total(cqr_1d_lines(512, 8, 4)))
        c2 = lane_cost(total(cqr_1d_lines(1024, 8, 8)))
        assert c1.words == pytest.approx(c2.words)

    def test_n_cubed_term_not_parallelized(self):
        # The redundant CholInv: flops include a P-independent n^3 term.
        n = 32
        big_p = lane_cost(total(cqr_1d_lines(n * 1024, n, 1024)))
        assert big_p.flops > n ** 3


def _digests(procs, m, n):
    """sha256 prefixes of Q, R, and every rank's clock and phase ledger."""
    vm, g = make_1d(procs)
    a = (np.random.default_rng(procs).standard_normal((m, n))
         * np.geomspace(1.0, 1e-4, n))
    q, r = cqr2_1d(vm, DistMatrix.from_global(g, a))
    ledgers = [(vm.clock_of(rank),
                sorted((phase, cost.as_tuple()) for phase, cost in
                       vm.ledger_of(rank).phases.items()))
               for rank in range(procs)]

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    return {"q": digest(q.to_global().tobytes()),
            "r": digest(r.to_global().tobytes()),
            "ledger": digest(repr(ledgers).encode())}


class TestPinnedNumerics:
    """Numeric 1D-CQR2 is pinned to the bits of the per-rank implementation.

    The digests were computed when every step still looped over ranks
    (one ``local_syrk``, Allreduce contribution, CholInv charge and
    ``A_local @ R**-1`` per rank); the stacked steps must reproduce Q, R,
    the clocks and every per-phase ledger entry exactly.  Q and R bits
    also depend on the BLAS build: the portable guard is the per-block
    comparison in ``tests/test_stacked_numerics.py``.
    """

    @pytest.mark.parametrize("procs,m,n,want", [
        (4, 512, 32, {"q": "8376ba3c3900857f", "r": "a461db68311aa386",
                      "ledger": "3a9e8a27a20f7d25"}),
        (16, 2048, 32, {"q": "4e0b76d59435eba5", "r": "f4fd1e7d87d5dfdd",
                        "ledger": "79b3bacc549d52d2"}),
        (64, 4096, 16, {"q": "a4303e8c92f07488", "r": "5b07e0c8a7936891",
                        "ledger": "fd9052cc37f3780f"}),
    ])
    def test_q_r_and_ledgers_match_the_pinned_digests(self, procs, m, n, want):
        assert _digests(procs, m, n) == want
