"""Unit tests for the butterfly collective cost formulas (Section II-B)."""

import pytest

from repro.costmodel.collectives import (
    allgather_cost,
    allreduce_cost,
    bcast_cost,
    reduce_cost,
    transpose_cost,
)


class TestBcast:
    def test_matches_paper_formula(self):
        # T_bcast(n, P) = 2 log2 P alpha + 2 n beta
        c = bcast_cost(100, 8)
        assert c.messages == 2 * 3
        assert c.words == 200

    def test_single_proc_free(self):
        c = bcast_cost(100, 1)
        assert c.messages == 0 and c.words == 0

    def test_non_power_of_two_rounds_up(self):
        assert bcast_cost(10, 5).messages == 2 * 3  # ceil(log2 5) = 3

    def test_rejects_negative_words(self):
        with pytest.raises(ValueError):
            bcast_cost(-1, 4)


class TestReduceAllreduce:
    def test_same_cost_as_bcast(self):
        # The paper charges Bcast, Reduce and Allreduce identically.
        for words, procs in ((64, 4), (1000, 16), (1, 2)):
            b = bcast_cost(words, procs)
            assert reduce_cost(words, procs) == b
            assert allreduce_cost(words, procs) == b

    def test_free_on_singleton(self):
        assert allreduce_cost(50, 1).messages == 0


class TestAllgather:
    def test_matches_paper_formula(self):
        # T_allgather(n, P) = log2 P alpha + n beta (n = result size)
        c = allgather_cost(4096, 16)
        assert c.messages == 4
        assert c.words == 4096

    def test_half_the_latency_of_bcast(self):
        assert allgather_cost(10, 8).messages * 2 == bcast_cost(10, 8).messages


class TestTranspose:
    def test_one_message(self):
        c = transpose_cost(256, 2)
        assert c.messages == 1
        assert c.words == 256

    def test_free_on_diagonal(self):
        c = transpose_cost(256, 1)
        assert c.messages == 0 and c.words == 0


class TestCollectiveCostAlgebra:
    def test_add(self):
        c = bcast_cost(10, 4) + allgather_cost(20, 4)
        assert c.messages == 4 + 2
        assert c.words == 40

    def test_scalar_multiply(self):
        c = 3 * transpose_cost(5, 2)
        assert c.messages == 3 and c.words == 15
