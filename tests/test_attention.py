"""Tests for causal/restricted/probe attention and the score statistics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from zipvl import attention, numkit
from zipvl.errors import BoundsError, DomainError, EmptySequenceError, OrderingError, ShapeError


def random_qkv(n, d, seed=0):
    rng = numkit.make_rng(seed)
    return tuple(rng.normal(size=(n, d)).astype(np.float32) for _ in range(3))


class TestCausalScores:
    def test_matches_naive_attention(self):
        q, k, v = random_qkv(12, 5, seed=3)
        scale = 1.0 / np.sqrt(5)
        w = oracles.causal_score_matrix(q, k, scale)
        ref_out, ref_w = oracles.naive_causal_attention(q, k, v, scale)
        assert np.max(np.abs(w - ref_w)) <= 1e-5
        assert np.max(np.abs(w @ v - ref_out)) <= 1e-5
        mass = attention.causal_scores(q, k, scale).mass
        assert np.max(np.abs(mass - ref_w.sum(axis=0))) <= 1e-5

    def test_strict_upper_triangle_is_zero(self):
        q, k, _ = random_qkv(9, 4, seed=1)
        w = oracles.causal_score_matrix(q, k, 0.5)
        assert np.all(w[np.triu_indices(9, k=1)] == 0.0)

    def test_row_subset_rows_equal_full_rows_bitwise(self):
        q, k, _ = random_qkv(16, 6, seed=2)
        full = oracles.causal_score_matrix(q, k, 0.4)
        rows = np.array([0, 3, 7, 15])
        assert np.array_equal(oracles.causal_score_matrix(q, k, 0.4, rows), full[rows])
        sub = attention.causal_scores(q, k, 0.4, row_positions=rows)
        assert np.array_equal(sub.mass, full[rows].sum(axis=0, dtype=np.float64))
        assert (sub.n_rows, sub.n_total) == (4, 16)

    def test_head_dim_mismatch(self):
        with pytest.raises(ShapeError):
            attention.causal_scores(np.zeros((3, 4)), np.zeros((3, 5)), 1.0)

    @given(st.integers(1, 24), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_property_rows_sum_to_one(self, n, d, seed):
        q, k, _ = random_qkv(n, d, seed)
        sums = oracles.causal_score_matrix(q, k, 1.0 / np.sqrt(d)).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-6


class TestRestrictedAttention:
    def test_full_index_set_equals_dense(self):
        q, k, v = random_qkv(10, 4, seed=5)
        dense_out = oracles.causal_score_matrix(q, k, 0.5) @ v
        sub_out = attention.restricted_attention(q, k, v, 0.5, np.arange(10))
        assert np.array_equal(sub_out, dense_out)

    def test_matches_naive_on_subset(self):
        q, k, v = random_qkv(14, 4, seed=6)
        idx = np.array([1, 2, 5, 9, 13])
        out, w = oracles.restricted_attention_weights(q, k, v, 0.5, idx)
        assert np.array_equal(attention.restricted_attention(q, k, v, 0.5, idx), out)
        ref_out, ref_w = oracles.naive_restricted_attention(q, k, v, 0.5, idx)
        assert np.max(np.abs(out - ref_out)) <= 1e-5
        assert np.max(np.abs(w - ref_w)) <= 1e-5

    @pytest.mark.parametrize("p", [numkit.CAUSAL_BLOCK + 1, 2 * numkit.CAUSAL_BLOCK + 3])
    def test_matches_naive_across_blocks(self, p):
        n = 3 * p
        q, k, v = random_qkv(n, 8, seed=p)
        idx = np.sort(numkit.make_rng(p).permutation(n)[:p])
        out, w = oracles.restricted_attention_weights(q, k, v, 0.5, idx)
        assert np.array_equal(attention.restricted_attention(q, k, v, 0.5, idx), out)
        ref_out, ref_w = oracles.naive_restricted_attention(q, k, v, 0.5, idx)
        assert np.max(np.abs(out - ref_out)) <= 1e-5
        assert np.max(np.abs(w - ref_w)) <= 1e-5
        assert np.all(w[np.triu_indices(p, k=1)] == 0.0)

    def test_no_weight_flows_backward(self):
        q, k, v = random_qkv(12, 4, seed=7)
        idx = np.array([0, 4, 8, 11])
        _, w = oracles.restricted_attention_weights(q, k, v, 0.5, idx)
        assert np.all(w[np.triu_indices(4, k=1)] == 0.0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-6

    # [4, 1] would let position 1 attend to position 4; [2, 2] repeats a row
    @pytest.mark.parametrize(
        "indices", [[4, 1], [2, 2], [0, 3, 3, 5], [5, 3, 0]],
        ids=["backward", "repeated", "repeated-inside", "descending"],
    )
    def test_indices_not_strictly_ascending_raise(self, indices):
        q, k, v = random_qkv(6, 4, seed=8)
        with pytest.raises(OrderingError):
            attention.restricted_attention(q, k, v, 0.5, np.array(indices))

    # [-1] would wrap to the last row
    @pytest.mark.parametrize(
        "indices", [[-1], [-2, 3], [0, 6], [7]],
        ids=["negative", "negative-first", "at-n", "past-n"],
    )
    def test_indices_outside_the_rows_raise(self, indices):
        q, k, v = random_qkv(6, 4, seed=8)
        with pytest.raises(BoundsError):
            attention.restricted_attention(q, k, v, 0.5, np.array(indices))


class TestScoreStats:
    def test_accumulated_matches_oracle(self):
        q, k, _ = random_qkv(11, 4, seed=8)
        acc = attention.accumulated_scores(attention.causal_scores(q, k, 0.5))
        ref = oracles.accumulated_oracle(oracles.causal_score_matrix(q, k, 0.5))
        assert np.max(np.abs(acc - ref)) <= 1e-6

    def test_total_mass_equals_row_count(self):
        q, k, _ = random_qkv(20, 4, seed=9)
        acc = attention.accumulated_scores(attention.causal_scores(q, k, 0.5))
        assert abs(float(acc.sum(dtype=np.float64)) - 20.0) <= 1e-3 * 20

    def test_structural_nnz_full_matrix(self):
        q, k, _ = random_qkv(6, 3, seed=10)
        scores = attention.causal_scores(q, k, 0.5)
        # column j is visible to rows j..n-1
        assert attention.structural_nnz(scores).tolist() == [6, 5, 4, 3, 2, 1]

    def test_structural_nnz_subset_rows(self):
        q, k, _ = random_qkv(8, 3, seed=11)
        scores = attention.causal_scores(q, k, 0.5, row_positions=np.array([2, 5]))
        assert attention.structural_nnz(scores).tolist() == [2, 2, 2, 1, 1, 1, 0, 0]

    def test_normalized_divides_by_nnz_and_zeroes_unseen(self):
        q, k, _ = random_qkv(8, 3, seed=12)
        scores = attention.causal_scores(q, k, 0.5, row_positions=np.array([2, 5]))
        acc = attention.accumulated_scores(scores)
        norm = attention.normalized_scores(scores, acc)
        nnz = attention.structural_nnz(scores)
        assert np.all(norm[nnz == 0] == 0.0)
        seen = nnz > 0
        assert np.allclose(norm[seen], acc[seen] / nnz[seen], atol=1e-7)

    def test_normalization_corrects_late_token_rank(self):
        # token 3 is seen by one row only, so its accumulated score loses to
        # token 0 even though every row that sees it rates it highest
        w = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.6, 0.4, 0.0, 0.0],
                [0.5, 0.3, 0.2, 0.0],
                [0.05, 0.03, 0.02, 0.9],
            ],
            dtype=np.float32,
        )
        scores = attention.AttentionScores(
            mass=w.sum(axis=0, dtype=np.float64), row_positions=np.arange(4), n_total=4
        )
        acc = attention.accumulated_scores(scores)
        norm = attention.normalized_scores(scores, acc)
        assert numkit.topk_indices(acc, 1).tolist() == [0]
        assert numkit.topk_indices(norm, 1).tolist() == [3]


class TestProbeSet:
    def test_recent_block_always_present(self):
        probe = attention.select_probe_set(100, recent=10, random=5, seed=1)
        assert set(range(90, 100)) <= set(probe.tolist())
        assert probe.size == 15
        assert np.all(np.diff(probe) > 0)

    def test_covers_everything_when_counts_exceed_n(self):
        probe = attention.select_probe_set(8, recent=64, random=64, seed=1)
        assert probe.tolist() == list(range(8))

    def test_recent_plus_random_covering_exactly(self):
        probe = attention.select_probe_set(128, recent=64, random=64, seed=9)
        assert probe.tolist() == list(range(128))

    def test_deterministic_in_seed(self):
        a = attention.select_probe_set(50, 5, 10, seed=3)
        b = attention.select_probe_set(50, 5, 10, seed=3)
        c = attention.select_probe_set(50, 5, 10, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_domain_errors(self):
        with pytest.raises(EmptySequenceError):
            attention.select_probe_set(0, 1, 0, seed=0)
        with pytest.raises(DomainError):
            attention.select_probe_set(5, 0, 0, seed=0)
        with pytest.raises(DomainError):
            attention.select_probe_set(5, 1, -1, seed=0)

    @given(
        st.integers(1, 200),
        st.integers(1, 80),
        st.integers(0, 80),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_sorted_unique_in_range(self, n, recent, random, seed):
        idx = attention.select_probe_set(n, recent, random, seed)
        assert idx.size == min(recent, n) + min(random, max(0, n - min(recent, n)))
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < n
        n_recent = min(recent, n)
        assert idx[-n_recent:].tolist() == list(range(n - n_recent, n))


class TestProbeAttention:
    def test_probe_rows_equal_dense_rows(self):
        q, k, _ = random_qkv(40, 8, seed=13)
        probe = attention.select_probe_set(40, recent=6, random=6, seed=2)
        ps = attention.probe_attention(q, probe, k, 1.0 / np.sqrt(8))
        full = oracles.causal_score_matrix(q, k, 1.0 / np.sqrt(8))
        assert np.array_equal(oracles.causal_score_matrix(q, k, 1.0 / np.sqrt(8), probe), full[probe])
        assert np.array_equal(ps.mass, full[probe].sum(axis=0, dtype=np.float64))
        assert ps.n_rows == probe.size

    def test_probe_mass_equals_probe_row_count(self):
        q, k, _ = random_qkv(30, 4, seed=14)
        probe = attention.select_probe_set(30, recent=4, random=8, seed=5)
        acc = attention.accumulated_scores(attention.probe_attention(q, probe, k, 0.5))
        mass = float(acc.sum(dtype=np.float64))
        assert abs(mass - probe.size) <= 1e-3 * probe.size


class TestScoringMemory:
    @staticmethod
    def peak_bytes(n: int) -> int:
        """tracemalloc peak of one causal_scores call over n rows, d_head 16."""
        q, k, _ = random_qkv(n, 16, seed=n)
        tracemalloc.start()
        try:
            attention.causal_scores(q, k, 0.25)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_workspace_grows_linearly_in_n(self):
        small, large = self.peak_bytes(1024), self.peak_bytes(2048)
        # one n x n float32 score matrix at n = 2048 is 16 MiB
        assert large < 8 * 2**20
        assert large <= 2.5 * small
