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


def stacked_qkv(heads, n, d, seed=0):
    """q, k and v of `heads` heads: strided (heads, n, d) views, as the engine slices a layer."""
    qkv = numkit.make_rng(seed).normal(size=(n, 3, heads, d)).astype(np.float32)
    return tuple(qkv.transpose(1, 2, 0, 3))


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
        want = full[rows].sum(axis=0)
        assert np.all(np.abs(sub.mass - want) <= oracles.summation_order_tol(want, rows.size))
        assert (sub.n_rows, sub.visible.size) == (4, 16)

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
        dense_out, _ = oracles.restricted_attention_weights(q, k, v, 0.5, np.arange(10))
        sub_out = attention.restricted_attention(q, k, v, 0.5, np.arange(10))
        assert np.array_equal(sub_out, dense_out)
        assert np.max(np.abs(sub_out - oracles.naive_causal_attention(q, k, v, 0.5)[0])) <= 1e-5

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
        assert scores.visible.tolist() == [6, 5, 4, 3, 2, 1]

    def test_structural_nnz_subset_rows(self):
        q, k, _ = random_qkv(8, 3, seed=11)
        scores = attention.causal_scores(q, k, 0.5, row_positions=np.array([2, 5]))
        assert scores.visible.tolist() == [2, 2, 2, 1, 1, 1, 0, 0]

    def test_structural_nnz_sums_row_weights(self):
        q, k, _ = random_qkv(8, 3, seed=11)
        rows, weights = np.array([2, 5]), np.array([3.0, 1.0])
        scores = attention.causal_scores(q, k, 0.5, row_positions=rows, row_weights=weights)
        assert scores.visible.tolist() == [4.0, 4.0, 4.0, 1.0, 1.0, 1.0, 0.0, 0.0]

    def test_normalized_divides_by_nnz_and_zeroes_unseen(self):
        q, k, _ = random_qkv(8, 3, seed=12)
        scores = attention.causal_scores(q, k, 0.5, row_positions=np.array([2, 5]))
        acc = attention.accumulated_scores(scores)
        norm = attention.normalized_scores(scores)
        visible = scores.visible
        assert norm.dtype == np.float32
        assert np.all(norm[visible == 0] == 0.0)
        seen = visible > 0
        assert np.array_equal(norm[seen], (acc[seen] / visible[seen]).astype(np.float32))

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_property_unit_weights_count_the_visible_rows(self, n, seed):
        q, k, _ = random_qkv(n, 4, seed)
        rows = np.flatnonzero(numkit.make_rng(seed).uniform(size=n) < 0.5)
        ones = np.ones(rows.size)
        plain = attention.causal_scores(q, k, 0.5, row_positions=rows)
        unit = attention.causal_scores(q, k, 0.5, row_positions=rows, row_weights=ones)
        assert np.array_equal(plain.visible, oracles.weighted_visible_counts(rows, ones, n))
        assert np.array_equal(plain.visible, unit.visible)
        assert np.array_equal(plain.mass, unit.mass)
        assert plain.n_rows == unit.n_rows == rows.size

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
            mass=w.sum(axis=0, dtype=np.float64), visible=np.array([4.0, 3.0, 2.0, 1.0]), n_rows=4
        )
        acc = attention.accumulated_scores(scores)
        norm = attention.normalized_scores(scores)
        assert numkit.topk_indices(acc, 1).tolist() == [0]
        assert numkit.topk_indices(norm, 1).tolist() == [3]


class TestProbeSet:
    def test_recent_block_always_present(self):
        probe, _ = attention.select_probe_set(100, recent=10, random=5, seed=1)
        assert set(range(90, 100)) <= set(probe.tolist())
        assert probe.size == 15
        assert np.all(np.diff(probe) > 0)

    def test_covers_everything_when_counts_exceed_n(self):
        probe, _ = attention.select_probe_set(8, recent=64, random=64, seed=1)
        assert probe.tolist() == list(range(8))

    def test_recent_plus_random_covering_exactly(self):
        probe, _ = attention.select_probe_set(128, recent=64, random=64, seed=9)
        assert probe.tolist() == list(range(128))

    def test_deterministic_in_seed(self):
        a, _ = attention.select_probe_set(50, 5, 10, seed=3)
        b, _ = attention.select_probe_set(50, 5, 10, seed=3)
        c, _ = attention.select_probe_set(50, 5, 10, seed=4)
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
        st.integers(1, 80),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_one_random_row_per_stratum(self, n, recent, random, seed):
        # each drawn row weighs its stratum's size and each recent row 1.0
        idx, weights = attention.select_probe_set(n, recent, random, seed)
        assert idx.dtype == np.int64 and weights.dtype == np.float64
        assert weights.shape == idx.shape
        pool = n - min(recent, n)
        take = min(random, pool)
        drawn = idx[idx < pool]
        assert drawn.size == take
        for j, row in enumerate(drawn.tolist()):
            lo, hi = j * pool // take, (j + 1) * pool // take
            assert lo <= row < hi
            assert weights[j] == hi - lo
        assert weights[take:].tolist() == [1.0] * (idx.size - take)
        assert weights.sum() == n

    def test_draw_reaches_every_position_of_a_stratum(self):
        # 90 positions in 7 strata: stratum 0 holds 0..11, stratum 6 holds 77..89
        firsts = {int(attention.select_probe_set(100, 10, 7, seed)[0][0]) for seed in range(400)}
        lasts = {int(attention.select_probe_set(100, 10, 7, seed)[0][6]) for seed in range(400)}
        assert firsts == set(range(12))
        assert lasts == set(range(77, 90))

    @given(
        st.integers(1, 200),
        st.integers(1, 80),
        st.integers(0, 80),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_sorted_unique_in_range(self, n, recent, random, seed):
        idx, _ = attention.select_probe_set(n, recent, random, seed)
        assert idx.size == min(recent, n) + min(random, max(0, n - min(recent, n)))
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < n
        n_recent = min(recent, n)
        assert idx[-n_recent:].tolist() == list(range(n - n_recent, n))


class TestProbeAttention:
    def test_probe_rows_equal_dense_rows(self):
        q, k, _ = random_qkv(40, 8, seed=13)
        probe, w = attention.select_probe_set(40, recent=6, random=6, seed=2)
        ps = attention.probe_attention(q, probe, k, 1.0 / np.sqrt(8), w)
        full = oracles.causal_score_matrix(q, k, 1.0 / np.sqrt(8))
        assert np.array_equal(oracles.causal_score_matrix(q, k, 1.0 / np.sqrt(8), probe), full[probe])
        want = (full[probe] * w[:, None]).sum(axis=0)
        assert np.all(np.abs(ps.mass - want) <= oracles.summation_order_tol(want, probe.size))
        assert ps.n_rows == probe.size

    def test_probe_mass_equals_probe_row_count(self):
        q, k, _ = random_qkv(30, 4, seed=14)
        probe, w = attention.select_probe_set(30, recent=4, random=8, seed=5)
        ps = attention.probe_attention(q, probe, k, 0.5, w)
        want = oracles.column_mass_from_matrix(q[probe], k, 0.5, probe, w)
        assert np.all(np.abs(ps.mass - want) <= oracles.summation_order_tol(want, probe.size))
        # each row holds mass 1, and the weighted probe rows stand for all 30 rows
        assert float(w.sum()) == 30.0
        mass = float(attention.accumulated_scores(ps).sum(dtype=np.float64))
        assert abs(mass - 30.0) <= 1e-3 * 30.0

    def test_weights_are_one_for_recent_rows_and_stratum_sizes_for_random_rows(self):
        _, w = attention.select_probe_set(100, recent=10, random=5, seed=1)
        assert w.tolist() == [18.0] * 5 + [1.0] * 10
        # 90 positions in 7 strata: bounds 0, 12, 25, 38, 51, 64, 77, 90
        _, w = attention.select_probe_set(100, recent=10, random=7, seed=1)
        assert w.tolist() == [12.0] + [13.0] * 6 + [1.0] * 10

    @pytest.mark.parametrize("n, recent, random", [(8, 64, 64), (128, 64, 64), (40, 8, 99)])
    def test_weights_are_one_when_the_probes_cover_every_row(self, n, recent, random):
        probe, w = attention.select_probe_set(n, recent, random, seed=3)
        assert probe.tolist() == list(range(n))
        assert w.tolist() == [1.0] * n

    @given(
        st.integers(1, 160),
        st.sampled_from([4, 8, 16]),
        st.integers(1, 70),
        st.integers(0, 70),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_weighted_mass_and_counts_match_oracles(self, n, d, recent, random, seed):
        q, k, _ = random_qkv(n, d, seed=seed)
        scale = 1.0 / np.sqrt(d)
        probe, w = attention.select_probe_set(n, recent, random, seed)
        ps = attention.probe_attention(q, probe, k, scale, w)
        want = oracles.column_mass_from_matrix(q[probe], k, scale, probe, w)
        assert np.all(np.abs(ps.mass - want) <= oracles.summation_order_tol(want, probe.size))
        assert np.array_equal(ps.visible, oracles.weighted_visible_counts(probe, w, n))
        if random or recent >= n:
            # the weights stand for all n rows, each of mass 1, and every row sees column 0
            assert abs(float(ps.mass.sum()) - n) <= 1e-6 * n
            assert abs(ps.visible[0] - n) <= 1e-12 * n


class TestStackedHeads:
    # 79 and 136 rows end in a tail that joins the block before it, 150 in a 22-row
    # tail that does not
    @pytest.mark.parametrize("rows", ["all", "probe"])
    @pytest.mark.parametrize("n", [1, 79, 136, 150, 300])
    @pytest.mark.parametrize("d", [8, 16, 32, 64])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_equals_the_per_head_calls_bitwise(self, heads, d, n, rows):
        # the record's mass is the float64 mean of the heads' own masses, and each
        # head attends over the one index set as its own 2-D call does
        q, k, v = stacked_qkv(heads, n, d, seed=n * 100 + d * 10 + heads)
        scale = 1.0 / np.sqrt(d)
        if rows == "all":
            indices = np.arange(n)
            got = attention.causal_scores(q, k, scale)
            per_head = [attention.causal_scores(q[h], k[h], scale) for h in range(heads)]
        else:
            indices, w = attention.select_probe_set(n, 16, 24, seed=n)
            got = attention.probe_attention(q, indices, k, scale, w)
            per_head = [
                attention.probe_attention(q[h], indices, k[h], scale, w) for h in range(heads)
            ]
        want = np.mean([s.mass for s in per_head], axis=0)
        assert np.array_equal(got.mass.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(got.visible, per_head[0].visible)
        assert got.n_rows == per_head[0].n_rows == indices.size
        out = attention.restricted_attention(q, k, v, scale, indices)
        assert out.shape == (heads, indices.size, d)
        for h in range(heads):
            want = attention.restricted_attention(q[h], k[h], v[h], scale, indices)
            assert np.array_equal(out[h].view(np.uint32), want.view(np.uint32))


class TestScoringMemory:
    @staticmethod
    def peak_bytes(n: int, heads: int = 1) -> int:
        """tracemalloc peak of one causal_scores call over n rows of 1 or more heads, d_head 16."""
        q, k, _ = random_qkv(n, 16, seed=n) if heads == 1 else stacked_qkv(heads, n, 16, seed=n)
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

    def test_stacked_heads_take_at_most_four_times_the_one_head_bound(self):
        small, large = self.peak_bytes(1024, heads=4), self.peak_bytes(2048, heads=4)
        assert large < 4 * 8 * 2**20
        assert large <= 2.5 * small


class TestRestrictedAttentionMemory:
    P, D = 2048, 16
    # per index and head: the gathered q and k, the values beside their ones column
    # and their products (about 4 d float32), its position, and room for the float32
    # exponentials of two blocks of rows (the blocks of a call share one buffer);
    # the p x p float32 weights alone would be 16 MiB
    PER_INDEX = 4 * 4 * D + 8 + 2 * 4 * (numkit.CAUSAL_BLOCK + numkit.TAIL_MIN)

    def peak_bytes(self, q, k, v) -> int:
        """tracemalloc peak of one restricted_attention call over every index."""
        tracemalloc.start()
        try:
            attention.restricted_attention(q, k, v, 0.25, np.arange(self.P))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_workspace_is_linear_in_p(self):
        peak = self.peak_bytes(*random_qkv(self.P, self.D, seed=self.P))
        assert peak <= 1.25 * self.PER_INDEX * self.P

    def test_stacked_heads_take_at_most_four_times_the_one_head_bound(self):
        peak = self.peak_bytes(*stacked_qkv(4, self.P, self.D, seed=self.P))
        assert peak <= 4 * 1.25 * self.PER_INDEX * self.P
