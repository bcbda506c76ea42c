"""Tests for KV retention, append and mixed quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from zipvl import kvcache, metrics, numkit
from zipvl.errors import BoundsError, OrderingError, ShapeError


def filled_cache(layers=2, heads=2, t=10, d=4, seed=0):
    rng = numkit.make_rng(seed)
    cache = kvcache.KVCache(layers, heads, d)
    for layer in range(layers):
        cache.set_layer(
            layer,
            rng.normal(size=(heads, t, d)).astype(np.float32),
            rng.normal(size=(heads, t, d)).astype(np.float32),
        )
    return cache


def kept(rows):
    """A layer's important tokens as budget.plan_layer gives them: sorted int64 row indices."""
    return np.asarray(sorted(rows), dtype=np.int64)


# important arrays a 10-row layer refuses, with the error each raises
REFUSED_IMPORTANT = [
    ([4, 1], OrderingError),  # unsorted
    ([2, 2, 5], OrderingError),  # duplicated
    ([-1, 3], BoundsError),
    ([2, 10], BoundsError),  # the layer's row count
    ([99], BoundsError),
]


def originals(cache):
    """Copies of every layer's K and V, taken before quantize_mixed replaces them."""
    return [(k.copy(), v.copy()) for k, v in zip(cache.keys, cache.values)]


class TestRetention:
    def test_retain_keeps_exactly_the_partition(self):
        cache = filled_cache(t=10)
        before_k = cache.keys[0].copy()
        cache.retain(0, kept([0, 3, 7]))
        assert cache.rows(0) == 3
        assert np.array_equal(cache.keys[0], before_k[:, [0, 3, 7], :])
        # C order: the decode matmuls over the token axis run slower with it outermost
        assert cache.keys[0].flags.c_contiguous and cache.values[0].flags.c_contiguous
        # other layer untouched
        assert cache.rows(1) == 10

    def test_retain_of_unknown_position_raises(self):
        # a refused array leaves the layer as it was
        cache = filled_cache(t=10)
        [(k, v), _] = originals(cache)
        for important, error in REFUSED_IMPORTANT:
            with pytest.raises(error):
                cache.retain(0, np.array(important))
            assert np.array_equal(cache.keys[0], k) and np.array_equal(cache.values[0], v)
        # after eviction the layer has two rows, renumbered 0 and 1
        cache.retain(0, kept([1, 2]))
        with pytest.raises(BoundsError):
            cache.retain(0, kept([2]))

    def test_set_layer_shape_checks(self):
        cache = kvcache.KVCache(1, 2, 4)
        with pytest.raises(ShapeError):
            cache.set_layer(
                0,
                np.zeros((2, 3, 5), dtype=np.float32),
                np.zeros((2, 3, 5), dtype=np.float32),
            )

    def test_layer_index_bounds(self):
        cache = filled_cache(layers=2)
        with pytest.raises(BoundsError):
            cache.rows(2)


class TestAppend:
    def test_append_extends_all_layers_one_by_one(self):
        cache = filled_cache(layers=2, heads=2, t=4, d=4)
        k = np.ones((2, 4), dtype=np.float32)
        v = 2 * np.ones((2, 4), dtype=np.float32)
        for layer in range(2):
            cache.append(layer, k, v)
        assert cache.rows(0) == 5 and cache.rows(1) == 5
        assert np.array_equal(cache.keys[0][:, -1, :], k)

    def test_append_after_eviction_keeps_gap(self):
        cache = filled_cache(layers=1, t=6)
        before_k = cache.keys[0].copy()
        cache.retain(0, kept([0, 5]))
        row = np.full((2, 4), 7, np.float32)
        cache.append(0, row, row)
        assert cache.rows(0) == 3
        assert np.array_equal(cache.keys[0][:, :2], before_k[:, [0, 5]])
        assert np.array_equal(cache.keys[0][:, 2], row)

    def test_appended_rows_never_evicted_by_later_retain(self):
        cache = filled_cache(layers=1, t=4)
        before_k = cache.keys[0].copy()
        row = np.ones((2, 4), np.float32)
        cache.append(0, row, row)
        # retention is a prefill-time operation; decode rows stay unless the
        # important array explicitly includes their rows
        cache.retain(0, kept([0, 4]))
        assert cache.rows(0) == 2
        assert np.array_equal(cache.keys[0][:, 0], before_k[:, 0])
        assert np.array_equal(cache.keys[0][:, 1], row)


class TestGrowth:
    """append grows a buffer in place; the result must equal an exact-size cache."""

    @staticmethod
    def grow(cache, steps, seed=1):
        # the reference is what a copy-per-token cache holds: the layer, concatenated
        rng = numkit.make_rng(seed)
        ref_k, ref_v = cache.keys[0].copy(order="K"), cache.values[0].copy(order="K")
        for _ in range(steps):
            k = rng.normal(size=(cache.heads, cache.d_head)).astype(np.float32)
            v = rng.normal(size=(cache.heads, cache.d_head)).astype(np.float32)
            cache.append(0, k, v)
            ref_k = np.concatenate([ref_k, k[:, None, :]], axis=1)
            ref_v = np.concatenate([ref_v, v[:, None, :]], axis=1)
        return ref_k, ref_v

    @pytest.mark.parametrize("evict", [False, True])
    def test_matches_concatenate_across_growths(self, evict):
        cache = filled_cache(layers=1, heads=3, t=6, d=5)
        if evict:
            cache.retain(0, kept([1, 2, 4]))
        start = cache.rows(0)
        # capacity doubles from `start`, so 8x start rows takes three growths
        ref_k, ref_v = self.grow(cache, 7 * start + 1)
        assert cache.rows(0) == 8 * start + 1
        assert np.array_equal(cache.keys[0], ref_k)
        assert np.array_equal(cache.values[0], ref_v)
        # same row and channel strides: the layout decode rounding depends on
        assert cache.keys[0].strides[1:] == ref_k.strides[1:]
        assert cache.values[0].strides[1:] == ref_v.strides[1:]
        if evict:
            # a grown layer is retained by the indices of its current rows,
            # prefill's and appended ones alike
            rows = kept([0, start - 1, start, 5 * start, 8 * start])
            cache.retain(0, rows)
            assert np.array_equal(cache.keys[0], ref_k[:, rows])
            assert np.array_equal(cache.values[0], ref_v[:, rows])

    def test_view_taken_before_append_keeps_its_values(self):
        cache = filled_cache(layers=1, t=4)
        self.grow(cache, 3)
        keys, values = cache.keys[0], cache.values[0]
        before_k, before_v = keys.copy(), values.copy()
        self.grow(cache, 20, seed=2)
        assert np.array_equal(keys, before_k)
        assert np.array_equal(values, before_v)

    def test_rejected_append_changes_nothing(self):
        cache = filled_cache(layers=1, t=4)
        self.grow(cache, 3)
        [(before_k, before_v)] = originals(cache)
        row = np.zeros((2, 4), np.float32)
        # rows are (heads, d_head): a wrong size, a flat row and a row that would
        # broadcast over the heads are all refused
        for bad in (np.zeros((2, 5), np.float32), row.reshape(-1), row[0]):
            with pytest.raises(ShapeError):
                cache.append(0, bad, row)
            with pytest.raises(ShapeError):
                cache.append(0, row, bad)
        assert np.array_equal(cache.keys[0], before_k)
        assert np.array_equal(cache.values[0], before_v)


class TestQuantization:
    def test_roundtrip_error_within_half_step(self):
        cache = filled_cache(layers=2, heads=2, t=16, d=8, seed=3)
        before = originals(cache)
        for layer in range(cache.num_layers):
            kvcache.quantize_mixed(cache, layer, kept(range(8)))
        for layer in range(2):
            for i, name in enumerate(("keys", "values")):
                orig = before[layer][i]
                back = getattr(cache, name)[layer]
                imp_err = np.max(np.abs(orig[:, :8] - back[:, :8]))
                unimp_err = np.max(np.abs(orig[:, 8:] - back[:, 8:]))
                assert imp_err <= oracles.row_quantization_bound(orig[:, :8], 4) + 1e-6
                assert unimp_err <= oracles.row_quantization_bound(orig[:, 8:], 2) + 1e-6

    def test_important_rows_get_finer_grid(self):
        cache = filled_cache(layers=1, heads=1, t=32, d=16, seed=4)
        orig = cache.keys[0].copy()
        kvcache.quantize_mixed(cache, 0, kept(range(16)))
        err = np.abs(orig - cache.keys[0])
        assert err[:, :16].max() < err[:, 16:].max()

    def test_bits_follow_partition(self):
        cache = filled_cache(layers=1, t=6)
        [(k, v)] = originals(cache)
        kvcache.quantize_mixed(cache, 0, kept([1, 4]))
        bits = [2, 4, 2, 2, 4, 2]
        assert np.array_equal(cache.keys[0], oracles.row_fake_quantize(k, bits))
        assert np.array_equal(cache.values[0], oracles.row_fake_quantize(v, bits))

    def test_constant_group_is_exact(self):
        cache = kvcache.KVCache(1, 1, 4)
        k = np.full((1, 3, 4), 7.5, dtype=np.float32)
        cache.set_layer(0, k, k.copy())
        kvcache.quantize_mixed(cache, 0, kept([0]))
        assert np.array_equal(cache.keys[0], k)
        assert np.array_equal(cache.values[0], k)

    def test_unknown_important_position_raises(self):
        # as retain does: an array that is not the layer's rows in ascending order
        # is refused before the layer changes, not read as "no row important"
        cache = filled_cache(layers=1, t=10)
        [(k, v)] = originals(cache)
        for important, error in REFUSED_IMPORTANT:
            with pytest.raises(error):
                kvcache.quantize_mixed(cache, 0, np.array(important))
            assert np.array_equal(cache.keys[0], k) and np.array_equal(cache.values[0], v)
        cache.retain(0, kept([1, 5]))
        with pytest.raises(BoundsError):
            kvcache.quantize_mixed(cache, 0, kept([3]))

    def test_layer_out_of_range(self):
        cache = filled_cache(layers=2)
        with pytest.raises(BoundsError):
            kvcache.quantize_mixed(cache, 2, kept([0]))

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_partition_per_layer(self, count):
        # each layer is quantized by its own array; later layers stay exact until their turn
        cache = filled_cache(layers=count, t=10)
        before = originals(cache)
        for layer in range(count):
            kvcache.quantize_mixed(cache, layer, kept([layer]))
            for later in range(layer + 1, count):
                assert np.array_equal(cache.keys[later], before[later][0])
                assert np.array_equal(cache.values[later], before[later][1])
        for layer in range(count):
            bits = [4 if row == layer else 2 for row in range(10)]
            for i, name in enumerate(("keys", "values")):
                want = oracles.row_fake_quantize(before[layer][i], bits)
                assert np.array_equal(getattr(cache, name)[layer], want)

    def test_memory_shrinks_and_is_positive(self):
        cache = filled_cache(layers=2, heads=2, t=64, d=32, seed=5)
        dense_bytes = sum(
            metrics.kv_bytes(cache.rows(i), cache.d_head, cache.heads) for i in range(2)
        )
        q_bytes = sum(kvcache.quantize_mixed(cache, i, kept(range(16))) for i in range(2))
        assert 0 < q_bytes < dense_bytes

    @pytest.mark.parametrize("d, heads", [(12, 8), (3, 4), (1, 1), (16, 64)])
    def test_matches_row_by_row_oracle_bitwise(self, d, heads):
        cache = filled_cache(layers=2, heads=heads, t=9, d=d, seed=10)
        cache.retain(1, kept([0, 2, 5, 8]))
        before = originals(cache)
        kvcache.quantize_mixed(cache, 0, kept([1, 3, 4]))
        # layer 1 keeps prompt positions 0, 2, 5 and 8 as rows 0-3, so position 5 is row 2
        kvcache.quantize_mixed(cache, 1, kept([2]))
        bits = [[2, 4, 2, 4, 4, 2, 2, 2, 2], [2, 2, 4, 2]]
        for layer in range(2):
            for i, name in enumerate(("keys", "values")):
                want = oracles.row_fake_quantize(before[layer][i], bits[layer])
                assert np.array_equal(getattr(cache, name)[layer], want)

    def test_wide_head_row_is_one_group(self):
        # d_head 128: the whole row shares one scale and zero-point, so it
        # reconstructs to at most 2^bits distinct values
        cache = filled_cache(layers=1, heads=2, t=6, d=128, seed=11)
        [(k, v)] = originals(cache)
        qt = kvcache._quantize(k, np.array([[15], [3], [3], [15], [3], [3]]))
        assert qt.scales.shape == qt.zeros.shape == (2, 6, 1)
        assert kvcache.quantize_mixed(cache, 0, kept([0, 3])) == 2 * 2 * (2 * 72 + 4 * 40)
        bits = [4, 2, 2, 4, 2, 2]
        for name, orig in (("keys", k), ("values", v)):
            back = getattr(cache, name)[0]
            assert np.array_equal(back, oracles.row_fake_quantize(orig, bits))
            for h in range(2):
                for r, b in enumerate(bits):
                    assert len(np.unique(back[h, r])) <= 2**b

    @staticmethod
    def packed_bytes(heads, bits_per_row, d):
        # K and V; per head row: ceil(d * bits / 8) code bytes + float32 scale and zero
        return 2 * heads * sum((d * b + 7) // 8 + 8 for b in bits_per_row)

    @pytest.mark.parametrize("d, heads", [(12, 8), (3, 4), (1, 1), (1, 16), (16, 5)])
    def test_bytes_equal_packed_closed_form(self, d, heads):
        cache = filled_cache(layers=2, heads=heads, t=7, d=d, seed=8)
        cache.retain(1, kept([0, 2, 3, 6]))
        before = originals(cache)
        got = [
            kvcache.quantize_mixed(cache, 0, kept([1, 4, 5])),
            # positions 2 and 6 of layer 1's kept 0, 2, 3 and 6 are its rows 1 and 3
            kvcache.quantize_mixed(cache, 1, kept([1, 3])),
        ]
        bits = [[2, 4, 2, 2, 4, 4, 2], [2, 4, 2, 4]]
        for layer in range(2):
            assert sorted(set(bits[layer])) == [2, 4]
            # the bits charged are the bits the layer was quantized at
            want = oracles.row_fake_quantize(before[layer][0], bits[layer])
            assert np.array_equal(cache.keys[layer], want)
            assert got[layer] == self.packed_bytes(heads, bits[layer], d)

    def test_one_two_bit_channel_takes_a_whole_byte(self):
        cache = filled_cache(layers=1, heads=1, t=1, d=1)
        # K and V: 1 code byte + 4-byte scale + 4-byte zero-point each
        assert kvcache.quantize_mixed(cache, 0, kept([])) == 18

    def test_dequantized_cache_is_c_contiguous(self):
        # decode rounding depends on the layout, so it must not follow the source's
        cache = filled_cache(layers=2, heads=2, t=9, d=8, seed=9)
        for tensors in (cache.keys, cache.values):  # a source with the token axis outermost
            tensors[1] = np.ascontiguousarray(tensors[1].transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not cache.keys[1].flags.c_contiguous
        for layer in range(cache.num_layers):
            kvcache.quantize_mixed(cache, layer, kept([4]))
        for layer in range(2):
            assert cache.keys[layer].flags.c_contiguous
            assert cache.values[layer].flags.c_contiguous

    @given(
        st.integers(1, 3),
        st.integers(1, 24),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_bound_holds(self, heads, t, d, seed, data):
        rng = numkit.make_rng(seed)
        cache = kvcache.KVCache(1, heads, d)
        cache.set_layer(
            0,
            (rng.normal(size=(heads, t, d)) * 3).astype(np.float32),
            (rng.normal(size=(heads, t, d)) * 3).astype(np.float32),
        )
        p = data.draw(st.integers(1, t))
        before = originals(cache)
        kvcache.quantize_mixed(cache, 0, kept(range(p)))
        for i, name in enumerate(("keys", "values")):
            orig = before[0][i]
            back = getattr(cache, name)[0]
            for rows, bits in ((range(p), 4), (range(p, t), 2)):
                rows = list(rows)
                if not rows:
                    continue
                err = np.max(np.abs(orig[:, rows] - back[:, rows]))
                assert err <= oracles.row_quantization_bound(orig[:, rows], bits) + 1e-6
