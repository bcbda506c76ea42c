"""Unit and property tests for the shared numeric helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from zipvl import numkit
from zipvl.errors import BoundsError, DegenerateMaskError, DomainError, ShapeError

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


def test_make_rng_reproducible():
    a = numkit.make_rng(42).normal(size=8)
    b = numkit.make_rng(42).normal(size=8)
    assert np.array_equal(a, b)
    c = numkit.make_rng(43).normal(size=8)
    assert not np.array_equal(a, c)


def test_derive_seed_deterministic_and_sensitive():
    assert numkit.derive_seed(1, 2) == numkit.derive_seed(1, 2)
    assert numkit.derive_seed(1, 2) != numkit.derive_seed(2, 1)
    assert numkit.derive_seed(5) != numkit.derive_seed(5, 0)


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(ShapeError):
        numkit.as_matrix(np.zeros(3))
    with pytest.raises(ShapeError):
        numkit.as_matrix(np.zeros((2, 2, 2)))
    assert numkit.as_matrix([[1, 2]]).dtype == np.float32


def test_causal_row_mask_contents():
    mask = numkit.causal_row_mask(np.array([0, 2]), 4)
    expected = np.array([[True, False, False, False], [True, True, True, False]])
    assert np.array_equal(mask, expected)


class TestMaskedSoftmax:
    def test_rows_sum_to_one_and_masked_are_zero(self):
        rng = numkit.make_rng(0)
        logits = rng.normal(size=(6, 9)).astype(np.float32)
        mask = numkit.causal_row_mask(np.arange(3, 9), 9)
        out = numkit.masked_softmax_rows(logits, mask)
        assert out.dtype == np.float32
        assert np.all(out[~mask] == 0.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-6

    def test_stable_under_large_logits(self):
        logits = np.array([[1e4, 1e4 - 1.0]], dtype=np.float32)
        out = numkit.masked_softmax_rows(logits, np.ones((1, 2), dtype=bool))
        assert np.isfinite(out).all()
        assert abs(float(out.sum()) - 1.0) <= 1e-6

    def test_degenerate_row_raises(self):
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(DegenerateMaskError):
            numkit.masked_softmax_rows(np.zeros((2, 2), dtype=np.float32), mask)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            numkit.masked_softmax_rows(np.zeros((2, 2)), np.ones((2, 3), dtype=bool))

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_property_rows_sum_to_one(self, n, seed):
        rng = numkit.make_rng(seed)
        logits = rng.normal(scale=5.0, size=(n, n)).astype(np.float32)
        mask = numkit.causal_row_mask(np.arange(n), n)
        out = numkit.masked_softmax_rows(logits, mask)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-6
        assert np.all(out[~mask] == 0.0)
        assert np.all(out >= 0.0)

    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e4])
    @pytest.mark.parametrize("shape", [(1, 1), (4, 57), (8, 300)])
    def test_no_mask_equals_all_true_mask_bitwise(self, shape, scale):
        rng = numkit.make_rng(shape[1])
        logits = (rng.normal(size=shape) * scale).astype(np.float32)
        out = numkit.masked_softmax_rows(logits, None)
        ref = numkit.masked_softmax_rows(logits, np.ones(shape, dtype=bool))
        assert out.dtype == np.float32
        assert np.array_equal(out, ref)

    def test_no_mask_without_columns_raises(self):
        with pytest.raises(DegenerateMaskError):
            numkit.masked_softmax_rows(np.zeros((2, 0), dtype=np.float32), None)


B = numkit.CAUSAL_BLOCK


def _probe_positions(n):
    """Ascending rows that start past 0, skip whole blocks, then run to n - 1."""
    early = np.arange(3, min(n, B + 5), 2)
    late = np.arange(max(0, n - B - 7), n)
    return np.unique(np.concatenate([early[early < n], late]))


class TestCausalSoftmax:
    @pytest.mark.parametrize("scale", [1.0, 1e4])
    @pytest.mark.parametrize("d", [8, 16, 32])
    @pytest.mark.parametrize("rows", ["all", "probe"])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3, 4 * B + 29])
    def test_equals_masked_softmax_bitwise(self, n, rows, d, scale):
        rng = numkit.make_rng(n * 100 + d)
        q = rng.normal(size=(n, d)).astype(np.float32)
        k = rng.normal(size=(n, d)).astype(np.float32)
        pos = np.arange(n) if rows == "all" else _probe_positions(n)
        q_rows = np.ascontiguousarray(q[pos])
        s = numkit.FLOAT(scale / np.sqrt(d))
        # at scale 1e4 a masked column leaking into the max or the sum moves every row
        ref = numkit.masked_softmax_rows((q_rows @ k.T) * s, numkit.causal_row_mask(pos, n))
        out = numkit.causal_softmax_rows(q_rows, k, s, pos)
        assert out.dtype == np.float32
        assert np.array_equal(out, ref)

    def test_probe_rows_skip_blocks(self):
        pos = _probe_positions(4 * B + 29)
        assert pos[0] > 0 and np.diff(pos).max() > B

    def test_no_rows(self):
        out = numkit.causal_softmax_rows(np.zeros((0, 4)), np.ones((5, 4)), 1.0, np.arange(0))
        assert out.shape == (0, 5)

    def test_bad_positions_raise(self):
        q = np.ones((3, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            numkit.causal_softmax_rows(q, q, 1.0, np.arange(2))
        with pytest.raises(BoundsError):
            numkit.causal_softmax_rows(q, q, 1.0, np.array([0, 2, 1]))
        with pytest.raises(BoundsError):
            numkit.causal_softmax_rows(q, q, 1.0, np.array([0, 1, 3]))
        with pytest.raises(BoundsError):
            numkit.causal_softmax_rows(q, q, 1.0, np.array([-1, 0, 1]))


class TestTopk:
    def test_matches_oracle_with_ties(self):
        values = np.array([1.0, 3.0, 3.0, 0.5, 3.0, 2.0], dtype=np.float32)
        assert numkit.topk_indices(values, 2).tolist() == oracles.topk_oracle(values, 2)
        assert numkit.topk_indices(values, 2).tolist() == [1, 2]

    def test_bounds(self):
        with pytest.raises(BoundsError):
            numkit.topk_indices(np.ones(3), 0)
        with pytest.raises(BoundsError):
            numkit.topk_indices(np.ones(3), 4)
        with pytest.raises(ShapeError):
            numkit.topk_indices(np.ones((2, 2)), 1)

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=40).map(
            lambda xs: np.array(xs, dtype=np.float32)
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_matches_oracle(self, values, data):
        k = data.draw(st.integers(1, len(values)))
        got = numkit.topk_indices(values, k).tolist()
        assert got == oracles.topk_oracle(values, k)
        assert got == sorted(got)
        assert len(set(got)) == k


    @given(
        st.sampled_from([np.float32, np.float64]),
        st.lists(
            st.sampled_from([0.0, -0.0, 1.0, 2.5, np.inf, -np.inf, np.nan])
            | st.floats(width=32),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_matches_stable_argsort_for_every_k(self, dtype, xs):
        values = np.array(xs, dtype=dtype)
        for k in range(1, values.size + 1):
            got = numkit.topk_indices(values, k)
            assert got.tolist() == oracles.topk_argsort(values, k).tolist()

    def test_keep_last_window_and_ties_at_scale(self):
        # plan_layer's shape: a long float64 row with heavy ties, the last
        # tokens raised to +inf so they are always kept
        rng = np.random.default_rng(3)
        values = rng.integers(0, 50, size=4096).astype(np.float64)
        values[-64:] = np.inf
        for k in (1, 63, 64, 65, 1000, 2048, 4095, 4096):
            got = numkit.topk_indices(values, k)
            assert got.tolist() == oracles.topk_argsort(values, k).tolist()
        assert numkit.topk_indices(values, 64).tolist() == list(range(4032, 4096))

    def test_integers_compare_as_float64(self):
        values = np.array([2**53, 2**53 + 1], dtype=np.int64)  # equal as float64
        assert numkit.topk_indices(values, 1).tolist() == [0]

    def test_nan_ranks_last(self):
        values = np.array([np.nan, -np.inf, 1.0, np.nan, 1.0])
        assert numkit.topk_indices(values, 3).tolist() == [1, 2, 4]
        assert numkit.topk_indices(values, 4).tolist() == [0, 1, 2, 4]


class TestCumsumDesc:
    def test_negative_raises(self):
        with pytest.raises(DomainError):
            numkit.cumsum_desc(np.array([1.0, -0.1]))

    def test_wrong_ndim_raises(self):
        with pytest.raises(ShapeError):
            numkit.cumsum_desc(np.ones((2, 2)))

    @given(st.lists(finite_floats.map(abs), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_sequential_python_sum(self, xs):
        got = numkit.cumsum_desc(np.array(xs, dtype=np.float32))
        assert got.dtype == np.float64
        ordered = sorted((float(np.float32(x)) for x in xs), reverse=True)
        cum, expected = 0.0, []
        for x in ordered:
            cum += x
            expected.append(cum)
        # bit-exact: both run the same float64 adds in the same order
        assert got.tolist() == expected
