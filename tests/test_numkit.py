"""Unit and property tests for the shared numeric helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from zipvl import attention, numkit
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
    mask = oracles.causal_row_mask(np.array([0, 2]), 4)
    expected = np.array([[True, False, False, False], [True, True, True, False]])
    assert np.array_equal(mask, expected)


# The kernel's weights e / s, its float32 exponentials divided by their float32 row
# sums in float64, lie within WEIGHT_ULPS float32 ulps of 1.0 of the float64 softmax
# oracle's, and each row sums to 1 within ROW_SUM_TOL. Both take the same float32
# logits: BLAS gives a block's product against its visible keys the bits of the whole
# product's rows at these sizes. A shifted head's exponent x - max rounds by at most
# half an ulp of |x - max| = t, which moves a weight e^-t by at most t e^-t / 2^24 <=
# ulp / 2e; an unshifted head exponentiates x itself. exp, the row sum and the
# oracle's rounding to float32 add a few half-ulps of the weight itself. Measured
# worst: 0.69 of an ulp. Decode's masked_softmax_rows, always shifted, also divides
# in float32, one more rounding of the weight: measured worst 1.5 ulps, on shapes up
# to (16, 4097) at logit scales 1, 30 and 1e4.
WEIGHT_ULPS = 2
WEIGHT_TOL = WEIGHT_ULPS * float(np.finfo(np.float32).eps)
ROW_SUM_TOL = 1e-6


class TestMaskedSoftmax:
    # numkit.masked_softmax_rows masks nothing; the masked cases run the float32 oracle it
    # matches bit for bit, or the float64 one it matches within WEIGHT_TOL

    def test_rows_sum_to_one_and_masked_are_zero(self):
        rng = numkit.make_rng(0)
        logits = rng.normal(size=(6, 9)).astype(np.float32)
        mask = oracles.causal_row_mask(np.arange(3, 9), 9)
        out = oracles.softmax_rows_masked(logits, mask)
        assert out.dtype == np.float32
        assert np.all(out[~mask] == 0.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-6

    def test_stable_under_large_logits(self):
        logits = np.array([[1e4, 1e4 - 1.0]], dtype=np.float32)
        out = numkit.masked_softmax_rows(logits, None)
        assert np.isfinite(out).all()
        assert abs(float(out.sum()) - 1.0) <= 1e-6

    def test_degenerate_row_raises(self):
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(DegenerateMaskError):
            oracles.softmax_rows_masked(np.zeros((2, 2), dtype=np.float32), mask)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            oracles.softmax_rows_masked(np.zeros((2, 2)), np.ones((2, 3), dtype=bool))

    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_property_rows_sum_to_one(self, n, seed):
        rng = numkit.make_rng(seed)
        logits = rng.normal(scale=5.0, size=(n, n)).astype(np.float32)
        mask = oracles.causal_row_mask(np.arange(n), n)
        out = oracles.softmax_rows_masked(logits, mask)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-6
        assert np.all(out[~mask] == 0.0)
        assert np.all(out >= 0.0)

    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e4])
    @pytest.mark.parametrize("shape", [(1, 1), (4, 57), (8, 300)])
    def test_no_mask_equals_all_true_mask_bitwise(self, shape, scale):
        rng = numkit.make_rng(shape[1])
        logits = (rng.normal(size=shape) * scale).astype(np.float32)
        out = numkit.masked_softmax_rows(logits, None)
        ref = oracles.softmax_rows_f32(logits, np.ones(shape, dtype=bool))
        assert out.dtype == np.float32
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1), (4, 513), (8, 300), (4, 2560)])
    def test_equals_new_array_oracle_bitwise(self, shape, masked):
        # the stacked float32 rows against the oracle's row-at-a-time ones;
        # a -inf logit takes the part of a masked column
        rng = numkit.make_rng(shape[1] + masked)
        logits = (rng.normal(size=shape) * 30.0).astype(np.float32)
        mask = rng.random(shape) < 0.7 if masked else np.ones(shape, dtype=bool)
        mask[:, 0] = True
        visible = np.where(mask, logits, np.float32(-np.inf))
        before = visible.copy()
        out = numkit.masked_softmax_rows(visible, None)
        ref = oracles.softmax_rows_f32(logits, mask)
        assert np.array_equal(out.view(np.uint32), ref.view(np.uint32))
        assert np.array_equal(visible, before)

    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e4])
    @pytest.mark.parametrize("shape", [(1, 1), (4, 513), (4, 2560), (16, 4097)])
    def test_within_weight_tol_of_float64_oracle(self, shape, scale):
        # float32 exp, row sum and division against one rounding of a float64 softmax
        rng = numkit.make_rng(shape[0] * shape[1])
        logits = (rng.normal(size=shape) * scale).astype(np.float32)
        out = numkit.masked_softmax_rows(logits, None)
        ref = oracles.softmax_rows_masked(logits, np.ones(shape, dtype=bool))
        assert np.max(np.abs(out.astype(np.float64) - ref)) <= WEIGHT_TOL
        assert np.max(np.abs(out.sum(axis=1, dtype=np.float64) - 1.0)) <= ROW_SUM_TOL

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_minus_inf_is_zero_input_kept_output_c_float32(self, order):
        logits = numkit.make_rng(5).normal(size=(4, 33)).astype(np.float32)
        logits[:, 1::3] = -np.inf
        logits = np.asarray(logits, order=order)
        before = logits.copy()
        out = numkit.masked_softmax_rows(logits, None)
        assert np.all(out[:, 1::3] == 0.0)
        assert np.array_equal(logits, before)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert np.array_equal(out, numkit.masked_softmax_rows(np.ascontiguousarray(logits), None))

    def test_no_mask_without_columns_raises(self):
        with pytest.raises(DegenerateMaskError):
            numkit.masked_softmax_rows(np.zeros((2, 0), dtype=np.float32), None)

    def test_mask_is_refused(self):
        with pytest.raises(TypeError):
            numkit.masked_softmax_rows(np.zeros((1, 2), dtype=np.float32), np.ones((1, 2), bool))


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
        # the kernel's weights against the float64 masked softmax on the same
        # logits, within WEIGHT_TOL, not bit for bit; masked columns stay exactly 0.0
        rng = numkit.make_rng(n * 100 + d)
        q = rng.normal(size=(n, d)).astype(np.float32)
        k = rng.normal(size=(n, d)).astype(np.float32)
        pos = np.arange(n) if rows == "all" else _probe_positions(n)
        q_rows = np.ascontiguousarray(q[pos])
        s = numkit.FLOAT(scale / np.sqrt(d))
        # at scale 1e4 a masked column leaking into the max or the sum moves every row
        ref = oracles.causal_softmax_f64(q_rows, k, s, pos)
        out = oracles.causal_softmax_rows(q_rows, k, s, pos)
        assert np.all(out[~oracles.causal_row_mask(pos, n)] == 0.0)
        assert np.max(np.abs(out.astype(np.float64) - ref)) <= WEIGHT_TOL
        assert np.max(np.abs(out.sum(axis=1, dtype=np.float64) - 1.0)) <= ROW_SUM_TOL

    @pytest.mark.parametrize(
        "n, rows",
        [(4 * B, "all"), (3 * B + numkit.TAIL_MIN - 1, "all"), (3 * B + 1, "all"), (1024, "probe")],
    )
    def test_hides_exactly_the_columns_past_each_row(self, n, rows):
        # logits within +-0.1, so every visible weight is about 1/n and none
        # underflows: a weight is 0.0 exactly where the oracle mask hides its column
        rng = numkit.make_rng(n + 7)
        q = rng.uniform(-0.1, 0.1, size=(n, 16)).astype(np.float32)
        k = rng.uniform(-0.1, 0.1, size=(n, 16)).astype(np.float32)
        if rows == "all":
            pos = np.arange(n)
        else:
            pos, _ = attention.select_probe_set(n, 64, 64, numkit.derive_seed(1234, 0))
            assert np.diff(pos).max() > 1
        out = oracles.causal_softmax_rows(np.ascontiguousarray(q[pos]), k, 0.25, pos)
        assert np.array_equal(out == 0.0, ~oracles.causal_row_mask(pos, n))

    @pytest.mark.parametrize("rows", ["all", "probe"])
    def test_blocks_cover_the_rows_and_span_only_visible_keys(self, rows):
        n = 4 * B + 29
        rng = numkit.make_rng(n)
        q = rng.normal(size=(n, 8)).astype(np.float32)
        # head 0's logit bound lies within SHIFT_FREE_BOUND, head 1's (q times 4) does not
        qk = np.stack([q, 4 * q])
        pos = np.arange(n) if rows == "all" else _probe_positions(n)
        q_rows = np.ascontiguousarray(qk[:, pos])
        unshifted = oracles.logit_bound(q_rows, qk, 0.5) <= numkit.SHIFT_FREE_BOUND
        assert unshifted.tolist() == [True, False]
        r1 = 0
        for r0, e in numkit.causal_exp_blocks(q_rows, qk, 0.5, pos):
            assert r0 == r1 and e.dtype == np.float32 and e.flags.c_contiguous
            r1 = r0 + e.shape[1]
            assert e.shape[2] == pos[r1 - 1] + 1
            # unnormalized: the unshifted head is np.exp of its masked logits, and
            # each row of the shifted head peaks at exactly 1.0
            logits = oracles.masked_block_logits(q_rows[0, r0:r1], q, 0.5, pos[r0:r1])
            assert np.array_equal(e[0].view(np.uint32), np.exp(logits).view(np.uint32))
            assert np.all(e[1].max(axis=1) == 1.0)
        assert r1 == pos.size

    def test_probe_rows_skip_blocks(self):
        pos = _probe_positions(4 * B + 29)
        assert pos[0] > 0 and np.diff(pos).max() > B

    def test_no_rows(self):
        assert list(numkit.causal_exp_blocks(np.zeros((0, 4)), np.ones((5, 4)), 1.0, [])) == []
        mass = numkit.causal_column_mass(np.zeros((0, 4)), np.ones((5, 4)), 1.0, np.arange(0))
        assert mass.dtype == np.float64 and mass.tolist() == [0.0] * 5

    def test_row_weights_of_another_shape_raise(self):
        q = np.ones((3, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            numkit.causal_column_mass(q, q, 1.0, np.arange(3), np.ones(2))

    def test_bad_positions_raise(self):
        q = np.ones((3, 2), dtype=np.float32)
        blocks = lambda *args: list(numkit.causal_exp_blocks(*args))  # noqa: E731
        for fn in (blocks, numkit.causal_column_mass):
            with pytest.raises(ShapeError):
                fn(q, q, 1.0, np.arange(2))
            with pytest.raises(BoundsError):
                fn(q, q, 1.0, np.array([0, 2, 1]))
            with pytest.raises(BoundsError):
                fn(q, q, 1.0, np.array([0, 1, 3]))
            with pytest.raises(BoundsError):
                fn(q, q, 1.0, np.array([-1, 0, 1]))


# row counts ending in a tail of 0 to 15 rows after one or two full blocks, then short
# and long ones; BLAS rounds a product of 1 row, or a few at d 32 and 64, differently
COLUMN_MASS_ROWS = [1, 2, 15, 16, B - 1] + [j * B + t for j in (1, 2) for t in range(16)]


class TestCausalColumnMass:
    @pytest.mark.parametrize("d", [8, 16, 32, 64])
    @pytest.mark.parametrize("rows", ["all", "subset"])
    def test_equals_matrix_column_sums_bitwise(self, d, rows):
        for m in COLUMN_MASS_ROWS + [15 * B + 1 if rows == "subset" else 16 * B + 1]:
            n = m if rows == "all" else min(m + 37, 16 * B + 1)
            rng = numkit.make_rng(m * 100 + d)
            q = rng.normal(size=(n, d)).astype(np.float32)
            k = rng.normal(size=(n, d)).astype(np.float32)
            pos = np.arange(n) if rows == "all" else np.sort(rng.permutation(n)[:m])
            q_rows = np.ascontiguousarray(q[pos])
            s = numkit.FLOAT(1.0 / np.sqrt(d))
            ref = oracles.column_mass_from_matrix(q_rows, k, s, pos)
            got = numkit.causal_column_mass(q_rows, k, s, pos)
            # the float64 sums of the stacked e / s, up to float64 summation order
            assert np.all(np.abs(got - ref) <= oracles.summation_order_tol(ref, m)), m

    @given(
        n=st.integers(1, 3 * B + 20),
        d=st.sampled_from([4, 8, 16]),
        logit_scale=st.floats(0.1, 30.0),
        subset=st.booleans(),
        weighted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_within_float32_bound_of_float64_oracle(
        self, n, d, logit_scale, subset, weighted, seed
    ):
        # each weight is within WEIGHT_TOL of the oracle's, so a column's mass is
        # within WEIGHT_TOL times the weighted count of the rows that see it
        rng = numkit.make_rng(seed)
        q = rng.normal(size=(n, d)).astype(np.float32)
        k = rng.normal(size=(n, d)).astype(np.float32)
        pos = np.sort(rng.permutation(n)[: int(rng.integers(1, n + 1))]) if subset else np.arange(n)
        row_weights = rng.uniform(0.5, 20.0, size=pos.size) if weighted else None
        q_rows = np.ascontiguousarray(q[pos])
        s = numkit.FLOAT(logit_scale / np.sqrt(d))
        got = numkit.causal_column_mass(q_rows, k, s, pos, row_weights)
        ref = oracles.column_mass_f64(q_rows, k, s, pos, row_weights)
        counts = oracles.weighted_visible_counts(
            pos, np.ones(pos.size) if row_weights is None else row_weights, n
        )
        assert got.dtype == np.float64
        assert np.all(np.abs(got - ref) <= WEIGHT_TOL * counts)


class TestStackedHeads:
    """Leading axes are heads: a stacked call gives each head the bits of its own 2-D call."""

    @staticmethod
    def layer_heads(heads, n, d, seed):
        """q and k of `heads` heads: strided (heads, n, d) views, as the engine slices a layer."""
        qkv = numkit.make_rng(seed).normal(size=(n, 3, heads, d)).astype(np.float32)
        q, k, _ = qkv.transpose(1, 2, 0, 3)
        return q, k

    # 79 and 136 rows end in a tail that joins the block before it, 150 in a 22-row
    # tail that does not
    @pytest.mark.parametrize("rows", ["all", "probe"])
    @pytest.mark.parametrize("n", [1, 79, 136, 150, 4 * B + 29])
    @pytest.mark.parametrize("d", [8, 16, 32, 64])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_equals_the_per_head_calls_bitwise(self, heads, d, n, rows):
        q, k = self.layer_heads(heads, n, d, seed=n * 100 + d * 10 + heads)
        pos = np.arange(n) if rows == "all" else _probe_positions(n)
        weights = numkit.make_rng(n).uniform(0.5, 20.0, size=pos.size) if rows == "probe" else None
        s = numkit.FLOAT(1.0 / np.sqrt(d))
        q_rows = np.ascontiguousarray(q[:, pos])
        stacked = [(r0, e.copy()) for r0, e in numkit.causal_exp_blocks(q_rows, k, s, pos)]
        mass = numkit.causal_column_mass(q_rows, k, s, pos, weights)
        assert mass.shape == (heads, n)
        for h in range(heads):
            q_h = np.ascontiguousarray(q[h][pos])
            blocks = [(r0, e.copy()) for r0, e in numkit.causal_exp_blocks(q_h, k[h], s, pos)]
            assert [r0 for r0, _ in stacked] == [r0 for r0, _ in blocks]
            for (_, got), (_, want) in zip(stacked, blocks):
                assert got.shape == (heads, *want.shape)
                assert np.array_equal(got[h].view(np.uint32), want.view(np.uint32))
            want = numkit.causal_column_mass(q_h, k[h], s, pos, weights)
            assert np.array_equal(mass[h].view(np.uint64), want.view(np.uint64))

    def test_each_block_is_a_view_that_the_next_block_overwrites(self):
        n, heads = 4 * B + 29, 4
        q, k = self.layer_heads(heads, n, 8, seed=n)
        pos = _probe_positions(n)
        previous = None
        for r0, e in numkit.causal_exp_blocks(np.ascontiguousarray(q[:, pos]), k, 0.5, pos):
            assert e.flags.c_contiguous and e.shape[0] == heads
            if previous is not None:
                assert np.shares_memory(previous[0], e)
                assert not np.array_equal(previous[0], previous[1])
            previous = (e, e.copy())

    def test_heads_of_another_count_raise(self):
        q = np.ones((2, 3, 4), dtype=np.float32)
        with pytest.raises(ShapeError):
            list(numkit.causal_exp_blocks(q, q[:1], 1.0, np.arange(3)))
        with pytest.raises(ShapeError):
            numkit.as_stack(np.ones(3))


def _tight_qk(n, d, seed):
    """q and k whose logits reach the Cauchy-Schwarz bound at both ends.

    k is q, so the longest q row's own logit is +bound, and key 0 is minus
    that row, so its logit against key 0 is -bound.
    """
    q = numkit.make_rng(seed).normal(size=(n, d)).astype(np.float32)
    k = q.copy()
    k[0] = -q[np.argmax(np.linalg.norm(q, axis=1))]
    return q, k


def _scale_at_bound(q_rows, k, side):
    """A float32 scale that puts the largest head bound 1e-5 below or above SHIFT_FREE_BOUND."""
    s = numkit.SHIFT_FREE_BOUND / oracles.logit_bound(q_rows, k, 1.0).max()
    s = numkit.FLOAT(s * (1 - 1e-5 if side == "below" else 1 + 1e-5))
    bound = oracles.logit_bound(q_rows, k, s).max()
    assert (bound <= numkit.SHIFT_FREE_BOUND) == (side == "below")
    return s


class TestShiftFreeHeads:
    """A head whose logit bound is within SHIFT_FREE_BOUND is exponentiated unshifted."""

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("rows", ["all", "probe"])
    @pytest.mark.parametrize("n", [B + 1, 4 * B + 29])
    def test_weights_within_tolerance_at_the_bound(self, n, rows, side):
        q, k = _tight_qk(n, 16, seed=n)
        pos = np.arange(n) if rows == "all" else _probe_positions(n)
        q_rows = np.ascontiguousarray(q[pos])
        s = _scale_at_bound(q_rows, k, side)
        e, sums = oracles.causal_exp_rows(q_rows, k, s, pos)
        if rows == "all":
            # the longest row's own logit is the bound: unshifted it reaches e^32
            assert (e.max() > 7e13) == (side == "below")
        out = e / sums.astype(np.float64)[:, None]
        ref = oracles.causal_softmax_f64(q_rows, k, s, pos)
        assert np.max(np.abs(out - ref)) <= WEIGHT_TOL
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= ROW_SUM_TOL
        mass = numkit.causal_column_mass(q_rows, k, s, pos)
        counts = oracles.weighted_visible_counts(pos, np.ones(pos.size), n)
        assert np.all(np.abs(mass - oracles.column_mass_f64(q_rows, k, s, pos)) <= WEIGHT_TOL * counts)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_restricted_attention_matches_its_oracle(self, side):
        n = 3 * (2 * B + 3)
        q, k = _tight_qk(n, 16, seed=n)
        v = numkit.make_rng(n + 1).normal(size=(n, 16)).astype(np.float32)
        rng = numkit.make_rng(n + 2)
        # keep key 0 and the longest row, whose logits reach -bound and +bound
        longest = int(np.argmax(np.linalg.norm(q, axis=1)))
        idx = np.union1d(np.flatnonzero(rng.random(n) < 0.4), [0, longest])
        s = _scale_at_bound(q[idx], k[idx], side)
        out, w = oracles.restricted_attention_weights(q, k, v, s, idx)
        assert np.array_equal(attention.restricted_attention(q, k, v, s, idx), out)
        ref = oracles.causal_softmax_f64(q[idx], k[idx], s, np.arange(idx.size))
        assert np.max(np.abs(w - ref)) <= WEIGHT_TOL

    @pytest.mark.parametrize("rows", ["all", "probe"])
    def test_heads_on_either_side_equal_their_own_calls_bitwise(self, rows):
        n = 4 * B + 29
        q0, k0 = _tight_qk(n, 16, seed=n)
        pos = np.arange(n) if rows == "all" else _probe_positions(n)
        s = _scale_at_bound(q0[pos], k0, "below")
        # the bound is linear in q: heads 1 and 3 lie above it, heads 0 and 2 below
        q = np.stack([q0, q0 * 1.001, q0 * 0.5, q0 * 4])
        k = np.stack([k0] * 4)
        v = numkit.make_rng(n + 1).normal(size=(4, n, 16)).astype(np.float32)
        q_rows = np.ascontiguousarray(q[:, pos])
        unshifted = oracles.logit_bound(q_rows, k, s) <= numkit.SHIFT_FREE_BOUND
        assert unshifted.tolist() == [True, False, True, False]
        stacked = [(r0, e.copy()) for r0, e in numkit.causal_exp_blocks(q_rows, k, s, pos)]
        mass = numkit.causal_column_mass(q_rows, k, s, pos)
        out = attention.restricted_attention(q, k, v, s, pos)
        for h in range(4):
            blocks = [e.copy() for _, e in numkit.causal_exp_blocks(q_rows[h].copy(), k[h], s, pos)]
            for (_, got), want in zip(stacked, blocks, strict=True):
                assert np.array_equal(got[h].view(np.uint32), want.view(np.uint32))
            want = numkit.causal_column_mass(q_rows[h].copy(), k[h], s, pos)
            assert np.array_equal(mass[h].view(np.uint64), want.view(np.uint64))
            want = attention.restricted_attention(q[h], k[h], v[h], s, pos)
            assert np.array_equal(out[h].view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", ["q", "k"])
    def test_nan_or_inf_keeps_the_shift(self, operand, value):
        # the bound of these operands is far below SHIFT_FREE_BOUND until one entry is
        # not finite; the blocks are then the shifted exponentials, NaNs where they were
        n = 2 * B + 3
        rng = numkit.make_rng(n)
        q, k = (rng.uniform(-0.1, 0.1, size=(n, 8)).astype(np.float32) for _ in range(2))
        (q if operand == "q" else k)[n - 9, 3] = value
        assert not oracles.logit_bound(q, k, 0.5) <= numkit.SHIFT_FREE_BOUND
        pos = np.arange(n)
        with np.errstate(invalid="ignore"):  # inf - inf where a row's largest logit is inf
            for r0, e in numkit.causal_exp_blocks(q, k, 0.5, pos):
                rows = slice(r0, r0 + e.shape[0])
                logits = oracles.masked_block_logits(q[rows], k, 0.5, pos[rows])
                want = np.exp(logits - logits.max(axis=1, keepdims=True))
                assert np.array_equal(e, want, equal_nan=True)
                if r0 == 0:
                    assert np.all(e.max(axis=1) == 1.0)


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
