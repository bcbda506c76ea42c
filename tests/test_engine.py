"""End-to-end tests for the tiny transformer and its sparsity pipelines."""

import dataclasses

import numpy as np
import pytest

import oracles
from zipvl import attention, engine, kvcache, metrics, numkit
from zipvl.errors import (
    BoundsError,
    ConfigError,
    EmptySequenceError,
    OrderingError,
    VocabError,
)

CFG = engine.ModelConfig(layers=3, heads=2, d_model=32, vocab_size=64, max_seq=128, seed=11)


@pytest.fixture(scope="module")
def model():
    return engine.init_model(CFG)


@pytest.fixture(scope="module")
def prompt():
    return numkit.make_rng(5).integers(0, CFG.vocab_size, size=48, dtype=np.int64)


class TestInitAndCheckpoint:
    def test_init_deterministic(self):
        a = engine.init_model(CFG)
        b = engine.init_model(CFG)
        assert np.array_equal(a.embedding, b.embedding)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.wqkv, lb.wqkv)
            assert np.array_equal(la.w_down, lb.w_down)

    def test_wqkv_holds_the_q_k_v_draws_in_order(self):
        # draw order: embedding, then per layer wq, wk, wv, wo, w_up, w_down
        model = engine.init_model(CFG)
        rng = numkit.make_rng(CFG.seed)
        d, ff = CFG.d_model, CFG.d_ff
        assert np.array_equal(model.embedding, engine._uniform(rng, d, CFG.vocab_size).T)
        for lw in model.layers:
            wq, wk, wv, wo = (engine._uniform(rng, d, d) for _ in range(4))
            assert lw.wqkv.shape == (d, 3 * d) and lw.wqkv.flags.c_contiguous
            assert np.array_equal(lw.wqkv, np.concatenate([wq, wk, wv], axis=1))
            assert np.array_equal(lw.wo, wo)
            assert np.array_equal(lw.w_up, engine._uniform(rng, d, ff))
            assert np.array_equal(lw.w_down, engine._uniform(rng, ff, d))

    @pytest.mark.parametrize("d", [8, 16, 32, 64, 128])
    @pytest.mark.parametrize("n", [None, 1, 2, 7, 64, 65, 300])
    def test_fused_qkv_product_equals_three_products_bitwise(self, d, n):
        # n None is decode's one-dimensional row
        rng = numkit.make_rng(d)
        w = [engine._uniform(rng, d, d) for _ in range(3)]
        x = rng.normal(size=(d,) if n is None else (n, d)).astype(np.float32)
        fused = x @ np.concatenate(w, axis=1)
        for i, wi in enumerate(w):
            assert np.array_equal(fused[..., i * d : (i + 1) * d], x @ wi)

    def test_different_seed_different_weights(self):
        other = engine.init_model(engine.ModelConfig(**{**CFG.__dict__, "seed": 12}))
        assert not np.array_equal(other.embedding, engine.init_model(CFG).embedding)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            engine.ModelConfig(layers=1, heads=3, d_model=32, vocab_size=8, max_seq=8, seed=0).validate()
        with pytest.raises(ConfigError):
            engine.ModelConfig(layers=0, heads=1, d_model=4, vocab_size=8, max_seq=8, seed=0).validate()


class TestPrefillValidation:
    def test_empty_prompt(self, model):
        with pytest.raises(EmptySequenceError):
            engine.prefill(model, np.array([], dtype=np.int64), engine.SparsityPolicy())

    def test_prompt_too_long(self, model):
        with pytest.raises(BoundsError):
            engine.prefill(model, np.zeros(CFG.max_seq + 1, dtype=np.int64), engine.SparsityPolicy())

    def test_bad_token(self, model):
        with pytest.raises(VocabError):
            engine.prefill(model, np.array([0, CFG.vocab_size]), engine.SparsityPolicy())

    def test_bad_policy(self, model, prompt):
        with pytest.raises(ConfigError):
            engine.prefill(model, prompt, engine.SparsityPolicy(mode="nope"))
        with pytest.raises(ConfigError):
            engine.prefill(model, prompt, engine.SparsityPolicy(mode="zipvl-exact", tau=0.0))
        with pytest.raises(ConfigError):
            engine.prefill(model, prompt, engine.SparsityPolicy(mode="fixed", fixed_ratio=1.5))


class TestEquivalences:
    def test_tau_one_matches_dense_bitwise(self, model, prompt):
        ld, _, _ = engine.prefill(model, prompt, engine.SparsityPolicy(mode="dense"))
        l1, _, _ = engine.prefill(
            model, prompt, engine.SparsityPolicy(mode="zipvl-exact", tau=1.0)
        )
        assert np.max(np.abs(ld.astype(np.float64) - l1.astype(np.float64))) <= 1e-5

    def test_tau_one_greedy_decode_identical(self, model, prompt):
        td, _ = engine.generate(model, prompt, 16, engine.SparsityPolicy(mode="dense"))
        t1, _ = engine.generate(
            model, prompt, 16, engine.SparsityPolicy(mode="zipvl-exact", tau=1.0)
        )
        assert td == t1

    def test_probe_covering_all_rows_matches_exact(self, model, prompt):
        exact = engine.SparsityPolicy(mode="zipvl-exact", tau=0.9)
        probe = engine.SparsityPolicy(
            mode="zipvl-probe", tau=0.9, probe_recent=len(prompt), probe_random=0
        )
        le, _, re_ = engine.prefill(model, prompt, exact)
        lp, _, rp = engine.prefill(model, prompt, probe)
        assert np.array_equal(le, lp)
        assert [r.p for r in re_] == [r.p for r in rp]

    def test_probe_scores_match_dense_rows(self, model, prompt):
        # attention scores on probe rows equal the same rows of the full pass
        from zipvl import attention

        trace_full: list = []
        trace_probe: list = []
        engine.prefill(model, prompt, engine.SparsityPolicy(mode="zipvl-exact", tau=1.0), trace=trace_full)
        engine.prefill(
            model,
            prompt,
            engine.SparsityPolicy(mode="zipvl-probe", tau=1.0, probe_recent=8, probe_random=8),
            trace=trace_probe,
        )
        # layer 0 inputs agree, so layer-0 stats are comparable row-for-row
        n = len(prompt)
        probe = attention.select_probe_set(n, 8, 8, numkit.derive_seed(CFG.seed, 0))
        acc_full = trace_full[0]["accumulated"]
        acc_probe = trace_probe[0]["accumulated"]
        assert acc_probe.shape == acc_full.shape
        # probe accumulates over fewer rows; mass equals the probe row count
        assert abs(acc_probe.sum() - probe.size) <= 1e-3 * probe.size


class TestSparsityMechanics:
    def test_unimportant_rows_pass_attention_unchanged(self, model, prompt):
        trace: list = []
        engine.prefill(
            model, prompt, engine.SparsityPolicy(mode="zipvl-exact", tau=0.8), trace=trace
        )
        any_dropped = False
        for entry in trace:
            imp = entry["important"]
            u = np.setdiff1d(np.arange(len(prompt)), imp)
            if u.size:
                any_dropped = True
                assert np.array_equal(
                    entry["h_after_attn"][u], entry["h_before"][u]
                )
                assert not np.array_equal(
                    entry["h_after_attn"][imp], entry["h_before"][imp]
                )
        assert any_dropped

    def test_budgets_meet_tau_and_are_minimal(self, model, prompt):
        tau = 0.85
        trace: list = []
        _, _, reports = engine.prefill(
            model, prompt, engine.SparsityPolicy(mode="zipvl-exact", tau=tau), trace=trace
        )
        for entry, report in zip(trace, reports):
            vec = entry["accumulated"]
            mass = float(np.sum(vec, dtype=np.float64))
            assert report.p == oracles.budget_oracle(vec, tau, mass)
            assert report.retained_mass >= tau - 1e-12

    def test_cache_rows_match_budget(self, model, prompt):
        _, cache, reports = engine.prefill(
            model, prompt, engine.SparsityPolicy(mode="zipvl-exact", tau=0.8)
        )
        for r in reports:
            assert cache.rows(r.layer) == r.p == r.kv_rows
            assert r.kv_bytes == 2 * CFG.heads * r.p * CFG.d_head * 4

    def test_partition_uses_identify_metric(self, model, prompt):
        # the normalized score ranks the tokens that fill the budget
        trace: list = []
        engine.prefill(
            model, prompt, engine.SparsityPolicy(mode="zipvl-exact", tau=0.8), trace=trace
        )
        for entry in trace:
            imp = entry["important"]
            got = imp.tolist()
            expected = oracles.topk_oracle(entry["normalized"], imp.size)
            assert got == expected

    def test_keep_last_forces_recent_tokens(self, model, prompt):
        trace: list = []
        engine.prefill(
            model,
            prompt,
            engine.SparsityPolicy(mode="zipvl-exact", tau=0.5, keep_last=4),
            trace=trace,
        )
        n = len(prompt)
        for entry in trace:
            kept = set(entry["important"].tolist())
            assert {n - 4, n - 3, n - 2, n - 1} <= kept

    def test_fixed_mode_constant_ratio(self, model, prompt):
        _, _, reports = engine.prefill(
            model, prompt, engine.SparsityPolicy(mode="fixed", fixed_ratio=0.5)
        )
        assert all(r.p == len(prompt) // 2 for r in reports)
        assert all(0.0 < r.retained_mass <= 1.0 for r in reports)


# signed zeros, non-finite values, the edges of float32 exp's range and its underflow
SILU_SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e4, -1e4, 87.0, -87.0, 90.0, -90.0,
     104.0, -104.0, 1e-30, -1e-30, 1e-45, -1e-45],
    dtype=np.float32,
)


def _silu_inputs(shape, seed):
    """Both signs, magnitudes log-uniform from 1e-8 up to 1e4, specials first."""
    rng = numkit.make_rng(seed)
    x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 4, size=shape)
    x = x.astype(np.float32)
    head = min(x.size, SILU_SPECIALS.size)
    x.reshape(-1)[:head] = SILU_SPECIALS[:head]
    return x


def _fp_error(fn, x):
    try:
        with np.errstate(all="raise"):
            fn(x)
    except FloatingPointError as exc:
        return str(exc)
    return None


class TestSilu:
    @pytest.mark.parametrize("shape", [(1024, 256), (48, 256), (256,), (7,), (0, 256)])
    def test_bitwise_equal_to_two_branch_oracle(self, shape):
        x = _silu_inputs(shape, seed=sum(shape) + 1)
        with np.errstate(all="ignore"):
            want = oracles.silu_two_branch(x)
            got = engine._silu(x)
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("value", [float(v) for v in SILU_SPECIALS if np.isfinite(v)])
    def test_finite_input_raises_what_the_oracle_raises(self, value):
        x = np.full(256, value, dtype=np.float32)
        assert _fp_error(engine._silu, x) == _fp_error(oracles.silu_two_branch, x)

    def test_no_error_where_exp_stays_normal(self):
        rng = numkit.make_rng(3)
        x = rng.choice([-1.0, 1.0], size=(64, 256)) * 10.0 ** rng.uniform(-30, 1.9, (64, 256))
        x = x.astype(np.float32)
        assert _fp_error(oracles.silu_two_branch, x) is None
        assert _fp_error(engine._silu, x) is None


class TestRmsNorm:
    @pytest.mark.parametrize("shape", [(64,), (1, 64), (300, 64), (7, 256), (3,), (0, 64)])
    def test_bitwise_equal_to_mean_oracle(self, shape):
        # magnitudes 1e-20 to 1e19: some rows' sums of squares underflow, some overflow to inf
        rng = numkit.make_rng(sum(shape) + 3)
        x = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-20, 19, size=shape)
        x = x.astype(np.float32)
        x.reshape(-1)[: min(x.size, 3)] = 0.0
        with np.errstate(all="ignore"):
            want = oracles.rms_norm_mean(x)
            got = engine._rms_norm(x)
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def _count_calls(monkeypatch, module, *names):
    """Wrap module.name for each name; returns the dict of call counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


class TestScoringWork:
    SCORING = ("causal_scores", "probe_attention", "accumulated_scores", "normalized_scores")

    def test_dense_layers_score_nothing(self, model, prompt, monkeypatch):
        counts = _count_calls(monkeypatch, attention, *self.SCORING)
        _, _, reports = engine.prefill(model, prompt, engine.SparsityPolicy(mode="dense"))
        assert counts == dict.fromkeys(self.SCORING, 0)
        assert all(r.p == len(prompt) and r.retained_mass == 1.0 for r in reports)

    @pytest.mark.parametrize("mode", ["zipvl-exact", "zipvl-probe", "fixed"])
    def test_scored_layers_sum_each_head_once(self, model, prompt, monkeypatch, mode):
        counts = _count_calls(monkeypatch, attention, *self.SCORING)
        pol = engine.SparsityPolicy(mode=mode, probe_recent=8, probe_random=8)
        engine.prefill(model, prompt, pol)
        scored = CFG.heads * CFG.layers
        assert counts["accumulated_scores"] == scored
        assert counts["normalized_scores"] == scored
        # probe_attention reaches causal_scores once per call
        assert counts["causal_scores"] == scored
        assert counts["probe_attention"] == (scored if mode == "zipvl-probe" else 0)

    # n = 79 and 136 end in a short tail block that joins the block before it
    @pytest.mark.parametrize("d_head, n", [(16, 79), (64, 136), (32, 150)])
    @pytest.mark.parametrize("mode", engine.MODES)
    @pytest.mark.parametrize("quantize", [False, True])
    def test_blocked_scoring_matches_matrix_scoring_bitwise(
        self, monkeypatch, d_head, n, mode, quantize
    ):
        cfg = engine.ModelConfig(
            layers=3, heads=2, d_model=2 * d_head, vocab_size=64, max_seq=n, seed=n
        )
        model = engine.init_model(cfg)
        toks = numkit.make_rng(n).integers(0, cfg.vocab_size, size=n, dtype=np.int64)
        pol = engine.SparsityPolicy(
            mode=mode, tau=0.9, probe_recent=70, probe_random=20, quantize=quantize
        )
        blocked = engine.prefill(model, toks, pol)
        monkeypatch.setattr(numkit, "causal_column_mass", oracles.column_mass_from_matrix)
        matrix = engine.prefill(model, toks, pol)
        assert np.array_equal(blocked[0], matrix[0])
        assert blocked[2] == matrix[2]
        for name in ("keys", "values", "positions"):
            for got, want in zip(getattr(blocked[1], name), getattr(matrix[1], name)):
                assert np.array_equal(got, want)

    def test_dense_trace_entry_has_no_score_vectors(self, model, prompt):
        dense_trace: list = []
        scored_trace: list = []
        engine.prefill(model, prompt, engine.SparsityPolicy(mode="dense"), trace=dense_trace)
        pol = engine.SparsityPolicy(mode="zipvl-exact", tau=0.8)
        engine.prefill(model, prompt, pol, trace=scored_trace)
        dense, scored = dense_trace[0], scored_trace[0]
        assert dense["accumulated"] is None and dense["normalized"] is None
        assert dense["probe_rows"] == 0
        assert dense["important"].tolist() == list(range(len(prompt)))
        assert dense["h_before"].shape == dense["h_after_attn"].shape == (len(prompt), CFG.d_model)
        assert not np.array_equal(dense["h_before"], dense["h_after_attn"])
        assert scored["accumulated"].shape == scored["normalized"].shape == (len(prompt),)


class TestUniformAttentionOracle:
    """With wq = 0 every logit is 0, so causal row i gives each of its i + 1 keys 1 / (i + 1).

    Column j then holds H(n) - H(j) of the mass, H the harmonic numbers, over
    n - j visible rows, and the adaptive budget has a closed-form check.
    """

    N, TAU = 257, 0.975

    @pytest.fixture(scope="class")
    def traced(self):
        cfg = engine.ModelConfig(
            layers=2, heads=2, d_model=32, vocab_size=64, max_seq=self.N, seed=29
        )
        model = engine.init_model(cfg)
        for lw in model.layers:
            lw.wqkv[:, : cfg.d_model] = 0.0
        toks = numkit.make_rng(29).integers(0, cfg.vocab_size, size=self.N, dtype=np.int64)
        trace: list = []
        _, _, reports = engine.prefill(
            model, toks, engine.SparsityPolicy(mode="zipvl-exact", tau=self.TAU), trace=trace
        )
        return trace, reports

    def harmonic_tail(self) -> np.ndarray:
        """H(n) - H(j) for j in [0, n), python floats summed from the smallest term."""
        tail, out = 0.0, []
        for j in range(self.N - 1, -1, -1):
            tail += 1.0 / (j + 1)
            out.append(tail)
        return np.array(out[::-1])

    def test_accumulated_is_the_harmonic_tail(self, traced):
        want = self.harmonic_tail()
        for entry in traced[0]:
            got = entry["accumulated"].astype(np.float64)
            assert np.max(np.abs(got - want) / want) <= np.finfo(np.float32).eps

    def test_normalized_divides_by_the_visible_rows(self, traced):
        want = self.harmonic_tail() / (self.N - np.arange(self.N))
        for entry in traced[0]:
            got = entry["normalized"].astype(np.float64)
            assert np.max(np.abs(got - want) / want) <= np.finfo(np.float32).eps

    def test_budget_is_the_oracle_minimum(self, traced):
        # x(1 - ln x) = tau is the continuum share of tokens the budget needs
        lo, hi = 1e-9, 1.0
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mid * (1 - np.log(mid)) < self.TAU else (lo, mid)
        for entry, r in zip(*traced):
            acc = entry["accumulated"]
            p = oracles.budget_oracle(acc, self.TAU, float(np.sum(acc, dtype=np.float64)))
            assert r.p == p == 203
            assert abs(p - lo * self.N) < 2
            # both scores fall with position, so the budget keeps the prefix
            assert entry["important"].tolist() == list(range(p))


class TestQuantizedPipeline:
    def test_keeps_all_rows_with_smaller_footprint(self, model, prompt):
        pol = engine.SparsityPolicy(mode="zipvl-exact", tau=0.8, quantize=True)
        _, cache, reports = engine.prefill(model, prompt, pol)
        n = len(prompt)
        dense_layer_bytes = 2 * CFG.heads * n * CFG.d_head * 4
        for r in reports:
            assert r.kv_rows == n
            assert cache.rows(r.layer) == n
            assert 0 < r.kv_bytes < dense_layer_bytes

    def test_values_are_dequantized_grid_points(self, model, prompt):
        pol = engine.SparsityPolicy(mode="zipvl-exact", tau=0.8, quantize=True)
        dense_pol = engine.SparsityPolicy(mode="dense")
        _, qcache, _ = engine.prefill(model, prompt, pol)
        _, dcache, _ = engine.prefill(model, prompt, dense_pol)
        delta = np.max(np.abs(qcache.keys[0] - dcache.keys[0]))
        assert 0 < delta < 1.0  # quantized but close
        # layer 0 sees the same input in every mode, so the dense run holds its K/V;
        # its bits come from the important set the unquantized run traces
        trace: list = []
        engine.prefill(model, prompt, dataclasses.replace(pol, quantize=False), trace=trace)
        important = set(trace[0]["important"].tolist())
        bits = [4 if j in important else 2 for j in range(len(prompt))]
        assert 2 in bits and 4 in bits
        for name in ("keys", "values"):
            want = oracles.row_fake_quantize(getattr(dcache, name)[0], bits)
            assert np.array_equal(getattr(qcache, name)[0], want)

    @pytest.mark.parametrize("mode", engine.MODES)
    @pytest.mark.parametrize("d_head", [8, 5])
    def test_each_layer_matches_the_oracle_and_packed_bytes(
        self, monkeypatch, prompt, mode, d_head
    ):
        # d_head 5 packs a head row into a part-filled last byte at both widths
        model = engine.init_model(dataclasses.replace(CFG, d_model=CFG.heads * d_head))
        # the unquantized run of the same policy, with retain keeping every
        # row, holds each layer's full K/V and traces its important set
        pol = engine.SparsityPolicy(
            mode=mode, tau=0.8, probe_recent=8, probe_random=8, quantize=True
        )
        logits_q, qcache, reports = engine.prefill(model, prompt, pol)
        trace: list = []
        with monkeypatch.context() as m:
            m.setattr(kvcache.KVCache, "retain", lambda self, layer, important: self)
            logits_u, full, _ = engine.prefill(
                model, prompt, dataclasses.replace(pol, quantize=False),
                trace=trace,
            )
        # quantizing a layer as prefill writes it feeds nothing back into the pass
        assert np.array_equal(logits_q, logits_u)
        n = len(prompt)
        for layer, (entry, r) in enumerate(zip(trace, reports)):
            important = set(entry["important"].tolist())
            bits = [4 if j in important else 2 for j in range(n)]
            assert (bits.count(4) == n) == (mode == "dense")
            assert qcache.positions[layer].tolist() == list(range(n))
            for name in ("keys", "values"):
                want = oracles.row_fake_quantize(getattr(full, name)[layer], bits)
                assert np.array_equal(getattr(qcache, name)[layer], want)
            packed = sum((d_head * b + 7) // 8 + 8 for b in bits)
            assert r.kv_bytes == 2 * CFG.heads * packed

    def test_generation_runs_end_to_end(self, model, prompt):
        pol = engine.SparsityPolicy(mode="zipvl-exact", tau=0.8, quantize=True)
        tokens, report = engine.generate(model, prompt, 8, pol)
        assert len(tokens) == len(prompt) + 8
        assert 0.0 < report.kv_reduction < 1.0


def _concatenate_append(self, layer, k_row, v_row, position):
    """KVCache.append as an exact-size cache does it: copy the layer on every token."""
    pos = self.positions[layer]
    if pos.size and position <= pos[-1]:
        raise OrderingError(f"position {position} not beyond cached {int(pos[-1])}")
    k_row = np.asarray(k_row, dtype=np.float32).reshape(self.heads, 1, self.d_head)
    v_row = np.asarray(v_row, dtype=np.float32).reshape(self.heads, 1, self.d_head)
    self.keys[layer] = np.concatenate([self.keys[layer], k_row], axis=1)
    self.values[layer] = np.concatenate([self.values[layer], v_row], axis=1)
    self.positions[layer] = np.append(pos, np.int64(position))
    return self


class TestDecode:
    def test_rows_grow_by_one_per_step(self, model, prompt):
        pol = engine.SparsityPolicy(mode="zipvl-exact", tau=0.8)
        _, cache, reports = engine.prefill(model, prompt, pol)
        before = [cache.rows(i) for i in range(CFG.layers)]
        logits, cache = engine.decode_step(model, 3, cache, position=len(prompt))
        assert logits.shape == (CFG.vocab_size,)
        assert [cache.rows(i) for i in range(CFG.layers)] == [b + 1 for b in before]
        _, cache = engine.decode_step(model, 4, cache, position=len(prompt) + 1)
        assert [cache.rows(i) for i in range(CFG.layers)] == [b + 2 for b in before]

    def test_stale_position_rejected(self, model, prompt):
        _, cache, _ = engine.prefill(model, prompt, engine.SparsityPolicy())
        with pytest.raises(OrderingError):
            engine.decode_step(model, 0, cache, position=len(prompt) - 1)

    def test_bad_token_rejected(self, model, prompt):
        _, cache, _ = engine.prefill(model, prompt, engine.SparsityPolicy())
        with pytest.raises(VocabError):
            engine.decode_step(model, CFG.vocab_size, cache, position=len(prompt))

    def test_decode_matches_prefill_logits_for_dense(self, model):
        # teacher forcing: the dense decode step reproduces the logits the
        # prefill computed for the same next position
        toks = numkit.make_rng(9).integers(0, CFG.vocab_size, size=12, dtype=np.int64)
        pol = engine.SparsityPolicy(mode="dense")
        full_logits, _, _ = engine.prefill(model, toks, pol)
        _, cache, _ = engine.prefill(model, toks[:-1], pol)
        step_logits, _ = engine.decode_step(model, int(toks[-1]), cache, position=11)
        assert np.max(np.abs(step_logits - full_logits[-1])) <= 1e-5

    @pytest.mark.parametrize("heads", [4, 8])
    @pytest.mark.parametrize("quantize", [False, True])
    def test_batched_heads_match_per_head_bitwise(self, heads, quantize):
        cfg = engine.ModelConfig(
            layers=2, heads=heads, d_model=64, vocab_size=64, max_seq=64, seed=heads
        )
        model = engine.init_model(cfg)
        toks = numkit.make_rng(heads).integers(0, cfg.vocab_size, size=40, dtype=np.int64)
        pol = engine.SparsityPolicy(mode="zipvl-exact", tau=0.9, quantize=quantize)
        logits, cache, _ = engine.prefill(model, toks, pol)
        _, ref_cache, _ = engine.prefill(model, toks, pol)
        cur = logits[-1]
        for step in range(6):
            token = int(np.argmax(cur))
            ref = oracles.decode_step_reference(model, token, ref_cache, toks.size + step)
            cur, cache = engine.decode_step(model, token, cache, position=toks.size + step)
            assert np.array_equal(cur, ref)

    @pytest.mark.parametrize("heads", [1, 2, 4, 8])
    @pytest.mark.parametrize("d_head", [8, 16])
    @pytest.mark.parametrize("mode", engine.MODES)
    @pytest.mark.parametrize("quantize", [False, True])
    def test_decode_step_matches_reference_bitwise(self, heads, d_head, mode, quantize):
        cfg = engine.ModelConfig(
            layers=2, heads=heads, d_model=heads * d_head, vocab_size=64, max_seq=64, seed=d_head
        )
        model = engine.init_model(cfg)
        toks = numkit.make_rng(heads).integers(0, cfg.vocab_size, size=16, dtype=np.int64)
        pol = engine.SparsityPolicy(
            mode=mode, tau=0.9, probe_recent=4, probe_random=4, quantize=quantize
        )
        logits, cache, _ = engine.prefill(model, toks, pol)
        _, ref_cache, _ = engine.prefill(model, toks, pol)
        prefill_rows = [cache.rows(layer) for layer in range(cfg.layers)]
        cur = logits[-1]
        for step in range(40):
            token = int(np.argmax(cur))
            ref = oracles.decode_step_reference(model, token, ref_cache, toks.size + step)
            cur, cache = engine.decode_step(model, token, cache, position=toks.size + step)
            assert np.array_equal(cur.view(np.uint32), ref.view(np.uint32)), step
        # the first append grows a prefill layer to twice its rows; going past that grows it again
        assert all(cache.rows(i) > 2 * r for i, r in enumerate(prefill_rows))

    @pytest.mark.parametrize("mode", ["zipvl-exact", "dense"])
    @pytest.mark.parametrize("quantize", [False, True])
    def test_growing_cache_matches_concatenate_cache_bitwise(self, monkeypatch, mode, quantize):
        # the buffers must keep each layer's C-order layout, which prefill
        # installs, or BLAS rounds the stacked decode matmuls differently from
        # an exact-size cache (d_head 8 is a size where the layout reaches the
        # rounding)
        cfg = engine.ModelConfig(layers=2, heads=8, d_model=64, vocab_size=64, max_seq=128, seed=3)
        model = engine.init_model(cfg)
        toks = numkit.make_rng(3).integers(0, cfg.vocab_size, size=60, dtype=np.int64)
        pol = engine.SparsityPolicy(mode=mode, tau=0.9, quantize=quantize)

        def run():
            logits, cache, _ = engine.prefill(model, toks, pol)
            cur, out = logits[-1], []
            for step in range(48):
                cur, cache = engine.decode_step(
                    model, int(np.argmax(cur)), cache, position=toks.size + step
                )
                out.append(cur)
            return out

        grown = run()
        monkeypatch.setattr(kvcache.KVCache, "append", _concatenate_append)
        reference = run()
        assert all(np.array_equal(a, b) for a, b in zip(grown, reference))


class TestGenerate:
    def test_zero_steps_returns_prompt(self, model, prompt):
        tokens, report = engine.generate(model, prompt, 0, engine.SparsityPolicy())
        assert tokens == [int(t) for t in prompt]
        assert report.generated == []

    def test_negative_steps_rejected(self, model, prompt):
        with pytest.raises(BoundsError):
            engine.generate(model, prompt, -1, engine.SparsityPolicy())

    def test_decode_past_max_seq_rejected_before_the_first_step(self, model, prompt, monkeypatch):
        pol = engine.SparsityPolicy()
        prefilled = engine.prefill(model, prompt, pol)
        fits = CFG.max_seq - len(prompt)
        steps = []
        monkeypatch.setattr(engine, "decode_step", lambda *a, **k: steps.append(1))
        with pytest.raises(BoundsError):
            engine.decode(model, prompt, prefilled, fits + 1, pol)
        assert steps == []
        monkeypatch.undo()
        tokens, _ = engine.decode(model, prompt, prefilled, fits, pol)
        assert len(tokens) == CFG.max_seq

    def test_greedy_repeatable(self, model, prompt):
        pol = engine.SparsityPolicy(mode="zipvl-exact", tau=0.9)
        a, _ = engine.generate(model, prompt, 10, pol)
        b, _ = engine.generate(model, prompt, 10, pol)
        assert a == b

    def test_decode_continues_a_prefill_as_generate_does(self, model, prompt):
        pol = engine.SparsityPolicy(mode="zipvl-exact", tau=0.9, keep_last=4)
        prefilled = engine.prefill(model, prompt, pol)
        tokens, report = engine.decode(model, prompt, prefilled, 6, pol)
        assert (tokens, report) == engine.generate(model, prompt, 6, pol)
        assert report.layer_reports == prefilled[2]

    @pytest.mark.parametrize("mode", ["dense", "fixed"])
    def test_decode_flops_count_the_cache_rows_of_every_step(self, model, prompt, mode):
        pol = engine.SparsityPolicy(mode=mode, fixed_ratio=0.25)
        prefilled = engine.prefill(model, prompt, pol)
        rows = [prefilled[1].rows(layer) for layer in range(CFG.layers)]
        _, report = engine.decode(model, prompt, prefilled, 7, pol)
        # step s (from 1) attends over each layer's prefill rows + s: 4 flops per row,
        # channel and head
        want = sum(4 * (r + s) * CFG.d_head * CFG.heads for s in range(1, 8) for r in rows)
        assert report.decode_attn_flops == want

    def test_report_accounting_consistency(self, model, prompt):
        pol = engine.SparsityPolicy(mode="zipvl-probe", tau=0.9, probe_recent=8, probe_random=8)
        _, report = engine.generate(model, prompt, 4, pol)
        n = len(prompt)
        for r in report.layer_reports:
            assert r.attn_flops == metrics.attn_flops_sparse(
                r.p, n, CFG.d_head, CFG.heads, r.probe_rows
            )
            assert r.probe_rows == 16
        assert report.total_attn_flops_dense == CFG.layers * metrics.attn_flops_dense(
            n, CFG.d_head, CFG.heads
        )
        assert report.total_attn_flops_actual == sum(r.attn_flops for r in report.layer_reports)
        assert 0.0 <= report.flops_reduction < 1.0
        assert report.decode_attn_flops > 0
        assert len(report.generated) == 4
