"""Tiny deterministic multi-layer causal transformer with pluggable sparsity.

The model is pre-norm with gainless RMS norms, a 2-layer SiLU MLP, no
biases, no positional embedding (position enters only through the causal
mask), and an output head tied to the token embedding. Weights are drawn
from a seeded generator in a fixed order, so a config reproduces the model
bit-exactly.

Four attention pipelines share one code path:
  dense        full attention, nothing evicted
  zipvl-exact  adaptive budget from full attention scores
  zipvl-probe  adaptive budget from probe-row approximate scores
  fixed        constant retention ratio across layers

Per layer the prefill pass scores token importance, picks an important set,
computes attention only among that set (everything else receives a zero
attention output and rides the residual stream), and caches K/V for the
important tokens only; with quantize it caches every token instead, at 4
bits if important and 2 if not, quantized as the layer is written. Every
layer of a run runs the policy's mode; in mode dense each layer keeps
every token, so it computes no scores at all. Decode appends
unconditionally and attends to the whole cache, up to max_seq positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import attention, budget, kvcache, metrics, numkit
from .errors import (
    BoundsError,
    ConfigError,
    EmptySequenceError,
    VocabError,
)

ADAPTIVE_MODES = ("zipvl-exact", "zipvl-probe")
MODES = ("dense", *ADAPTIVE_MODES, "fixed")

_NORM_EPS = np.float32(1e-5)


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    heads: int
    d_model: int
    vocab_size: int
    max_seq: int
    seed: int

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model

    def validate(self) -> "ModelConfig":
        if min(self.layers, self.heads, self.d_model, self.vocab_size, self.max_seq) < 1:
            raise ConfigError("all model dimensions must be >= 1")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by heads={self.heads}")
        return self


@dataclass(frozen=True)
class SparsityPolicy:
    """Which attention pipeline to run and its knobs."""

    mode: str = "dense"
    tau: float = 0.975
    fixed_ratio: float = 0.5
    probe_recent: int = 64
    probe_random: int = 64
    keep_last: int = 0
    quantize: bool = False

    def validate(self) -> "SparsityPolicy":
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau={self.tau} outside (0, 1]")
        if not 0.0 < self.fixed_ratio <= 1.0:
            raise ConfigError(f"fixed_ratio={self.fixed_ratio} outside (0, 1]")
        if self.probe_recent < 1:
            raise ConfigError("probe_recent must be >= 1")
        if self.probe_random < 0 or self.keep_last < 0:
            raise ConfigError("counts must be nonnegative")
        return self


@dataclass
class LayerWeights:
    """One layer's weights; wqkv is wq, wk and wv side by side, (d, 3d)."""

    wqkv: np.ndarray
    wo: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray


@dataclass
class TinyTransformer:
    config: ModelConfig
    embedding: np.ndarray
    layers: list = field(default_factory=list)


def _uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(rows)
    return rng.uniform(-bound, bound, size=(rows, cols)).astype(np.float32)


def init_model(config: ModelConfig) -> TinyTransformer:
    """Build a model with weights drawn uniformly in +-1/sqrt(fan_in).

    Draw order: embedding, then per layer wq, wk, wv, wo, w_up, w_down.
    wq, wk and wv are stored concatenated as wqkv, so one product projects
    all three; each of its columns is the dot product the separate
    projection would compute.
    """
    config.validate()
    rng = numkit.make_rng(config.seed)
    d, ff = config.d_model, config.d_ff
    model = TinyTransformer(config=config, embedding=_uniform(rng, d, config.vocab_size).T.copy())
    for _ in range(config.layers):
        model.layers.append(
            LayerWeights(
                wqkv=np.concatenate([_uniform(rng, d, d) for _ in range(3)], axis=1),
                wo=_uniform(rng, d, d),
                w_up=_uniform(rng, d, ff),
                w_down=_uniform(rng, ff, d),
            )
        )
    return model


def _rms_norm(x: np.ndarray) -> np.ndarray:
    """x / sqrt(mean(x^2) + eps) over the last axis, float32 throughout.

    A matrix (prefill) takes np.mean of the squares: a float32 sum
    true-divided by the intp count (a float64 quotient rounded to float32),
    then + eps, sqrt and the reciprocal. A single row (decode) makes the
    same roundings on scalars, with far fewer numpy calls; its sqrt is
    taken in float64 and rounded to float32, which is the float32 sqrt,
    since 53 >= 2 * 24 + 2 bits make that double rounding exact.
    """
    if x.ndim == 1:
        ms = np.float32(float(np.add.reduce(np.square(x))) / x.size) + _NORM_EPS
        return x * (1.0 / np.float32(math.sqrt(ms)))
    return x * (1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + _NORM_EPS))


def _silu(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: x / (1 + e^-x) for x >= 0, x e^x / (1 + e^x) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, x, x * e) / (1.0 + e)


def check_length(n: int, steps: int, max_seq: int) -> None:
    """BoundsError unless steps >= 0 and an n-token prompt plus its steps fits max_seq."""
    if steps < 0:
        raise BoundsError("steps must be >= 0")
    if n + steps > max_seq:
        raise BoundsError(f"n={n} + steps={steps} exceeds max_seq={max_seq}")


def _check_tokens(tokens: np.ndarray, config: ModelConfig) -> np.ndarray:
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size == 0:
        raise EmptySequenceError("prompt is empty")
    if tokens.size > config.max_seq:
        raise BoundsError(f"prompt length {tokens.size} exceeds max_seq {config.max_seq}")
    if tokens.min() < 0 or tokens.max() >= config.vocab_size:
        raise VocabError(f"token id outside vocabulary of size {config.vocab_size}")
    return tokens


def _token_scores(
    q: np.ndarray, k: np.ndarray, scale: float, policy: SparsityPolicy, seed: int, layer: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """A scored layer's head-mean accumulated and normalized scores, and its probe row count.

    zipvl-probe scores the layer's probe rows, every other mode all rows.
    Each head's column mass is summed once and feeds both statistics.
    """
    n, heads = k.shape[1], k.shape[0]
    if policy.mode == "zipvl-probe":
        probe = attention.select_probe_set(
            n, policy.probe_recent, policy.probe_random, numkit.derive_seed(seed, layer)
        )
        per_head = [attention.probe_attention(q[i], probe, k[i], scale) for i in range(heads)]
        probe_rows = int(probe.size)
    else:
        per_head = [attention.causal_scores(q[i], k[i], scale) for i in range(heads)]
        probe_rows = 0
    acc = [attention.accumulated_scores(s) for s in per_head]
    norm = [attention.normalized_scores(s, a) for s, a in zip(per_head, acc)]
    return (
        np.mean(acc, axis=0, dtype=np.float64).astype(np.float32),
        np.mean(norm, axis=0, dtype=np.float64).astype(np.float32),
        probe_rows,
    )


def prefill(
    model: TinyTransformer,
    tokens: np.ndarray,
    policy: SparsityPolicy,
    trace: list | None = None,
) -> tuple[np.ndarray, kvcache.KVCache, list[metrics.LayerReport]]:
    """Run the full-prompt pass, returning logits, the KV cache and reports.

    Every pipeline computes attention through the same restricted path over
    its important set; with the set equal to all tokens that path is the
    dense computation. Tokens outside the set get a zero attention output,
    which the no-bias output projection keeps exactly zero, so their
    residual stream passes through the attention sublayer unchanged. Mode
    dense computes no scores; its trace entries carry None for accumulated
    and normalized.
    """
    config = model.config
    policy.validate()
    tokens = _check_tokens(tokens, config)
    n = tokens.size
    d_head = config.d_head
    scale = 1.0 / np.sqrt(d_head)
    h = model.embedding[tokens]
    cache = kvcache.KVCache(config.layers, config.heads, d_head)
    reports: list[metrics.LayerReport] = []
    for layer, lw in enumerate(model.layers):
        h_before = h
        # (n, 3d) -> (3, heads, n, d_head) views: q, k and v split by head
        qkv = _rms_norm(h) @ lw.wqkv
        q, k, v = qkv.reshape(n, 3, config.heads, d_head).transpose(1, 2, 0, 3)

        if policy.mode == "dense":
            acc, norm, probe_rows = None, None, 0
        else:
            acc, norm, probe_rows = _token_scores(q, k, scale, policy, config.seed, layer)
        imp, retained_mass = budget.plan_layer(policy, n, acc, norm)

        attn = np.zeros((config.heads, n, d_head), dtype=np.float32)
        for i in range(config.heads):
            attn[i, imp, :] = attention.restricted_attention(q[i], k[i], v[i], scale, imp)
        proj = attn.transpose(1, 0, 2).reshape(n, config.d_model) @ lw.wo
        h = h + proj
        h_after_attn = h
        h = h + _silu(_rms_norm(h) @ lw.w_up) @ lw.w_down

        cache.set_layer(layer, k, v, np.arange(n, dtype=np.int64))
        if policy.quantize:
            kv_bytes = kvcache.quantize_mixed(cache, layer, imp)
        else:
            kv_bytes = metrics.kv_bytes(cache.retain(layer, imp).rows(layer), d_head, config.heads)
        reports.append(
            metrics.layer_report(
                layer=layer, n=n, p=int(imp.size), retained_mass=retained_mass,
                d_head=d_head, heads=config.heads, probe_rows=probe_rows,
                kv_rows=cache.rows(layer), kv_bytes=kv_bytes,
            )
        )
        if trace is not None:
            trace.append(
                {
                    "layer": layer,
                    "h_before": h_before.copy(),
                    "h_after_attn": h_after_attn.copy(),
                    "important": imp,
                    "accumulated": None if acc is None else acc.copy(),
                    "normalized": None if norm is None else norm.copy(),
                    "probe_rows": probe_rows,
                }
            )

    return h @ model.embedding.T, cache, reports


def decode_step(
    model: TinyTransformer, token: int, cache: kvcache.KVCache, position: int
) -> tuple[np.ndarray, kvcache.KVCache]:
    """One autoregressive step: append K/V everywhere, attend to the cache."""
    config = model.config
    if not 0 <= token < config.vocab_size:
        raise VocabError(f"token id {token} outside vocabulary")
    qkv_shape = (3, config.heads, config.d_head)
    scale = np.float32(1.0 / np.sqrt(config.d_head))
    h = model.embedding[int(token)]
    for layer, lw in enumerate(model.layers):
        q, k, v = (_rms_norm(h) @ lw.wqkv).reshape(qkv_shape)
        cache.append(layer, k, v, position)
        logits = (cache.keys[layer] @ q[:, :, None])[:, :, 0]
        logits *= scale
        weights = numkit.masked_softmax_rows(logits, None)
        out = (weights[:, None, :] @ cache.values[layer])[:, 0, :]
        h = h + out.reshape(config.d_model) @ lw.wo
        h = h + _silu(_rms_norm(h) @ lw.w_up) @ lw.w_down
    return h @ model.embedding.T, cache


def decode(
    model: TinyTransformer,
    prompt: np.ndarray,
    prefilled: tuple[np.ndarray, kvcache.KVCache, list[metrics.LayerReport]],
    steps: int,
    policy: SparsityPolicy,
) -> tuple[list[int], metrics.RunReport]:
    """`steps` greedy decode steps on from prefill's result; returns all tokens plus a report.

    Raises BoundsError before the first step when prompt + steps exceeds max_seq.
    """
    check_length(np.size(prompt), steps, model.config.max_seq)
    prompt = _check_tokens(prompt, model.config)
    logits, cache, reports = prefilled
    tokens = [int(t) for t in prompt]
    cur = logits[-1]
    for step in range(steps):
        nxt = int(np.argmax(cur))
        tokens.append(nxt)
        cur, cache = decode_step(model, nxt, cache, position=prompt.size + step)
    report = metrics.build_run_report(
        policy=policy,
        layer_reports=reports,
        d_head=model.config.d_head,
        heads=model.config.heads,
        generated=tokens[prompt.size :],
    )
    return tokens, report


def generate(
    model: TinyTransformer,
    prompt: np.ndarray,
    steps: int,
    policy: SparsityPolicy,
) -> tuple[list[int], metrics.RunReport]:
    """Prefill then `steps` greedy decode steps; returns all tokens plus a report."""
    return decode(model, prompt, prefill(model, prompt, policy), steps, policy)
