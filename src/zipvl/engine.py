"""Tiny deterministic multi-layer causal transformer with pluggable sparsity.

The model is pre-norm with gainless RMS norms, a 2-layer SiLU MLP, no
biases, no positional embedding (position enters only through the causal
mask), and an output head tied to the token embedding. Weights are drawn
from a seeded generator in a fixed order, so a config reproduces the model
bit-exactly.

ModelConfig and SparsityPolicy check themselves when built, by the
constructor or dataclasses.replace: an invalid one raises ConfigError and
never exists, so no reader checks one again.

Four attention pipelines share one code path:
  dense        full attention, nothing evicted
  zipvl-exact  adaptive budget from full attention scores
  zipvl-probe  adaptive budget from weighted probe-row estimates of the scores
  fixed        constant retention ratio across layers

Per layer the prefill pass hands budget.plan_layer a callback that scores
the layer's tokens, and gets back one LayerPlan: the important set, chosen
by the policy's mode and knobs (in mode dense every token, with no scores
computed). It then computes attention only among that set (everything
else receives a zero attention output and rides the residual stream), and
caches K/V for the important tokens only; with quantize it caches every
token instead, at 4 bits if important and 2 if not, quantized as the
layer is written. The layer's report and trace entry both read the plan.
Decode appends unconditionally and attends to the whole cache, up to
max_seq positions.
"""

from __future__ import annotations

import functools
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

    def __post_init__(self) -> None:
        if min(self.layers, self.heads, self.d_model, self.vocab_size, self.max_seq) < 1:
            raise ConfigError("all model dimensions must be >= 1")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by heads={self.heads}")


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

    def __post_init__(self) -> None:
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
    """x * f / (1 + e) with e = exp(-|x|), f = 1 where x >= 0 and e elsewhere.

    exp(-|x|) never overflows: x / (1 + e^-x) for x >= 0, x e^x / (1 + e^x)
    below. f is one np.maximum of e against the sign mask, since e <= 1
    (a NaN x has a NaN e, which maximum keeps), so no select on the
    unpredictable sign runs; then x * f, 1 + e and the quotient are made in
    place. x stays the first operand of the product: with it second, NaN
    payloads come out differently. The bits equal those of
    np.where(x >= 0, x, x * e) / (1 + e) on all 2^32 float32 patterns.
    e is formed in place, |x| negated and exponentiated in one array.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    f = np.maximum(e, x >= 0, dtype=np.float32)
    np.multiply(x, f, out=f)
    e += 1.0
    f /= e
    return f


def check_steps(steps: int) -> None:
    """BoundsError unless steps >= 0."""
    if steps < 0:
        raise BoundsError("steps must be >= 0")


def check_length(n: int, steps: int, max_seq: int) -> None:
    """BoundsError unless steps >= 0 and an n-token prompt plus its steps fits max_seq."""
    check_steps(steps)
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
    q: np.ndarray, k: np.ndarray, scale: float, probe: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray]:
    """A layer's head-mean accumulated and normalized scores: budget.plan_layer's score callback.

    probe=None scores every row; else probe is the (rows, weights) pair of
    attention.select_probe_set, and only those rows are scored, each with
    its weight. The layer's stacked heads are scored in one call, whose
    record holds the float64 mean of the heads' column masses and the
    visible-row counts, which every head shares since every head scores the
    same rows; both statistics are read from it once.
    """
    if probe is None:
        scores = attention.causal_scores(q, k, scale)
    else:
        scores = attention.probe_attention(q, probe[0], k, scale, probe[1])
    return attention.accumulated_scores(scores), attention.normalized_scores(scores)


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
    residual stream passes through the attention sublayer unchanged.
    budget.plan_layer reads the policy's knobs and scores each layer
    through _token_scores; prefill itself reads only quantize. A layer's
    report and its trace entry both come from its budget.LayerPlan: the
    entry is the layer, its residual stream before and after attention,
    and the plan's fields (None scores in mode dense). It holds the layer's
    own arrays, not copies: nothing writes to them after the entry takes
    them.
    """
    config = model.config
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

        score = functools.partial(_token_scores, q, k, scale)
        plan = budget.plan_layer(policy, n, score, numkit.derive_seed(config.seed, layer))
        imp = plan.important

        attn = np.zeros((config.heads, n, d_head), dtype=np.float32)
        attn[:, imp, :] = attention.restricted_attention(q, k, v, scale, imp)
        proj = attn.transpose(1, 0, 2).reshape(n, config.d_model) @ lw.wo
        h = h + proj
        h_after_attn = h
        h = h + _silu(_rms_norm(h) @ lw.w_up) @ lw.w_down

        cache.set_layer(layer, k, v)
        if policy.quantize:
            kv_bytes = kvcache.quantize_mixed(cache, layer, imp)
        else:
            kv_bytes = metrics.kv_bytes(cache.retain(layer, imp).rows(layer), d_head, config.heads)
        reports.append(
            metrics.layer_report(layer, n, plan, d_head, config.heads, cache.rows(layer), kv_bytes)
        )
        if trace is not None:
            trace.append(
                {"layer": layer, "h_before": h_before, "h_after_attn": h_after_attn, **vars(plan)}
            )

    return h @ model.embedding.T, cache, reports


def decode_step(
    model: TinyTransformer, token: int, cache: kvcache.KVCache, position: int
) -> tuple[np.ndarray, kvcache.KVCache]:
    """One autoregressive step: append K/V everywhere, attend to the cache.

    `position` is the token's place in the sequence. A token id outside the
    vocabulary is a VocabError and a position outside [0, max_seq) a
    BoundsError, both raised before any layer's cache changes.
    """
    config = model.config
    if not 0 <= token < config.vocab_size:
        raise VocabError(f"token id {token} outside vocabulary")
    if not 0 <= position < config.max_seq:
        raise BoundsError(f"position {position} outside [0, max_seq={config.max_seq})")
    qkv_shape = (3, config.heads, config.d_head)
    scale = np.float32(1.0 / np.sqrt(config.d_head))
    h = model.embedding[int(token)]
    for layer, lw in enumerate(model.layers):
        q, k, v = (_rms_norm(h) @ lw.wqkv).reshape(qkv_shape)
        cache.append(layer, k, v)
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
