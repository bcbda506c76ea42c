"""Slow reference implementations the fast paths are checked against.

Everything here favors obviousness over speed: python loops, python floats,
no vectorized shortcuts shared with the code under test. The matrix forms
of scoring and restricted attention are the exception: they build the whole
weight matrix with numkit.causal_softmax_rows, which the naive loops check,
so the blocked column sums can be checked against it bit for bit.
"""

import math

import numpy as np

from zipvl import numkit
from zipvl.errors import DegenerateMaskError, ShapeError


def budget_oracle(values, tau, mass_total) -> int:
    """Smallest p whose p largest values sum to at least tau * mass_total.

    Accumulates python floats one at a time over the descending sort, which
    is exactly the arithmetic the fast path must reproduce. tau=1.0 means
    full retention outright; a threshold race against mass_total computed
    in a different summation order would be meaningless there.
    """
    ordered = sorted((float(x) for x in values), reverse=True)
    if tau == 1.0:
        return len(ordered)
    threshold = float(tau) * float(mass_total)
    cum = 0.0
    for p, x in enumerate(ordered, start=1):
        cum += x
        if cum >= threshold:
            return p
    return len(ordered)


def topk_oracle(values, k) -> list:
    """Indices of the k largest values; ties go to the smaller index."""
    order = sorted(range(len(values)), key=lambda i: (-float(values[i]), i))
    return sorted(order[:k])


def topk_argsort(values, k) -> np.ndarray:
    """Indices of the k largest values by a full stable sort of the float64 negation.

    NaN negates to NaN, which argsort places last.
    """
    order = np.argsort(-np.asarray(values).astype(np.float64), kind="stable")
    return np.sort(order[:k])


def write_workload_csv_rowwise(fh, scores) -> None:
    """A workload CSV written one f-string row at a time."""
    fh.write("layer,token,score\n")
    for layer, row in enumerate(np.asarray(scores, dtype=np.float32).tolist()):
        fh.writelines(f"{layer},{token},{v!r}\n" for token, v in enumerate(row))


def naive_causal_attention(q, k, v, scale):
    """Row-at-a-time float64 causal softmax attention.

    Returns (outputs, weights) with weights[i, j] = 0 for j > i.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n = q.shape[0]
    weights = np.zeros((n, n))
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        logits = [float(q[i] @ k[j]) * scale for j in range(i + 1)]
        m = max(logits)
        e = [math.exp(x - m) for x in logits]
        s = sum(e)
        for j in range(i + 1):
            weights[i, j] = e[j] / s
            out[i] += weights[i, j] * v[j]
    return out, weights


def causal_score_matrix(q, k, scale, row_positions=None) -> np.ndarray:
    """Float32 causal weights of the chosen query rows against all keys, one row per position.

    The rows are gathered into a contiguous array as attention.causal_scores
    gathers them; row_positions=None means every row.
    """
    q = np.asarray(q, dtype=np.float32)
    pos = np.arange(q.shape[0]) if row_positions is None else np.asarray(row_positions, np.int64)
    return numkit.causal_softmax_rows(np.ascontiguousarray(q[pos]), k, scale, pos)


def column_mass_from_matrix(q_rows, k, scale, row_positions) -> np.ndarray:
    """numkit.causal_column_mass through the whole (rows, n) weight matrix."""
    return numkit.causal_softmax_rows(q_rows, k, scale, row_positions).sum(axis=0, dtype=np.float64)


def restricted_attention_weights(q, k, v, scale, indices):
    """(outputs, weights) of attention among `indices`, in subset order.

    The p x p weights are numkit.causal_softmax_rows over subset positions,
    and the outputs one `weights @ v` product, as in
    attention.restricted_attention, which returns only the outputs.
    """
    idx = np.asarray(indices, dtype=np.int64)
    q_s, k_s, v_s = (np.ascontiguousarray(np.asarray(a, np.float32)[idx]) for a in (q, k, v))
    weights = numkit.causal_softmax_rows(q_s, k_s, scale, np.arange(idx.size))
    return weights @ v_s, weights


def naive_restricted_attention(q, k, v, scale, indices):
    """Attention among `indices` only, causality by original position."""
    idx = list(int(i) for i in indices)
    out = np.zeros((len(idx), v.shape[1]))
    weights = np.zeros((len(idx), len(idx)))
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    for a, i in enumerate(idx):
        visible = [b for b, j in enumerate(idx) if j <= i]
        logits = [float(q[i] @ k[idx[b]]) * scale for b in visible]
        m = max(logits)
        e = [math.exp(x - m) for x in logits]
        s = sum(e)
        for b, eb in zip(visible, e):
            weights[a, b] = eb / s
            out[a] += weights[a, b] * v[idx[b]]
    return out, weights


def row_quantization_bound(x, bits: int) -> float:
    """Largest allowed reconstruction error over the head rows of x: half a step."""
    x = np.asarray(x, dtype=np.float64)
    worst = 0.0
    for row in x.reshape(-1, x.shape[-1]):
        worst = max(worst, (row.max() - row.min()) / (2 * (2**bits - 1)))
    return worst


def row_fake_quantize(x, bits_per_row) -> np.ndarray:
    """Quantize then dequantize (heads, rows, d) values one head row at a time.

    A row maps onto 2^bits - 1 even steps from its min to its max, codes
    round half to even, and the scale and zero-point are stored as float32.
    """
    x = np.asarray(x, dtype=np.float32)
    out = np.empty(x.shape, dtype=np.float32)
    for h in range(x.shape[0]):
        for r, bits in enumerate(bits_per_row):
            levels = 2 ** int(bits) - 1
            row = [float(v) for v in x[h, r]]
            lo = min(row)
            scale = (max(row) - lo) / levels
            codes = [min(max(round((v - lo) / scale), 0), levels) if scale > 0 else 0 for v in row]
            scale32, lo32 = float(np.float32(scale)), float(np.float32(lo))
            out[h, r] = [c * scale32 + lo32 for c in codes]
    return out


def accumulated_oracle(weights) -> np.ndarray:
    """Column sums of an attention weight matrix, python accumulation."""
    w = np.asarray(weights, dtype=np.float64)
    out = np.zeros(w.shape[1])
    for j in range(w.shape[1]):
        acc = 0.0
        for i in range(w.shape[0]):
            acc += float(w[i, j])
        out[j] = acc
    return out


def silu_two_branch(x) -> np.ndarray:
    """SiLU computed per sign on boolean-gathered copies, exp only of -|x|.

    x / (1 + exp(-x)) where x >= 0, x * exp(x) / (1 + exp(x)) elsewhere.
    """
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = x[pos] / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = x[~pos] * ex / (1.0 + ex)
    return out


def rms_norm_mean(x, eps=1e-5) -> np.ndarray:
    """RMS norm through np.mean, then a float32 astype copy."""
    scale = 1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + np.float32(eps))
    return (x * scale).astype(np.float32)


def softmax_rows_masked(logits, mask) -> np.ndarray:
    """Row softmax over visible columns: a float64 copy with -inf where masked,
    shifted by the row max, exponentiated into a new array, divided by the row
    sum and cast to float32. Masked entries come out exactly 0.0. A mask of
    another shape is a ShapeError, a row with no visible column a
    DegenerateMaskError."""
    logits = numkit.as_matrix(logits)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.shape:
        raise ShapeError(f"mask shape {mask.shape} != logits shape {logits.shape}")
    visible_per_row = mask.sum(axis=1)
    if np.any(visible_per_row == 0):
        bad = int(np.argmin(visible_per_row))
        raise DegenerateMaskError(f"row {bad} has no visible column")
    shifted = np.where(mask, logits.astype(np.float64), -np.inf)
    shifted -= shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def decode_step_reference(model, token, cache, position) -> np.ndarray:
    """One decode step with separate q, k and v products and one head at a time.

    wq, wk and wv are copied out of the model's wqkv, each row's softmax
    masks nothing, and the norm and SiLU are the np.mean and two-branch
    forms above. Appends to `cache` like the engine does; returns the logits.
    """
    config = model.config
    d, heads, d_head = config.d_model, config.heads, config.d_head
    scale = np.float32(1.0 / np.sqrt(d_head))
    h = model.embedding[int(token)]
    for layer, lw in enumerate(model.layers):
        wq, wk, wv = (np.ascontiguousarray(lw.wqkv[:, i * d : (i + 1) * d]) for i in range(3))
        x = rms_norm_mean(h)
        q = (x @ wq).reshape(heads, d_head)
        k = (x @ wk).reshape(heads, d_head)
        v = (x @ wv).reshape(heads, d_head)
        cache.append(layer, k, v, position)
        keys, values = cache.keys[layer], cache.values[layer]
        out = np.empty((heads, d_head), dtype=np.float32)
        for i in range(heads):
            logits = ((keys[i] @ q[i]) * scale)[None, :]
            out[i] = softmax_rows_masked(logits, np.ones(logits.shape, dtype=bool))[0] @ values[i]
        h = h + out.reshape(d) @ lw.wo
        h = h + silu_two_branch(rms_norm_mean(h) @ lw.w_up) @ lw.w_down
    return (h @ model.embedding.T).astype(np.float32)
