"""Slow reference implementations the fast paths are checked against.

Everything here favors obviousness over speed: python loops, python floats,
no vectorized shortcuts shared with the code under test.
"""

import math

import numpy as np


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


def group_quantization_bound(x, bits: int, group_size: int) -> float:
    """Largest allowed reconstruction error over channel groups of x rows."""
    x = np.asarray(x, dtype=np.float64)
    worst = 0.0
    d = x.shape[-1]
    flat = x.reshape(-1, d)
    for row in flat:
        for start in range(0, d, group_size):
            g = row[start : start + group_size]
            half_step = (g.max() - g.min()) / (2 * (2**bits - 1))
            worst = max(worst, half_step)
    return worst


def group_fake_quantize(x, bits_per_row, group_size: int) -> np.ndarray:
    """Quantize then dequantize (heads, rows, d) values one row and group at a time.

    A group maps onto 2^bits - 1 even steps from its min to its max, codes
    round half to even, and the scale and zero-point are stored as float32.
    """
    x = np.asarray(x, dtype=np.float32)
    out = np.empty(x.shape, dtype=np.float32)
    for h in range(x.shape[0]):
        for r, bits in enumerate(bits_per_row):
            levels = 2 ** int(bits) - 1
            for start in range(0, x.shape[-1], group_size):
                g = [float(v) for v in x[h, r, start : start + group_size]]
                lo = min(g)
                scale = (max(g) - lo) / levels
                codes = [min(max(round((v - lo) / scale), 0), levels) if scale > 0 else 0 for v in g]
                scale32, lo32 = float(np.float32(scale)), float(np.float32(lo))
                out[h, r, start : start + group_size] = [c * scale32 + lo32 for c in codes]
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
