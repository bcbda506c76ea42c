"""Slow reference implementations the fast paths are checked against.

Everything here favors obviousness over speed: python loops, python floats,
no vectorized shortcuts shared with the code under test. The matrix forms
of scoring and restricted attention are the exception: causal_exp_rows
stacks the float32 blocks of numkit.causal_exp_blocks into one (rows, n)
matrix, and causal_softmax_rows divides it by its row sums in float64,
which the naive loops and the float64 softmax oracle (causal_softmax_f64)
check. The blocked column sums are checked against that matrix's column
sums within a float64 summation-order bound (summation_order_tol), and the
blocked outputs against its one whole-matrix product bit for bit.
"""

import math

import numpy as np

from zipvl import attention, numkit
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


def causal_exp_rows(q_rows, k, scale, row_positions) -> tuple[np.ndarray, np.ndarray]:
    """The numkit.causal_exp_blocks blocks stacked into one float32 (rows, n) matrix.

    Each block's columns past its width are 0.0. Also returns each row's
    float32 sum, taken over its own block as numkit.causal_column_mass
    takes it.
    """
    q_rows = numkit.as_matrix(q_rows)
    out = np.zeros((q_rows.shape[0], np.shape(k)[0]), dtype=np.float32)
    sums = np.zeros(q_rows.shape[0], dtype=np.float32)
    for r0, e in numkit.causal_exp_blocks(q_rows, k, scale, row_positions):
        out[r0 : r0 + e.shape[0], : e.shape[1]] = e
        sums[r0 : r0 + e.shape[0]] = e.sum(axis=1)
    return out, sums


def causal_softmax_rows(q_rows, k, scale, row_positions) -> np.ndarray:
    """Float64 (rows, n) causal weights: causal_exp_rows divided by its row sums in float64."""
    e, sums = causal_exp_rows(q_rows, k, scale, row_positions)
    return e / sums.astype(np.float64)[:, None]


def causal_softmax_rows_f32(q_rows, k, scale, row_positions) -> np.ndarray:
    """Float32 causal weights: causal_exp_rows divided by its row sums in float32.

    Each weight is rounded to float32, as when each block was normalized
    in place; column_mass_row_order_f32 sums them.
    """
    e, sums = causal_exp_rows(q_rows, k, scale, row_positions)
    return e / sums[:, None]


def logit_bound(q_rows, k, scale) -> np.ndarray:
    """Per head, the float64 Cauchy-Schwarz bound |scale| max_r |q_r| max_j |k_j| on |logit|.

    numkit.causal_exp_blocks exponentiates a head's logits without the
    row-max shift when this is at most numkit.SHIFT_FREE_BOUND.
    """
    q_norm, k_norm = (
        np.sqrt(np.square(np.asarray(a, np.float64)).sum(axis=-1)).max(axis=-1) for a in (q_rows, k)
    )
    return abs(float(scale)) * q_norm * k_norm


def masked_block_logits(q_rows, k, scale, row_positions) -> np.ndarray:
    """The float32 logits numkit.causal_exp_blocks exponentiates for one head's block of rows.

    (q_rows @ k[:hi].T) * scale, hi one past the last row's position, with
    -inf where a column lies past its row's position.
    """
    q_rows, k = numkit.as_matrix(q_rows), numkit.as_matrix(k)
    hi = int(row_positions[-1]) + 1
    logits = (q_rows @ k[:hi].T) * np.float32(scale)
    logits[~causal_row_mask(row_positions, hi)] = -np.inf
    return logits


def summation_order_tol(mass, rows) -> np.ndarray:
    """Per column, how far two float64 sums of the same `rows` nonnegative terms can differ.

    Each order's relative error is at most (rows - 1) * 2^-53, and the
    terms may be formed as (e * c) or (e / s) * w, a rounding or two apart;
    4 * rows * 2^-53 of the sum covers both orders. Measured worst over the
    column-mass tests: 1.94 * rows * 2^-53.
    """
    return 4 * rows * 2.0**-53 * np.asarray(mass, dtype=np.float64)


def causal_softmax_f64(q_rows, k, scale, row_positions) -> np.ndarray:
    """The float64 causal softmax: softmax_rows_masked over one (rows, n) logit product.

    The logits are (q_rows @ k.T) * scale in float32, as the kernel forms
    them, masked by causal_row_mask; the softmax runs in float64 and
    rounds each weight to float32 once.
    """
    q_rows, k = numkit.as_matrix(q_rows), numkit.as_matrix(k)
    logits = (q_rows @ k.T) * np.float32(scale)
    return softmax_rows_masked(logits, causal_row_mask(row_positions, k.shape[0]))


def column_mass_f64(q_rows, k, scale, row_positions, row_weights=None) -> np.ndarray:
    """numkit.causal_column_mass with the float64 causal softmax oracle's weights."""
    return column_mass_from_matrix(q_rows, k, scale, row_positions, row_weights, causal_softmax_f64)


def causal_score_matrix(q, k, scale, row_positions=None) -> np.ndarray:
    """Float64 causal weights of the chosen query rows against all keys, one row per position.

    The rows are gathered into a contiguous array as attention.causal_scores
    gathers them; row_positions=None means every row.
    """
    q = np.asarray(q, dtype=np.float32)
    pos = np.arange(q.shape[0]) if row_positions is None else np.asarray(row_positions, np.int64)
    return causal_softmax_rows(np.ascontiguousarray(q[pos]), k, scale, pos)


def column_mass_from_matrix(
    q_rows, k, scale, row_positions, row_weights=None, softmax=causal_softmax_rows
) -> np.ndarray:
    """numkit.causal_column_mass through the whole (rows, n) weight matrix of `softmax`.

    With row_weights, each widened row is multiplied by its weight before
    the column sums, which add the rows in order. Stacked (heads, rows, d)
    queries and keys give one row of sums per head, each from its own 2-D
    call.
    """
    if np.ndim(q_rows) == 3:
        return np.stack(
            [
                column_mass_from_matrix(qh, kh, scale, row_positions, row_weights, softmax)
                for qh, kh in zip(q_rows, k)
            ]
        )
    weights = softmax(q_rows, k, scale, row_positions).astype(np.float64)
    if row_weights is not None:
        weights *= np.asarray(row_weights, np.float64)[:, None]
    return weights.sum(axis=0)


def column_mass_row_order_f32(q_rows, k, scale, row_positions, row_weights=None) -> np.ndarray:
    """The column mass of float32-rounded weights, added in row order.

    numkit.causal_column_mass summed these while the kernel still divided
    its weights by the row sums; the budget tests check that the float64
    mass of e / s sizes the same budgets.
    """
    return column_mass_from_matrix(
        q_rows, k, scale, row_positions, row_weights, causal_softmax_rows_f32
    )


def weighted_visible_counts(row_positions, row_weights, n_cols) -> np.ndarray:
    """Per column, the python-float sum of the weights of the rows that see it.

    Row c sees column j iff row_positions[c] >= j; the weights are added
    from the last row back.
    """
    rows = list(zip((int(p) for p in row_positions), (float(w) for w in row_weights)))
    out = np.zeros(n_cols)
    for j in range(n_cols):
        acc = 0.0
        for pos, w in reversed(rows):
            if pos >= j:
                acc += w
        out[j] = acc
    return out


def head_averaged_scores(q, k, scale, probe):
    """engine._token_scores through one record per head, averaged statistic by statistic.

    probe is None or the (rows, weights) pair budget.plan_layer passes.
    Each head's float32 accumulated and normalized scores are formed from
    its own record, the normalized ones with the head's visible-row counts,
    and each statistic's float64 mean over the heads is cast to float32.
    """
    n, heads = k.shape[1], k.shape[0]
    if probe is None:
        per_head = [attention.causal_scores(q[i], k[i], scale) for i in range(heads)]
    else:
        rows, w = probe
        per_head = [attention.probe_attention(q[i], rows, k[i], scale, w) for i in range(heads)]
    acc, norm = [], []
    for head in per_head:
        acc.append(head.mass.astype(np.float32))
        seen = head.visible > 0
        norm.append(np.zeros(n, dtype=np.float32))
        norm[-1][seen] = acc[-1][seen] / head.visible[seen]
    return (
        np.mean(acc, axis=0, dtype=np.float64).astype(np.float32),
        np.mean(norm, axis=0, dtype=np.float64).astype(np.float32),
    )


def kept_mass_share(q, k, scale, kept) -> float:
    """Share of the exact column mass of every causal row that the kept tokens hold.

    q and k are (n, d) for one head or (heads, n, d); the heads' column
    masses are averaged, as the engine averages its scores. This is the
    true mass of a kept set, whatever scores chose it.
    """
    q = np.asarray(q, dtype=np.float32)
    k = np.asarray(k, dtype=np.float32)
    if q.ndim == 2:
        q, k = q[None], k[None]
    mass = np.mean(
        [causal_score_matrix(qh, kh, scale).sum(axis=0, dtype=np.float64) for qh, kh in zip(q, k)],
        axis=0,
    )
    return float(mass[np.asarray(kept, dtype=np.int64)].sum() / mass.sum())


def restricted_attention_weights(q, k, v, scale, indices):
    """(outputs, weights) of attention among `indices`, in subset order.

    The float32 p x p exponentials of causal_exp_rows over subset positions
    multiply [v | 1] in one product, and the outputs are its value columns
    divided by its last; the weights are the exponentials divided by the
    same sums, in float64. attention.restricted_attention returns only the
    outputs, one block of rows at a time.
    """
    idx = np.asarray(indices, dtype=np.int64)
    q_s, k_s, v_s = (np.ascontiguousarray(np.asarray(a, np.float32)[idx]) for a in (q, k, v))
    e, _ = causal_exp_rows(q_s, k_s, scale, np.arange(idx.size))
    prod = e @ np.hstack([v_s, np.ones((idx.size, 1), np.float32)])
    sums = prod[:, -1:]
    return prod[:, :-1] / sums, e / sums.astype(np.float64)


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
    Not a bitwise oracle for NaN payloads: numpy's float32 multiply keeps
    its first NaN operand in full SIMD lanes but may keep the other in a
    loop's partial last lanes, and the boolean gathers here put a NaN input
    in another lane than engine._silu does. Its NaN outputs can then carry
    another payload (seen at the end of one chunk of the 2^32 sweep).
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


def causal_row_mask(row_positions, n_cols) -> np.ndarray:
    """Boolean visibility mask: row r sees columns 0..row_positions[r]."""
    pos = np.asarray(row_positions, dtype=np.int64)
    return np.arange(n_cols)[None, :] <= pos[:, None]


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


def softmax_rows_f32(logits, mask=None) -> np.ndarray:
    """Float32 row softmax over visible columns, one row at a time.

    Each row is copied into a new array with -inf where masked (mask=None
    masks nothing), shifted by its max into another new array,
    exponentiated, and divided by its float32 sum, all in float32. Masked
    entries come out exactly 0.0. A mask of another shape is a ShapeError,
    a row with no visible column a DegenerateMaskError.
    """
    logits = numkit.as_matrix(logits)
    mask = np.ones(logits.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != logits.shape:
        raise ShapeError(f"mask shape {mask.shape} != logits shape {logits.shape}")
    if not mask.any(axis=1).all():
        raise DegenerateMaskError(f"row {int(np.argmin(mask.any(axis=1)))} has no visible column")
    out = np.empty(logits.shape, dtype=np.float32)
    for r, (row, visible) in enumerate(zip(logits, mask)):
        x = np.where(visible, row, np.float32(-np.inf))
        e = np.exp(x - x.max())
        out[r] = e / e.sum()
    return out


def decode_step_reference(model, token, cache, softmax=softmax_rows_f32) -> np.ndarray:
    """One decode step with separate q, k and v products and one head at a time.

    wq, wk and wv are copied out of the model's wqkv, each row's softmax
    masks nothing, and the norm and SiLU are the np.mean and two-branch
    forms above. `softmax(logits, mask)` weighs one head's (1, rows)
    logits: the float32 softmax_rows_f32 by default, or the float64
    softmax_rows_masked for a decode that checks accuracy. Appends to
    `cache` like the engine does; returns the logits.
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
        cache.append(layer, k, v)
        keys, values = cache.keys[layer], cache.values[layer]
        out = np.empty((heads, d_head), dtype=np.float32)
        for i in range(heads):
            logits = ((keys[i] @ q[i]) * scale)[None, :]
            out[i] = softmax(logits, np.ones(logits.shape, dtype=bool))[0] @ values[i]
        h = h + out.reshape(d) @ lw.wo
        h = h + silu_two_branch(rms_norm_mean(h) @ lw.w_up) @ lw.w_down
    return (h @ model.embedding.T).astype(np.float32)
