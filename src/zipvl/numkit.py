"""Minimal dense numerics shared by every other module.

Matrices are plain numpy float32 arrays in row-major order. The causal
prefill exponentials and their row sums are float32, and so is the
all-visible row softmax of decode, shift, exp, row sum and division alike;
column sums, cumulative sums and the other pure accounting helpers keep
float64.

Randomness comes from numpy's PCG64 bit generator. For a fixed seed and a
fixed numpy version the stream is bit-identical across platforms.

The causal row softmax is one float32 kernel, causal_exp_blocks, which
takes one block of CAUSAL_BLOCK query rows at a time against only the keys
that block can see, so it never builds an n x n array or mask. Its leading
axes are heads: a layer's stacked (heads, rows, d) queries and keys run
through one loop over the blocks, one stacked product per block, and a
2-D argument is one head on the same path. Each block's exponentials are
written into one buffer allocated per call, so a block stays valid only
until the next one is asked for. They are not divided by the row sum: both
consumers scale a product of the block by the row sums instead, as
FlashAttention does, so no pass divides the weights. Nor are they shifted
by the row max, which cancels in that division, unless a head's logits
might leave the range where exp is safe: a head whose Cauchy-Schwarz
bound |scale| max|q_r| max|k_j| exceeds SHIFT_FREE_BOUND, or is NaN,
keeps the shift.
Prefill scoring (causal_column_mass) adds, head by head, the float64
product of each row's weight over its row sum and the widened block to
that head's float64 column sums; restricted attention
(attention.restricted_attention) multiplies each block by the visible
values beside a ones column, and divides the outputs by that column.
Either costs memory linear in n. The tests check the weights e / s against
a float64 masked softmax within a stated tolerance, and each head of a
stacked call against its own 2-D call bit for bit.

index_set is the one check of an index set of rows, such as a layer's
important tokens, that restricted attention and the KV cache share.

All functions here are pure; Rng instances must stay confined to a single
thread.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .errors import BoundsError, DegenerateMaskError, DomainError, OrderingError, ShapeError

FLOAT = np.float32

# rows per block of causal_exp_blocks: of 16 to 256, 64 and 128 were fastest at
# n=1024 and 32 and 64 at n=2048 (bench model prefill, median of 7-9 alternated
# rounds over the four modes, float32, d_head 16, one BLAS thread); 16 was slowest
# at both by 20-30%, and 256 by 15-25%
CAUSAL_BLOCK = 64
# fewest rows in the last block; a shorter tail joins the block before
TAIL_MIN = 16
# a head whose logits all lie within +-SHIFT_FREE_BOUND is exponentiated without the
# row-max shift: e^-32 = 1.3e-14 and e^32 = 7.9e13 are normal float32s (float32 logit
# rounding moves the bound by a few parts in 1e6), so every visible exp is normal and
# positive, and a row sum or e @ [v | 1] overflows only past n * |v| ~ 4e24; the shift
# cancels in the division by the row sums, so only the rounding of the weights changes
SHIFT_FREE_BOUND = 32.0
# relative margin per (d_head + 1) around SHIFT_FREE_BOUND^2 within which the float32
# squared norms cannot vouch for the shift decision (see _shifted_heads): 8 * 2^-24
SHIFT_MARGIN = 8 * 2.0**-24


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; same seed gives the same stream."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(*parts: int) -> int:
    """Mix integer parts into a fresh 64-bit seed, deterministically.

    The part count is mixed in first so a trailing 0 changes the result
    (SeedSequence itself pads entropy with zero words).
    """
    ss = np.random.SeedSequence([len(parts)] + [int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float32 array."""
    m = np.asarray(a, dtype=FLOAT)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def as_stack(a) -> np.ndarray:
    """Coerce to a float32 array of one or more stacked matrices: ndim >= 2, leading axes heads."""
    m = np.asarray(a, dtype=FLOAT)
    if m.ndim < 2:
        raise ShapeError(f"expected a matrix or a stack of matrices, got ndim={m.ndim}")
    return m


def index_set(indices, n: int) -> np.ndarray:
    """`indices` as an int64 index set of n rows: strictly ascending, within [0, n).

    An array that is not strictly ascending raises OrderingError, and one
    with an index outside [0, n) BoundsError, in that order.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if np.any(np.diff(idx) <= 0):
        raise OrderingError("indices must be strictly ascending")
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise BoundsError(f"indices must lie in [0, {n})")
    return idx


def masked_softmax_rows(logits: np.ndarray, mask: None) -> np.ndarray:
    """Row softmax over every column of logits; mask must be None.

    Each row sums to 1, and a -inf logit comes out exactly 0.0. All in
    float32: the logits minus their row max go into a new C-order array,
    so the input is left as it is, which is exponentiated in place and
    divided in place by its float32 row sum. The weights lie within two
    float32 eps of a float64 softmax's (the tests' WEIGHT_TOL). Each row's
    bits depend only on that row, so a stacked (heads, rows) call gives
    each head the bits of its own call. The masked form lives in the tests
    as the oracle softmax_rows_f32, whose mask=None gives these bits; the
    mask argument stays for the callers and tracers that pass it.
    """
    if mask is not None:
        raise TypeError("masked_softmax_rows takes mask=None; every column is visible")
    logits = as_matrix(logits)
    if logits.shape[1] == 0:
        raise DegenerateMaskError("logits have no column")
    # C order whatever the input's layout: each row sum then reduces one contiguous row
    e = np.empty(logits.shape, FLOAT)
    np.subtract(logits, np.maximum.reduce(logits, axis=1, keepdims=True), out=e)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def _check_rows(q_rows, k, row_positions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coerce the operands of a causal row softmax and check the row positions."""
    q_rows, k = as_stack(q_rows), as_stack(k)
    pos = np.asarray(row_positions, dtype=np.int64)
    m, n = q_rows.shape[-2], k.shape[-2]
    if q_rows.shape[:-2] != k.shape[:-2]:
        raise ShapeError(f"query heads {q_rows.shape[:-2]} against key heads {k.shape[:-2]}")
    if pos.shape != (m,):
        raise ShapeError(f"{pos.shape} row positions for {m} query rows")
    if m and (pos[0] < 0 or pos[-1] >= n or np.any(np.diff(pos) < 0)):
        raise BoundsError(f"row positions must ascend within [0, {n})")
    return q_rows, k, pos


def _shifted_heads(q_rows: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """Per head, not (B <= SHIFT_FREE_BOUND), B the float64 bound |scale| max|q_r| max|k_j|.

    The answer is first read off the float32 squared norms: their maxima
    multiplied with scale^2 in float64 give B^2 within a relative
    SHIFT_MARGIN * (d + 1) of it. Each float32 square is a sum of d
    nonnegative rounded products, within (d + 1) * 2^-24 of its own
    value, plus d * 2^-150 where products fall below the normal range,
    which is another 2^-24 * d of a normal maximum; the two factors double
    that, and SHIFT_MARGIN leaves as much again for the float64 steps.
    Only a head whose B^2 lies within that margin of the bound squared,
    whose maximum square is not finite, or whose maximum square is below
    float32's normal range (0 included) gets its float64 norms, so every
    head gets the answer the float64 bound gives.
    """
    scale = abs(float(scale))
    limit = SHIFT_FREE_BOUND * SHIFT_FREE_BOUND
    # a square that overflows, or inf * 0, only sends its head to the float64 norms
    with np.errstate(over="ignore", invalid="ignore"):
        q_sq, k_sq = (
            np.einsum("...nd,...nd->...n", a, a).max(axis=-1, initial=0.0).astype(np.float64)
            for a in (q_rows, k)
        )
        bound_sq = scale * scale * q_sq * k_sq
        sure = np.abs(bound_sq - limit) > SHIFT_MARGIN * (q_rows.shape[-1] + 1) * limit
    for sq in (q_sq, k_sq):
        sure &= (sq >= np.finfo(FLOAT).tiny) & (sq <= np.finfo(FLOAT).max)
    shift = np.asarray(bound_sq > limit)
    unsure = ~sure
    if unsure.any():
        # written as not (bound <= ...) so that NaN keeps the shift
        q_norm, k_norm = (
            np.linalg.norm(a[unsure].astype(np.float64), axis=-1).max(axis=-1, initial=0.0)
            for a in (q_rows, k)
        )
        shift[unsure] = ~(scale * q_norm * k_norm <= SHIFT_FREE_BOUND)
    return shift


def causal_exp_blocks(
    q_rows: np.ndarray, k: np.ndarray, scale: float, row_positions: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Unnormalized causal softmax of (q_rows @ k.T) * scale, one block of rows at a time.

    q_rows is (..., m, d) and k (..., n, d), with the same leading axes, the
    heads; a 2-D pair is one head. Row r sees keys 0..row_positions[r] in
    every head; positions must ascend and lie in [0, n), which is checked
    when the first block is asked for. Yields (r0, e) for each block of
    CAUSAL_BLOCK rows, in order; e is float32 (..., rows, hi), where hi is
    one past the block's last position, so it spans only the keys some row
    of the block can see. e is exactly 0.0 past each row's position, and is
    not divided by its row sum: each consumer scales its product of e by
    the row sums instead. Each block's logits are one stacked product
    against k[..., :hi, :], scaled and exponentiated in place, all in
    float32; each head's rows get the bits its own 2-D product gives.
    Before the exp, column c of row r is set to -inf where
    row_positions[r] < c, a mask made by one int32 np.less.outer of the
    block's positions against its columns past the first row's position
    and broadcast over the heads; consecutive and sparse rows take the same
    path.

    Whether a head is shifted is decided once per call, head by head, from
    the float64 bound B = |scale| max_r |q_r| max_j |k_j| over the rows and
    keys given, which no |logit| of the head exceeds (Cauchy-Schwarz);
    _shifted_heads reads it off float32 squared norms where they vouch for
    the answer, and computes the float64 norms of the other heads. A
    head with B <= SHIFT_FREE_BOUND gets e = exp(logit); any other head,
    NaN and inf bounds included, gets e = exp(logit - row max), so each of
    its rows peaks at exactly 1.0. When only some heads are shifted, the
    others subtract 0.0, which leaves every bit as it is, so each head's
    blocks keep the bits of its own 2-D call.

    e is a C-contiguous view of one flat buffer allocated per call, and it
    is valid only until the next block is asked for: copy it to keep it.

    A tail shorter than TAIL_MIN rows joins the block before it: BLAS
    multiplies a single row with gemv, and for some head sizes a few rows
    with another kernel, which can round the logits differently from the
    rows of a larger product.
    """
    q_rows, k, pos = _check_rows(q_rows, k, row_positions)
    shift = _shifted_heads(q_rows, k, scale)
    any_shift = bool(shift.any())
    starts = list(range(0, pos.size, CAUSAL_BLOCK))
    if len(starts) > 1 and pos.size - starts[-1] < TAIL_MIN:
        starts.pop()
    # int32 positions and columns: a comparison of int32s costs under half of int64's
    pos32, cols = pos.astype(np.int32), np.arange(k.shape[-2], dtype=np.int32)
    lead, kt = q_rows.shape[:-2], k.swapaxes(-1, -2)
    buf = np.empty(math.prod(lead) * min(pos.size, CAUSAL_BLOCK + TAIL_MIN - 1) * cols.size, FLOAT)
    for r0, r1 in zip(starts, starts[1:] + [pos.size]):
        lo, hi = int(pos[r0]) + 1, int(pos[r1 - 1]) + 1
        shape = (*lead, r1 - r0, hi)
        e = buf[: math.prod(shape)].reshape(shape)
        np.matmul(q_rows[..., r0:r1, :], kt[..., :hi], out=e)
        e *= FLOAT(scale)
        np.copyto(e[..., lo:], -np.inf, where=np.less.outer(pos32[r0:r1], cols[lo:hi]))
        if any_shift:
            row_max = e.max(axis=-1, keepdims=True)
            row_max[~shift] = 0.0  # x - 0.0 is x, bit for bit: those heads stay unshifted
            e -= row_max
        np.exp(e, out=e)
        yield r0, e


def causal_column_mass(
    q_rows: np.ndarray,
    k: np.ndarray,
    scale: float,
    row_positions: np.ndarray,
    row_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Float64 column sums of the causal softmax weights of q_rows against k, per head.

    q_rows is (..., m, d) and k (..., n, d), as causal_exp_blocks takes
    them; the sums are (..., n), one row per head. Row r's weights are
    e / s, e its causal_exp_blocks row and s the float32 sum of e; with
    row_weights, one float64 weight per row shared by every head, each
    row's weights are also multiplied by its row weight (1.0 without
    them); a row-max shift, where a head has one, cancels in e / s. Each
    block forms c = row weight / s in float64; then, head by head, it
    widens the head's e into one reused float64 (block, n) buffer and adds
    c @ e to that head's sums, so no weight is rounded to float32, only one
    block of rows is ever held, and each head's sums have the bits of its
    own 2-D call. The sums differ from the float64 column sums of
    the stacked e / s matrix only by float64 summation order.
    """
    q_rows, k = as_stack(q_rows), as_stack(k)
    m, n = q_rows.shape[-2], k.shape[-2]
    row_weights = np.ones(m) if row_weights is None else np.asarray(row_weights, np.float64)
    if row_weights.shape != (m,):
        raise ShapeError(f"{row_weights.shape} row weights for {m} query rows")
    mass = np.zeros((*q_rows.shape[:-2], n), dtype=np.float64)
    buf = np.empty((min(m, CAUSAL_BLOCK + TAIL_MIN - 1), n), dtype=np.float64)
    for r0, e in causal_exp_blocks(q_rows, k, scale, row_positions):
        size, hi = e.shape[-2:]
        c = row_weights[r0 : r0 + size] / e.sum(axis=-1)
        rows = buf[:size, :hi]
        for head_mass, head_c, head_e in zip(
            mass.reshape(-1, n), c.reshape(-1, size), e.reshape(-1, size, hi)
        ):
            rows[...] = head_e
            head_mass[:hi] += head_c @ rows
    return mass


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values, sorted ascending.

    Ties are broken toward the smaller index, and values compare as float64,
    so integers that round to the same float64 tie. NaN ranks below -inf.
    The k-th largest value comes from a partition, not a full sort: every
    value above it is kept, then the tied values with the smallest indices
    until k are kept.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError("topk_indices expects a 1-D vector")
    if not 1 <= k <= v.size:
        raise BoundsError(f"k={k} out of range for length {v.size}")
    if np.isnan(v).any():  # partition ranks NaN above every number; argsort of -v ranks it last
        return np.sort(np.argsort(-v, kind="stable")[:k])
    kth = np.partition(v, v.size - k)[v.size - k]
    keep = v > kth
    keep[np.flatnonzero(v == kth)[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def cumsum_desc(values: np.ndarray) -> np.ndarray:
    """Sort descending and return running cumulative sums (float64)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError("cumsum_desc expects a 1-D vector")
    if np.any(v < 0):
        raise DomainError("cumsum_desc requires nonnegative values")
    return np.cumsum(np.sort(v)[::-1])
