"""Minimal dense numerics shared by every other module.

Matrices are plain numpy float32 arrays in row-major order. Accumulations
(softmax, cumulative sums) run in float64 internally and results are cast
back to float32 where the value is part of model state; pure accounting
helpers keep float64.

Randomness comes from numpy's PCG64 bit generator. For a fixed seed and a
fixed numpy version the stream is bit-identical across platforms.

The causal row softmax runs one block of CAUSAL_BLOCK query rows at a time,
so it never builds an n x n float64 array or mask. causal_softmax_rows
still returns the float32 (rows, n) weights; causal_column_mass returns only
their float64 column sums and holds one block of rows at a time, so scoring
a layer costs memory linear in n.

All functions here are pure; Rng instances must stay confined to a single
thread.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundsError, DegenerateMaskError, DomainError, ShapeError

FLOAT = np.float32

# rows per block of causal_softmax_rows: of 16 to 256, 64 was fastest at n=2048
# and tied at n=1024 (d_head 16, one BLAS thread)
CAUSAL_BLOCK = 64
# fewest rows in causal_column_mass's last block; a shorter tail joins the block before
TAIL_MIN = 16
# _causal_block's mask for a block of consecutive rows: row r hides columns r.. of
# the block's window; the widest block is CAUSAL_BLOCK rows plus a joined tail
_HIDDEN = np.triu(np.ones((CAUSAL_BLOCK + TAIL_MIN, CAUSAL_BLOCK + TAIL_MIN), dtype=bool))


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


def causal_row_mask(row_positions: np.ndarray, n_cols: int) -> np.ndarray:
    """Boolean visibility mask: row r sees columns 0..row_positions[r]."""
    pos = np.asarray(row_positions, dtype=np.int64)
    return np.arange(n_cols)[None, :] <= pos[:, None]


def masked_softmax_rows(logits: np.ndarray, mask: None) -> np.ndarray:
    """Row softmax over every column of logits; mask must be None.

    Each row sums to 1, and a -inf logit comes out exactly 0.0. Stabilized
    by subtracting the row max; exp/sum run in float64, the result is
    float32. The float64 copy is shifted and exponentiated in place, and
    the division writes float32 directly: the float64 quotient is rounded
    once, as astype would. The masked form lives in the tests as the oracle
    softmax_rows_masked, whose all-true mask gives these bits; the mask
    argument stays for the callers and tracers that pass it.
    """
    if mask is not None:
        raise TypeError("masked_softmax_rows takes mask=None; every column is visible")
    logits = as_matrix(logits)
    if logits.shape[1] == 0:
        raise DegenerateMaskError("logits have no column")
    shifted = logits.astype(np.float64)
    shifted -= np.maximum.reduce(shifted, axis=1, keepdims=True)
    np.exp(shifted, out=shifted)
    total = np.add.reduce(shifted, axis=1, keepdims=True)
    return np.divide(shifted, total, out=np.empty(shifted.shape, FLOAT), casting="unsafe")


def _check_rows(q_rows, k, row_positions) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Coerce the operands of a causal row softmax and check the row positions.

    Also says whether the positions are consecutive, each one past the last.
    """
    q_rows = as_matrix(q_rows)
    k = as_matrix(k)
    pos = np.asarray(row_positions, dtype=np.int64)
    m, n = q_rows.shape[0], k.shape[0]
    if pos.shape != (m,):
        raise ShapeError(f"{pos.shape} row positions for {m} query rows")
    steps = np.diff(pos)
    if m and (pos[0] < 0 or pos[-1] >= n or np.any(steps < 0)):
        raise BoundsError(f"row positions must ascend within [0, {n})")
    return q_rows, k, pos, bool(np.all(steps == 1))


def _causal_block(
    logits: np.ndarray, blk: np.ndarray, tile: np.ndarray, work: np.ndarray, consecutive: bool
) -> int:
    """Causal softmax of one block of scaled logit rows, over logits[:, :hi] in place.

    Row r sees columns 0..blk[r]; hi is one past the block's last position,
    and it is returned. The rows up to hi are copied into the contiguous
    float64 `work`, masked on the diagonal, run through max and exp in place,
    and divided straight into float32, which rounds the float64 quotient
    once. The row sums are taken over `tile`, (rows, n) float64 that must be
    zero past hi: numpy's pairwise sum groups terms by row length, so the
    sum over n columns, zeros included, keeps the bits of a softmax over the
    masked n-wide logits. logits[:, hi:] is left as it was. A block of
    `consecutive` positions slices its mask from _HIDDEN instead of
    building it.
    """
    lo, hi = int(blk[0]) + 1, int(blk[-1]) + 1
    w = work[: blk.size * hi].reshape(blk.size, hi)
    w[...] = logits[:, :hi]
    if consecutive:
        hidden = _HIDDEN[: blk.size, : hi - lo]
    else:
        hidden = ~causal_row_mask(blk - lo, hi - lo)
    np.copyto(w[:, lo:], -np.inf, where=hidden)
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    tile[:, :hi] = w
    np.divide(w, tile.sum(axis=1, keepdims=True), out=logits[:, :hi], casting="unsafe")
    return hi


def causal_softmax_rows(
    q_rows: np.ndarray, k: np.ndarray, scale: float, row_positions: np.ndarray
) -> np.ndarray:
    """Causal softmax of (q_rows @ k.T) * scale, one block of rows at a time.

    Row r sees keys 0..row_positions[r]; positions must ascend and lie in
    [0, n). Returns float32 (rows, n) weights, exactly 0.0 past each row's
    position, with the same bits as the masked softmax oracle of the tests
    (oracles.softmax_rows_masked) on the same logits and causal_row_mask.
    The logits come from one product into the output array; each block of
    CAUSAL_BLOCK rows then goes through _causal_block, so no n x n float64
    array or mask is ever built. The product is not split by block: BLAS
    picks its kernel by row and column count, so a block's logits against
    only its visible keys can differ in the last bit. The same holds for
    `weights @ v` split into row blocks.
    """
    q_rows, k, pos, consecutive = _check_rows(q_rows, k, row_positions)
    m, n = q_rows.shape[0], k.shape[0]
    out = q_rows @ k.T
    out *= FLOAT(scale)
    # the tile's columns past hi stay zero: hi only grows from block to block
    tile = np.zeros((min(CAUSAL_BLOCK, m), n), dtype=np.float64)
    work = np.empty(tile.size, dtype=np.float64)
    for r0 in range(0, m, CAUSAL_BLOCK):
        blk = pos[r0 : r0 + CAUSAL_BLOCK]
        rows = out[r0 : r0 + blk.size]
        hi = _causal_block(rows, blk, tile[: blk.size], work, consecutive)
        rows[:, hi:] = 0.0
    return out


def causal_column_mass(
    q_rows: np.ndarray,
    k: np.ndarray,
    scale: float,
    row_positions: np.ndarray,
    row_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Float64 column sums of causal_softmax_rows(q_rows, k, scale, row_positions).

    The sums have the bits of `.sum(axis=0, dtype=np.float64)` over that
    float32 matrix, yet only one block of rows is ever held. With
    row_weights, one float64 weight per row, they have the bits of
    `(weights.astype(np.float64) * row_weights[:, None]).sum(axis=0)`
    instead; a weight of 1.0 changes no bit. Each block gets its own
    (rows, d) @ (d, n) product and goes through _causal_block. Its float32
    weights, widened and multiplied by their row weights, then sit in rows
    1.. of a float64 buffer whose row 0 holds the running sums, and one
    add.reduce down the columns adds them in row order, as the sum over the
    whole matrix does. The buffer's rows double as the row-sum tile, zero
    past hi. A tail block shorter than TAIL_MIN rows joins the block before
    it: BLAS multiplies a single row with gemv, and for some head sizes a
    few rows with another kernel, which can round the logits differently
    from the rows of a larger product.
    """
    q_rows, k, pos, consecutive = _check_rows(q_rows, k, row_positions)
    m, n = q_rows.shape[0], k.shape[0]
    if row_weights is not None:
        row_weights = np.asarray(row_weights, dtype=np.float64)
        if row_weights.shape != (m,):
            raise ShapeError(f"{row_weights.shape} row weights for {m} query rows")
    starts = list(range(0, m, CAUSAL_BLOCK))
    if len(starts) > 1 and m - starts[-1] < TAIL_MIN:
        starts.pop()
    ends = starts[1:] + [m]
    width = max((r1 - r0 for r0, r1 in zip(starts, ends)), default=0)
    buf = np.zeros((width + 1, n), dtype=np.float64)
    work = np.empty(width * n, dtype=np.float64)
    for r0, r1 in zip(starts, ends):
        logits = q_rows[r0:r1] @ k.T
        logits *= FLOAT(scale)
        rows = buf[: r1 - r0 + 1]
        hi = _causal_block(logits, pos[r0:r1], rows[1:], work, consecutive)
        rows[1:, :hi] = logits[:, :hi]
        if row_weights is not None:
            rows[1:, :hi] *= row_weights[r0:r1, None]
        buf[0, :hi] = np.add.reduce(rows[:, :hi], axis=0)
    return buf[0].copy()


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
