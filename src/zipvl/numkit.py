"""Minimal dense numerics shared by every other module.

Matrices are plain numpy float32 arrays in row-major order. Accumulations
(softmax, cumulative sums) run in float64 internally and results are cast
back to float32 where the value is part of model state; pure accounting
helpers keep float64.

Randomness comes from numpy's PCG64 bit generator. For a fixed seed and a
fixed numpy version the stream is bit-identical across platforms.

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


def masked_softmax_rows(logits: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Row softmax restricted to visible columns.

    Masked entries come out exactly 0.0 and each row of visible entries sums
    to 1. Stabilized by subtracting the per-row max over visible columns;
    exp/sum run in float64, the result is float32. `mask=None` means every
    column is visible; it gives the same bits as an all-true mask without
    building or checking one.
    """
    logits = as_matrix(logits)
    if mask is None:
        if logits.shape[1] == 0:
            raise DegenerateMaskError("logits have no column")
        shifted = logits.astype(np.float64)
    else:
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
    return (e / e.sum(axis=1, keepdims=True)).astype(FLOAT)


def causal_softmax_rows(
    q_rows: np.ndarray, k: np.ndarray, scale: float, row_positions: np.ndarray
) -> np.ndarray:
    """Causal softmax of (q_rows @ k.T) * scale, one block of rows at a time.

    Row r sees keys 0..row_positions[r]; positions must ascend and lie in
    [0, n). Returns float32 (rows, n) weights, exactly 0.0 past each row's
    position, with the same bits as masked_softmax_rows on the same logits
    and causal_row_mask. The logits come from one product into the output
    array. Each block of CAUSAL_BLOCK rows is then copied into a float64
    tile up to its last position, masked on the diagonal in place, run
    through max, exp and divide in place and written back, so no n x n
    float64 array or mask is ever built.

    The tile is n wide, zeros past the block's last position included,
    because numpy's pairwise sum groups terms by row length: a shorter row
    sums to other bits. The product is not split by block either: BLAS
    picks its kernel by row and column count, so a row block's logits
    against only its visible keys can differ in the last bit. The same
    holds for `weights @ v` split into row blocks.
    """
    q_rows = as_matrix(q_rows)
    k = as_matrix(k)
    pos = np.asarray(row_positions, dtype=np.int64)
    m, n = q_rows.shape[0], k.shape[0]
    if pos.shape != (m,):
        raise ShapeError(f"{pos.shape} row positions for {m} query rows")
    if m and (pos[0] < 0 or pos[-1] >= n or np.any(np.diff(pos) < 0)):
        raise BoundsError(f"row positions must ascend within [0, {n})")
    out = q_rows @ k.T
    out *= FLOAT(scale)
    tile = np.zeros((min(CAUSAL_BLOCK, m), n), dtype=np.float64)
    for r0 in range(0, m, CAUSAL_BLOCK):
        blk = pos[r0 : r0 + CAUSAL_BLOCK]
        rows = out[r0 : r0 + blk.size]
        lo, hi = int(blk[0]) + 1, int(blk[-1]) + 1
        # the tile's columns past hi stay zero: hi only grows from block to block
        t = tile[: blk.size]
        w = t[:, :hi]
        w[...] = rows[:, :hi]
        np.putmask(w[:, lo:], ~causal_row_mask(blk - lo, hi - lo), -np.inf)
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        w /= t.sum(axis=1, keepdims=True)
        rows[:, :hi] = w
        rows[:, hi:] = 0.0
    return out


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
