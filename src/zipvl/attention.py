"""Causal attention, probe-row score approximation and token importance stats.

q, k and v are float32 (..., n, d_head) arrays whose leading axes are
heads: a layer passes its stacked (heads, n, d_head) views, and a 2-D
matrix is one head on the same path. Every head of a call scores and
attends over the same rows, in one loop over blocks of rows. All functions
are pure.

Scoring (causal_scores, probe_attention) returns one AttentionScores record
of the scored rows: the heads' mean column mass, each head's summed one
block of rows at a time, never the score matrix, and the weighted count of
the rows that see each column, which every head shares. The importance
stats (accumulated_scores, normalized_scores) read only that record.
Restricted attention multiplies one block of unnormalized exponentials at
a time by the values and divides its outputs by the row sums, so it never
holds its p x p weights either. The exponentials are shifted by their row
max only in heads whose logits could overflow (numkit.SHIFT_FREE_BOUND);
either way the shift cancels in the division.

Probe rows estimate the full column mass: select_probe_set draws the random
rows one per stratum of the earlier positions and returns with each the
inverse of its inclusion probability, its stratum's size, and with each
recent row 1, and both the mass and the visible-row counts are weighted
sums. When the probes cover every row each weight is 1.0 and the estimate
is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BoundsError, DomainError, EmptySequenceError, ShapeError


@dataclass(frozen=True)
class AttentionScores:
    """Column mass of a set of scored causal rows, and how many of them see each column.

    mass[j] is the float64 sum of the weights e / s that the scored query
    rows give key j, each times its row's weight, averaged over the heads;
    e is the row's float32 exponentials and s their float32 sum, and the
    quotient is never rounded to float32.
    visible[j] is the float64 sum of the weights of the scored rows that see
    key j; a row sees every key up to its own position, and with unit
    weights this is the count of those rows. n_rows is the number of scored
    rows, which every head shares, not counted once per head. When the
    rows cover every position with weight 1 this is the column mass of the
    full attention matrix. The matrix itself is never kept.
    """

    mass: np.ndarray
    visible: np.ndarray
    n_rows: int


def causal_scores(
    q: np.ndarray,
    k: np.ndarray,
    scale: float,
    row_positions: np.ndarray | None = None,
    row_weights: np.ndarray | None = None,
) -> AttentionScores:
    """Head-mean column mass and visible-row counts of the causal softmax of the given rows.

    q and k are (..., n, d_head) with the same leading axes, the heads.
    row_positions=None means all rows; row_weights=None weighs each row 1,
    else each row's weights are multiplied by its float64 row weight before
    they are summed. Rows are always gathered into a fresh
    contiguous array so full and subset calls share the exact same float path.
    numkit.causal_column_mass scores one block of rows of every head at a
    time, so no (rows, n) array is built; each head's sums are the float64
    column sums of its numkit.causal_exp_blocks exponentials divided by
    their row sums, up to float64 summation order, and the record's mass is
    their float64 np.mean over the heads (the head's own sums for one).
    The visible counts come from the row positions, not from testing
    weights against zero: key j is seen by the rows from the first one at
    position >= j on, so its count is a suffix sum of the row weights,
    added from the last row back.
    """
    q = numkit.as_stack(q)
    k = numkit.as_stack(k)
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"q and k head dims differ: {q.shape} vs {k.shape}")
    n = k.shape[-2]
    if row_positions is None:
        row_positions = np.arange(q.shape[-2], dtype=np.int64)
    else:
        row_positions = np.asarray(row_positions, dtype=np.int64)
        if row_positions.size and row_positions.max() >= q.shape[-2]:
            raise BoundsError("row position beyond query rows")
    q_rows = np.ascontiguousarray(q[..., row_positions, :])
    mass = numkit.causal_column_mass(q_rows, k, scale, row_positions, row_weights)
    mass = np.mean(mass.reshape(-1, n), axis=0)
    weights = np.ones(row_positions.size) if row_weights is None else row_weights
    suffix = np.append(np.cumsum(np.asarray(weights, dtype=np.float64)[::-1])[::-1], 0.0)
    first = np.searchsorted(row_positions, np.arange(n), side="left")
    return AttentionScores(mass=mass, visible=suffix[first], n_rows=row_positions.size)


def restricted_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float, indices: np.ndarray
) -> np.ndarray:
    """Causal attention computed only among the tokens in `indices`, in every head.

    q, k and v are (..., n, d_head) with the same leading axes, the heads,
    and every head attends over the one index set. Causality uses original
    positions: row i may attend to row j iff indices[j] <= indices[i]. With
    ascending indices that is a plain lower triangle, so no weight ever
    flows from a later position to an earlier one. Returns the (..., p,
    d_head) outputs over the subset, in subset order. The exponentials come
    from numkit.causal_exp_blocks over subset positions, one block of rows
    of every head at a time. The values are gathered beside a ones column,
    so each block's one stacked product e @ [v | 1] holds its unnormalized
    outputs and its row sums, and the outputs are divided by the sums once,
    after every block; no p x p weight array is built, no weight is
    divided, and a call holds memory linear in p per head. Where a head's
    exponentials are shifted by their row max (numkit.causal_exp_blocks
    says which), outputs and sums carry the same factor, so the shift
    cancels. Each head's outputs have the bits of its own 2-D call.
    numkit.index_set checks the indices: not strictly ascending is an
    OrderingError, outside [0, n) a BoundsError.
    """
    q, k, v = numkit.as_stack(q), numkit.as_stack(k), numkit.as_stack(v)
    idx = numkit.index_set(indices, min(q.shape[-2], k.shape[-2], v.shape[-2]))
    d = v.shape[-1]
    q_s = np.ascontiguousarray(q[..., idx, :])
    k_s = np.ascontiguousarray(k[..., idx, :])
    v1 = np.ones((*v.shape[:-2], idx.size, d + 1), dtype=numkit.FLOAT)
    v1[..., :d] = v[..., idx, :]
    out = np.empty(v1.shape, dtype=numkit.FLOAT)
    for r0, e in numkit.causal_exp_blocks(q_s, k_s, scale, np.arange(idx.size)):
        np.matmul(e, v1[..., : e.shape[-1], :], out=out[..., r0 : r0 + e.shape[-2], :])
    return out[..., :d] / out[..., d:]


def accumulated_scores(scores: AttentionScores) -> np.ndarray:
    """Total attention received per token: the rows' weighted column sums, as float32."""
    return scores.mass.astype(numkit.FLOAT)


def normalized_scores(scores: AttentionScores) -> np.ndarray:
    """Accumulated score per token divided by its weighted visible-row count.

    Exactly float32(accumulated_scores(scores) / scores.visible) where some
    row sees the token, and 0.0 where none does.
    """
    return np.divide(
        scores.mass.astype(numkit.FLOAT),
        scores.visible,
        out=np.zeros(scores.visible.size, dtype=numkit.FLOAT),
        where=scores.visible > 0,
    )


def select_probe_set(
    n: int, recent: int, random: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pick probe rows, the trailing `recent` positions plus `random` others, and weigh them.

    The pool of non-recent positions is split into take = min(random, pool)
    contiguous strata of pool // take or pool // take + 1 positions, and one
    position is drawn uniformly from each. Compared with a plain draw of
    take positions, every stretch of the sequence gets its share of rows,
    so the estimate, and the budget sized from it, moves much less from
    seed to seed. A pool smaller than `random` is taken whole. Returns the
    probe positions as a sorted int64 array and their float64
    Horvitz-Thompson weights: a drawn row stands for its stratum and weighs
    its size, each recent row weighs 1.0, so the weights sum to n, and each
    is 1.0 when the draw took the whole pool.
    """
    if n == 0:
        raise EmptySequenceError("cannot select probes from an empty sequence")
    if recent < 1:
        raise DomainError("recent count must be >= 1")
    if random < 0:
        raise DomainError("random count must be >= 0")
    pool = n - min(recent, n)
    take = min(random, pool)
    drawn = sizes = np.empty(0, dtype=np.int64)
    if take:
        bounds = np.arange(take + 1, dtype=np.int64) * pool // take
        sizes = np.diff(bounds)
        drawn = bounds[:-1] + numkit.make_rng(seed).integers(0, sizes)
    rows = np.concatenate([drawn, np.arange(pool, n)]).astype(np.int64)
    return rows, np.concatenate([sizes, np.ones(n - pool)])


def probe_attention(
    q: np.ndarray, probe: np.ndarray, k: np.ndarray, scale: float, weights: np.ndarray
) -> AttentionScores:
    """Head-mean column mass of the probe rows only; causality follows original positions.

    q and k are (..., n, d_head), the heads on the leading axes, as
    causal_scores takes them. weights are the Horvitz-Thompson weights
    select_probe_set returns with the probe rows, so the mass and the
    visible-row counts estimate those of every row.
    """
    return causal_scores(q, k, scale, row_positions=probe, row_weights=weights)
