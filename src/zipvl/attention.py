"""Causal attention, probe-row score approximation and token importance stats.

Everything here is single-head: q, k, v are (n, d_head) float32 matrices.
Multi-head aggregation happens in the engine. All functions are pure.

Scoring (causal_scores, probe_attention) returns only the column mass the
importance stats read, summed one block of rows at a time, never the score
matrix. Restricted attention multiplies one block of weights at a time by
the values, so it never holds its p x p weights either.

Probe rows estimate the full column mass: the random rows are one per
stratum of the earlier positions, probe_weights gives each the inverse of
its inclusion probability, its stratum's size, and each recent row 1, and
both the mass and the visible-row counts are weighted sums. When the probes
cover every row each weight is 1.0 and the estimate is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BoundsError, DomainError, EmptySequenceError, OrderingError, ShapeError


@dataclass(frozen=True)
class AttentionScores:
    """Column mass of a (possibly partial) row-stochastic causal score matrix.

    mass[j] is the float64 sum, in row order, of the float32 weights that
    the computed query rows give key j, each times its row's weight.
    row_positions holds the original position of each of the n_rows rows,
    sorted ascending; a row gives zero weight to every column past its
    position. row_weights holds one float64 weight per row, or None when
    every row weighs 1. When the rows cover every position with weight 1
    this is the column mass of the full attention matrix. The matrix
    itself is never kept.
    """

    mass: np.ndarray
    row_positions: np.ndarray
    n_total: int
    row_weights: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.row_positions.size


def causal_scores(
    q: np.ndarray,
    k: np.ndarray,
    scale: float,
    row_positions: np.ndarray | None = None,
    row_weights: np.ndarray | None = None,
) -> AttentionScores:
    """Column mass of the causal softmax of the given query rows against all keys.

    row_positions=None means all rows; row_weights=None weighs each row 1,
    else each row's weights are multiplied by its float64 row weight before
    they are summed. Rows are always gathered into a fresh
    contiguous array so full and subset calls share the exact same float path.
    numkit.causal_column_mass scores one block of rows at a time, so no
    (rows, n) array is built; the sums have the bits of the column sums of
    the stacked numkit.causal_softmax_blocks weights over the same rows.
    """
    q = numkit.as_matrix(q)
    k = numkit.as_matrix(k)
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"q and k head dims differ: {q.shape} vs {k.shape}")
    n = k.shape[0]
    if row_positions is None:
        row_positions = np.arange(q.shape[0], dtype=np.int64)
    else:
        row_positions = np.asarray(row_positions, dtype=np.int64)
        if row_positions.size and row_positions.max() >= q.shape[0]:
            raise BoundsError("row position beyond query rows")
    if row_weights is not None:
        row_weights = np.asarray(row_weights, dtype=np.float64)
    q_rows = np.ascontiguousarray(q[row_positions])
    mass = numkit.causal_column_mass(q_rows, k, scale, row_positions, row_weights)
    return AttentionScores(
        mass=mass, row_positions=row_positions, n_total=n, row_weights=row_weights
    )


def restricted_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float, indices: np.ndarray
) -> np.ndarray:
    """Causal attention computed only among the tokens in `indices`.

    Causality uses original positions: row i may attend to row j iff
    indices[j] <= indices[i]. With ascending indices that is a plain lower
    triangle, so no weight ever flows from a later position to an earlier
    one. Returns the outputs over the subset, in subset order. The weights
    come from numkit.causal_softmax_blocks over subset positions, one block
    of rows at a time, and each block's outputs are its weights times the
    values it can see; so no p x p weight array is built, and a call holds
    memory linear in p. Indices that are not strictly ascending raise
    OrderingError, and indices outside [0, n) raise BoundsError.
    """
    q, k, v = numkit.as_matrix(q), numkit.as_matrix(k), numkit.as_matrix(v)
    idx = np.asarray(indices, dtype=np.int64)
    if np.any(np.diff(idx) <= 0):
        raise OrderingError("indices must be strictly ascending")
    n = min(q.shape[0], k.shape[0], v.shape[0])
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise BoundsError(f"indices must lie in [0, {n})")
    q_s = np.ascontiguousarray(q[idx])
    k_s = np.ascontiguousarray(k[idx])
    v_s = np.ascontiguousarray(v[idx])
    out = np.empty((idx.size, v.shape[1]), dtype=numkit.FLOAT)
    for r0, w in numkit.causal_softmax_blocks(q_s, k_s, scale, np.arange(idx.size)):
        np.matmul(w, v_s[: w.shape[1]], out=out[r0 : r0 + w.shape[0]])
    return out


def accumulated_scores(scores: AttentionScores) -> np.ndarray:
    """Total attention received per token: the rows' weighted column sums, as float32."""
    return scores.mass.astype(numkit.FLOAT)


def structural_nnz(scores: AttentionScores) -> np.ndarray:
    """Weighted count of the available rows that see each column.

    Counted structurally from row positions (row c sees column j iff
    row_position(c) >= j), not by testing floats against zero. Without row
    weights this is the int64 count; with them, the float64 sum of the
    weights of the rows that see j, added from the last row back.
    """
    first = np.searchsorted(scores.row_positions, np.arange(scores.n_total), side="left")
    if scores.row_weights is None:
        return scores.n_rows - first
    suffix = np.zeros(scores.n_rows + 1)
    suffix[:-1] = np.cumsum(scores.row_weights[::-1])[::-1]
    return suffix[first]


def normalized_scores(scores: AttentionScores, accumulated: np.ndarray) -> np.ndarray:
    """Accumulated score per token divided by its weighted visible-row count.

    `accumulated` is accumulated_scores(scores); the caller passes the one it
    already has, so the column mass is summed once per head.
    """
    nnz = structural_nnz(scores)
    out = np.zeros(scores.n_total, dtype=numkit.FLOAT)
    seen = nnz > 0
    out[seen] = accumulated[seen] / nnz[seen]
    return out


def _strata(pool: int, take: int) -> np.ndarray:
    """Bounds of `take` contiguous strata splitting range(pool) as evenly as integers allow."""
    return np.arange(take + 1, dtype=np.int64) * pool // take


def select_probe_set(n: int, recent: int, random: int, seed: int) -> np.ndarray:
    """Pick probe rows: the trailing `recent` positions plus `random` others.

    The pool of non-recent positions is split into take = min(random, pool)
    contiguous strata of pool // take or pool // take + 1 positions, and one
    position is drawn uniformly from each. Compared with a plain draw of
    take positions, every stretch of the sequence gets its share of rows,
    so the estimate, and the budget sized from it, moves much less from
    seed to seed. A pool smaller than `random` is taken whole. Returns the
    probe positions as a sorted int64 array.
    """
    if n == 0:
        raise EmptySequenceError("cannot select probes from an empty sequence")
    if recent < 1:
        raise DomainError("recent count must be >= 1")
    if random < 0:
        raise DomainError("random count must be >= 0")
    n_recent = min(recent, n)
    pool = n - n_recent
    take = min(random, pool)
    drawn = np.empty(0, dtype=np.int64)
    if take:
        bounds = _strata(pool, take)
        drawn = bounds[:-1] + numkit.make_rng(seed).integers(0, np.diff(bounds))
    return np.concatenate([drawn, np.arange(pool, n)]).astype(np.int64)


def probe_weights(n: int, recent: int, probe: np.ndarray) -> np.ndarray:
    """Horvitz-Thompson weight of each row of select_probe_set(n, recent, ...).

    The trailing min(recent, n) rows are always scored and weigh 1.0. Each
    of the other take rows was drawn from its stratum of the pool = n -
    min(recent, n) earlier positions, so it stands for that stratum's
    size: pool / take when take divides pool, and exactly 1.0 when the
    draw took the whole pool.
    """
    pool = n - min(recent, n)
    drawn = np.asarray(probe) < pool
    weights = np.ones(drawn.size)
    take = int(np.count_nonzero(drawn))
    if take:
        weights[drawn] = np.diff(_strata(pool, take))
    return weights


def probe_attention(
    q: np.ndarray, probe: np.ndarray, k: np.ndarray, scale: float, weights: np.ndarray | None = None
) -> AttentionScores:
    """Column mass of the probe rows only; causality follows original positions.

    weights=None sums the probe rows as they are; the engine passes
    probe_weights, so the mass and the visible-row counts estimate those
    of every row.
    """
    return causal_scores(q, k, scale, row_positions=probe, row_weights=weights)
