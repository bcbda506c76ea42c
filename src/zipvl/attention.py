"""Causal attention, probe-row score approximation and token importance stats.

Everything here is single-head: q, k, v are (n, d_head) float32 matrices.
Multi-head aggregation happens in the engine. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BoundsError, DomainError, EmptySequenceError, ShapeError


@dataclass(frozen=True)
class AttentionScores:
    """A (possibly partial) row-stochastic causal score matrix.

    scores has one row per computed query position and n_total columns.
    row_positions holds the original position of each row, sorted ascending;
    entries at columns j > row_position are exactly zero. When rows cover
    every position this is the full attention matrix.
    """

    scores: np.ndarray
    row_positions: np.ndarray
    n_total: int

    @property
    def n_rows(self) -> int:
        return self.scores.shape[0]


def causal_scores(
    q: np.ndarray, k: np.ndarray, scale: float, row_positions: np.ndarray | None = None
) -> AttentionScores:
    """Causal softmax scores for the given query rows against all keys.

    row_positions=None means all rows. Rows are always gathered into a fresh
    contiguous array so full and subset calls share the exact same float path.
    The softmax runs in row blocks (numkit.causal_softmax_rows): each row's
    exp-sum spans all n columns, zeros past its position included, which
    keeps the bits of a softmax over the masked n x n logits.
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
    q_rows = np.ascontiguousarray(q[row_positions])
    scores = numkit.causal_softmax_rows(q_rows, k, scale, row_positions)
    return AttentionScores(scores=scores, row_positions=row_positions, n_total=n)


def restricted_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Causal attention computed only among the tokens in `indices`.

    Causality uses original positions: row i may attend to row j iff
    indices[j] <= indices[i]. With ascending indices that is a plain lower
    triangle, so no weight ever flows from a later position to an earlier
    one. Returns (outputs over the subset, weight matrix) in subset order.
    The weights come from numkit.causal_softmax_rows over subset positions,
    whose row sums span the whole subset width; the outputs are one
    `weights @ v` product, since BLAS rounds a row-blocked product differently.
    """
    idx = np.asarray(indices, dtype=np.int64)
    q_s = np.ascontiguousarray(numkit.as_matrix(q)[idx])
    k_s = np.ascontiguousarray(numkit.as_matrix(k)[idx])
    v_s = np.ascontiguousarray(numkit.as_matrix(v)[idx])
    weights = numkit.causal_softmax_rows(q_s, k_s, scale, np.arange(idx.size))
    return weights @ v_s, weights


def accumulated_scores(scores: AttentionScores) -> np.ndarray:
    """Total attention received per token: column sums over available rows."""
    return scores.scores.sum(axis=0, dtype=np.float64).astype(numkit.FLOAT)


def structural_nnz(scores: AttentionScores) -> np.ndarray:
    """Causally visible entries per column among the available rows.

    Counted structurally from row positions (row c sees column j iff
    row_position(c) >= j), not by testing floats against zero.
    """
    cols = np.arange(scores.n_total)
    return scores.n_rows - np.searchsorted(scores.row_positions, cols, side="left")


def normalized_scores(scores: AttentionScores, accumulated: np.ndarray) -> np.ndarray:
    """Accumulated score per token divided by its visible-entry count.

    `accumulated` is accumulated_scores(scores); the caller passes the one it
    already has, so the column mass is summed once per head.
    """
    nnz = structural_nnz(scores)
    out = np.zeros(scores.n_total, dtype=numkit.FLOAT)
    seen = nnz > 0
    out[seen] = accumulated[seen] / nnz[seen]
    return out


def select_probe_set(n: int, recent: int, random: int, seed: int) -> np.ndarray:
    """Pick probe rows: the trailing `recent` positions plus `random` others.

    The random positions are drawn uniformly without replacement from the
    pool of non-recent positions; a pool smaller than `random` is taken
    whole. Returns the probe positions as a sorted int64 array.
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
    rng = numkit.make_rng(seed)
    drawn = rng.permutation(pool)[:take]
    indices = np.concatenate([np.sort(drawn), np.arange(pool, n)])
    return indices.astype(np.int64)


def probe_attention(
    q: np.ndarray, probe: np.ndarray, k: np.ndarray, scale: float
) -> AttentionScores:
    """Exact scores for the probe rows only; causality follows original positions."""
    return causal_scores(q, k, scale, row_positions=probe)
