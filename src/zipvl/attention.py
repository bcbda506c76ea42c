"""Causal attention, probe-row score approximation and token importance stats.

Everything here is single-head: q, k, v are (n, d_head) float32 matrices.
Multi-head aggregation happens in the engine. All functions are pure.

Scoring (causal_scores, probe_attention) returns only the column mass the
importance stats read, summed one block of rows at a time, never the score
matrix. Restricted attention holds its p x p weights for one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BoundsError, DomainError, EmptySequenceError, ShapeError


@dataclass(frozen=True)
class AttentionScores:
    """Column mass of a (possibly partial) row-stochastic causal score matrix.

    mass[j] is the float64 sum, in row order, of the float32 weights that
    the computed query rows give key j. row_positions holds the original
    position of each of the n_rows rows, sorted ascending; a row gives zero
    weight to every column past its position. When the rows cover every
    position this is the column mass of the full attention matrix. The
    matrix itself is never kept.
    """

    mass: np.ndarray
    row_positions: np.ndarray
    n_total: int

    @property
    def n_rows(self) -> int:
        return self.row_positions.size


def causal_scores(
    q: np.ndarray, k: np.ndarray, scale: float, row_positions: np.ndarray | None = None
) -> AttentionScores:
    """Column mass of the causal softmax of the given query rows against all keys.

    row_positions=None means all rows. Rows are always gathered into a fresh
    contiguous array so full and subset calls share the exact same float path.
    numkit.causal_column_mass scores one block of rows at a time, so no
    (rows, n) array is built; the sums have the bits of the column sums of
    numkit.causal_softmax_rows over the same rows.
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
    mass = numkit.causal_column_mass(q_rows, k, scale, row_positions)
    return AttentionScores(mass=mass, row_positions=row_positions, n_total=n)


def restricted_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float, indices: np.ndarray
) -> np.ndarray:
    """Causal attention computed only among the tokens in `indices`.

    Causality uses original positions: row i may attend to row j iff
    indices[j] <= indices[i]. With ascending indices that is a plain lower
    triangle, so no weight ever flows from a later position to an earlier
    one. Returns the outputs over the subset, in subset order. The weights
    come from numkit.causal_softmax_rows over subset positions, whose row
    sums span the whole subset width; the outputs are one `weights @ v`
    product, since BLAS rounds a row-blocked product differently. So one
    p x p float32 weight array is held per call and freed on return.
    """
    idx = np.asarray(indices, dtype=np.int64)
    q_s = np.ascontiguousarray(numkit.as_matrix(q)[idx])
    k_s = np.ascontiguousarray(numkit.as_matrix(k)[idx])
    v_s = np.ascontiguousarray(numkit.as_matrix(v)[idx])
    return numkit.causal_softmax_rows(q_s, k_s, scale, np.arange(idx.size)) @ v_s


def accumulated_scores(scores: AttentionScores) -> np.ndarray:
    """Total attention received per token, column sums over available rows, as float32."""
    return scores.mass.astype(numkit.FLOAT)


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
    """Exact column mass of the probe rows only; causality follows original positions."""
    return causal_scores(q, k, scale, row_positions=probe)
