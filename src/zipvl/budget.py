"""Layer-wise important-token budgets and the important-token set.

The adaptive budget keeps the smallest number of tokens p whose top
accumulated scores reach a fraction tau of the total attention mass. The
fixed budget keeps a constant fraction regardless of the score shape.
A layer's important tokens are one sorted int64 array of positions in
[0, n); every other token is unimportant. plan_layer is the one place a
policy's mode and knobs turn a layer's scores into that array and the mass
share its budget retains; model prefill and score workloads both go
through it.
"""

from __future__ import annotations

import math

import numpy as np

from . import numkit
from .errors import BoundsError, DomainError, EmptySequenceError


def adaptive_budget(accumulated: np.ndarray, tau: float, mass_total: float) -> tuple[int, float]:
    """Smallest p whose top accumulated scores reach tau * mass_total, and their mass share.

    tau=1.0 keeps every token by definition: summation-order round-off can
    make the scanned total land a hair above or below mass_total, and full
    retention is the contract there, not a threshold race. Below 1.0, p is
    the first prefix of the descending sort to reach the threshold, clamped
    to >= 1 and to n if rounding leaves even the full sum short. The share
    is 1.0 when mass_total is 0.
    """
    v = np.asarray(accumulated)
    if v.size == 0:
        raise EmptySequenceError("adaptive_budget needs a nonempty score vector")
    if not 0.0 < tau <= 1.0:
        raise DomainError(f"tau={tau} outside (0, 1]")
    csum = numkit.cumsum_desc(v)
    if tau == 1.0:
        p = v.size
    else:
        threshold = float(tau) * float(mass_total)
        p = min(int(np.searchsorted(csum, threshold, side="left")) + 1, v.size)
    retained = float(csum[p - 1]) / float(mass_total) if mass_total > 0 else 1.0
    return p, retained


def fixed_budget(n: int, ratio: float) -> int:
    """Constant-ratio budget: p = round(ratio * n), at least 1 and at most n.

    Rounding is half away from zero.
    """
    if not 0.0 < ratio <= 1.0:
        raise DomainError(f"ratio={ratio} outside (0, 1]")
    if n < 1:
        raise EmptySequenceError("fixed_budget needs n >= 1")
    return min(max(1, int(math.floor(ratio * n + 0.5))), n)


def top_mass_fraction(accumulated: np.ndarray, p: int, mass_total: float) -> float:
    """Share of mass_total covered by the p largest accumulated scores."""
    csum = numkit.cumsum_desc(np.asarray(accumulated))
    if not 1 <= p <= csum.size:
        raise BoundsError(f"p={p} out of range for length {csum.size}")
    return float(csum[p - 1]) / float(mass_total) if mass_total > 0 else 1.0


def partition_tokens(normalized: np.ndarray, p: int) -> np.ndarray:
    """The top-p tokens by score as int64 positions, sorted ascending.

    Ties break toward the smaller index.
    """
    return numkit.topk_indices(np.asarray(normalized), p).astype(np.int64)


def plan_layer(
    policy, n: int, accumulated: np.ndarray | None, normalized: np.ndarray | None
) -> tuple[np.ndarray, float]:
    """Plan one layer's n-token budget under a SparsityPolicy.

    Sizes the budget from the accumulated score and fills it by the
    normalized one. Returns the important positions, sorted ascending, and
    the share of the accumulated mass the budget's top tokens cover. Mode
    dense keeps every token with share 1.0, fixed keeps
    round(fixed_ratio * n), and the adaptive modes take the budget for tau.
    The last keep_last tokens are always kept, raising the kept count above
    the budget's p when they must. dense reads no score, so mode dense
    passes None for both.
    """
    if policy.mode == "dense":
        return np.arange(n, dtype=np.int64), 1.0
    mass = float(np.sum(accumulated, dtype=np.float64))
    if policy.mode == "fixed":
        p = fixed_budget(n, policy.fixed_ratio)
        retained = top_mass_fraction(accumulated, p, mass)
    else:
        p, retained = adaptive_budget(accumulated, policy.tau, mass)
    ident = np.array(normalized, dtype=np.float64)
    n_prot = min(policy.keep_last, n)
    if n_prot:
        ident[n - n_prot :] = np.inf
    return partition_tokens(ident, max(p, n_prot)), retained
