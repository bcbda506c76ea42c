"""Layer-wise important-token budgets and token partitioning.

The adaptive budget keeps the smallest number of tokens p whose top
accumulated scores reach a fraction tau of the total attention mass. The
fixed budget keeps a constant fraction regardless of the score shape.
plan_layer is the one place a layer's mode turns scores into a budget and
a partition; model prefill and score workloads both go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numkit
from .errors import BoundsError, DomainError, EmptySequenceError

@dataclass(frozen=True)
class LayerBudget:
    """Chosen important-token count for one layer.

    retained_mass_fraction is the share of total score mass covered by the
    p highest-scoring tokens; None when no scores were available.
    """

    n: int
    p: int
    retained_mass_fraction: float | None


@dataclass(frozen=True)
class TokenPartition:
    """The important tokens of [0, n), sorted ascending; the rest are unimportant."""

    important: np.ndarray
    n: int


def adaptive_budget(accumulated: np.ndarray, tau: float, mass_total: float) -> LayerBudget:
    """Smallest p whose top accumulated scores reach tau * mass_total.

    tau=1.0 keeps every token by definition: summation-order round-off can
    make the scanned total land a hair above or below mass_total, and full
    retention is the contract there, not a threshold race. Below 1.0, p is
    the first prefix of the descending sort to reach the threshold, clamped
    to >= 1 and to n if rounding leaves even the full sum short.
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
    return LayerBudget(n=v.size, p=p, retained_mass_fraction=retained)


def fixed_budget(n: int, ratio: float) -> LayerBudget:
    """Constant-ratio budget: p = round(ratio * n), at least 1.

    Rounding is half away from zero. retained_mass_fraction is unset here;
    fill it from actual scores with top_mass_fraction when they exist.
    """
    if not 0.0 < ratio <= 1.0:
        raise DomainError(f"ratio={ratio} outside (0, 1]")
    if n < 1:
        raise EmptySequenceError("fixed_budget needs n >= 1")
    p = max(1, int(math.floor(ratio * n + 0.5)))
    return LayerBudget(n=n, p=min(p, n), retained_mass_fraction=None)


def top_mass_fraction(accumulated: np.ndarray, p: int, mass_total: float) -> float:
    """Share of mass_total covered by the p largest accumulated scores."""
    csum = numkit.cumsum_desc(np.asarray(accumulated))
    if not 1 <= p <= csum.size:
        raise BoundsError(f"p={p} out of range for length {csum.size}")
    return float(csum[p - 1]) / float(mass_total) if mass_total > 0 else 1.0


def partition_tokens(normalized: np.ndarray, p: int) -> TokenPartition:
    """Split [0, n) into the top-p tokens by score and the complement.

    Both index lists come back sorted ascending; top-p ties break toward the
    smaller index.
    """
    v = np.asarray(normalized)
    important = numkit.topk_indices(v, p)
    return TokenPartition(important=important.astype(np.int64), n=v.size)


def plan_layer(
    mode: str,
    n: int,
    size_by: np.ndarray | None,
    rank_by: np.ndarray | None,
    tau: float,
    fixed_ratio: float,
    keep_last: int,
) -> tuple[LayerBudget, TokenPartition]:
    """Size one layer's n-token budget from size_by, then fill it by rank_by.

    dense keeps every token, fixed keeps round(fixed_ratio * n) and records
    the share of size_by's mass those top tokens cover, and any other mode
    takes the adaptive budget for tau. The last keep_last tokens are always
    kept, raising the kept count above the budget's p when they must.
    dense reads no score, so a dense layer passes None for both vectors.
    """
    if mode == "dense":
        everything = TokenPartition(important=np.arange(n, dtype=np.int64), n=n)
        return LayerBudget(n=n, p=n, retained_mass_fraction=1.0), everything
    mass = float(np.sum(size_by, dtype=np.float64))
    if mode == "fixed":
        lb = fixed_budget(n, fixed_ratio)
        lb = replace(lb, retained_mass_fraction=top_mass_fraction(size_by, lb.p, mass))
    else:
        lb = adaptive_budget(size_by, tau, mass)
    ident = np.array(rank_by, dtype=np.float64)
    n_prot = min(keep_last, n)
    if n_prot:
        ident[n - n_prot :] = np.inf
    return lb, partition_tokens(ident, max(lb.p, n_prot))
