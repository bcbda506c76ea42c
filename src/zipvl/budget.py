"""Layer-wise important-token budgets and the important-token set.

The adaptive budget keeps the smallest number of tokens p whose top
accumulated scores reach a fraction tau of the total attention mass. The
fixed budget keeps a constant fraction regardless of the score shape.
A layer's important tokens are one sorted int64 array of positions in
[0, n); every other token is unimportant. plan_layer is the one reader of
the knobs that shape that array (mode, tau, fixed_ratio, probe_recent,
probe_random, keep_last): it draws the probe rows, asks the caller's score
callback for the layer's scores once, sizes the budget and fills it, and
returns one LayerPlan, which the layer's report and its trace entry both
read. Model prefill scores attention rows; score workloads hand over a
fixed vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attention, numkit
from .errors import BoundsError, DomainError, EmptySequenceError


def _mass_share(csum: np.ndarray, p: int, mass_total: float) -> float:
    """Share of mass_total in the top p values, whose descending cumsum is csum.

    1.0 when p keeps every value or mass_total is 0; else csum[p - 1] over
    mass_total, capped at 1.0, since the cumsum adds in another order than
    the sum that made mass_total and can land a hair above it.
    """
    if p == csum.size or not mass_total > 0:
        return 1.0
    return min(1.0, float(csum[p - 1]) / float(mass_total))


def adaptive_budget(accumulated: np.ndarray, tau: float, mass_total: float) -> tuple[int, float]:
    """Smallest p whose top accumulated scores reach tau * mass_total, and their mass share.

    tau=1.0 keeps every token by definition: summation-order round-off can
    make the scanned total land a hair above or below mass_total, and full
    retention is the contract there, not a threshold race. Below 1.0, p is
    the first prefix of the descending sort to reach the threshold, clamped
    to >= 1 and to n if rounding leaves even the full sum short. The share
    is _mass_share's: exactly 1.0 when p is n, and never above 1.0.
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
    return p, _mass_share(csum, p, mass_total)


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
    """Share of mass_total covered by the p largest accumulated scores (_mass_share)."""
    csum = numkit.cumsum_desc(np.asarray(accumulated))
    if not 1 <= p <= csum.size:
        raise BoundsError(f"p={p} out of range for length {csum.size}")
    return _mass_share(csum, p, mass_total)


def partition_tokens(normalized: np.ndarray, p: int) -> np.ndarray:
    """The top-p tokens by score as int64 positions, sorted ascending.

    Ties break toward the smaller index.
    """
    return numkit.topk_indices(np.asarray(normalized), p).astype(np.int64)


@dataclass(frozen=True)
class LayerPlan:
    """What a policy decided for one layer, and the scores it decided from.

    important holds the kept positions, sorted ascending. retained_mass is
    the accumulated mass share of the budget's top tokens, taken before
    keep_last; the kept set, ranked by normalized score, can hold less.
    probe_rows counts the probe rows scored, 0 where every row was.
    accumulated and normalized are the layer's float32 scores, None in mode
    dense, which scores nothing.
    """

    important: np.ndarray
    retained_mass: float
    probe_rows: int
    accumulated: np.ndarray | None
    normalized: np.ndarray | None


def plan_layer(policy, n: int, score, seed: int = 0) -> LayerPlan:
    """Plan one layer's n-token budget under a SparsityPolicy.

    score(probe) returns the layer's accumulated and normalized scores,
    from every row where probe is None, else from the probe rows and
    Horvitz-Thompson weights of probe = (rows, weights). Mode dense keeps
    every token with share 1.0 and never calls score; every other mode
    calls it once, zipvl-probe with the rows attention.select_probe_set
    draws from seed, the others with None. The accumulated score sizes the
    budget and the normalized one fills it: fixed keeps
    round(fixed_ratio * n), the adaptive modes take the budget for tau. The
    last keep_last tokens are always kept, raising the kept count above the
    budget's p when they must.
    """
    if policy.mode == "dense":
        return LayerPlan(np.arange(n, dtype=np.int64), 1.0, 0, None, None)
    probe = None
    if policy.mode == "zipvl-probe":
        probe = attention.select_probe_set(n, policy.probe_recent, policy.probe_random, seed)
    accumulated, normalized = score(probe)
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
    important = partition_tokens(ident, max(p, n_prot))
    probe_rows = 0 if probe is None else int(probe[0].size)
    return LayerPlan(important, retained, probe_rows, accumulated, normalized)
