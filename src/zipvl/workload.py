"""Synthetic per-layer attention-score workloads.

A workload is a (layers, n) float32 array of nonnegative scores, one row per
layer, each row normalized to sum to n (matching the total mass of a row of
accumulated attention scores over n tokens). Two shapes are provided:

  peaked   gamma draws with shape 1/concentration; higher concentration
           piles the mass onto fewer tokens
  diffuse  1 + uniform(0,1)/concentration; higher concentration flattens
           toward exactly uniform (concentration=inf gives all ones)

Workloads round-trip through a layer,token,score CSV so runs can be driven
from files and spliced together.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from . import budget, metrics, numkit
from .engine import LayerReport
from .errors import ConfigError, DomainError, FormatError

KINDS = ("peaked", "diffuse")


def generate_workload(
    kind: str, n: int, layers: int, concentration: float, seed: int
) -> np.ndarray:
    if kind not in KINDS:
        raise DomainError(f"unknown workload kind {kind!r}; expected one of {KINDS}")
    if n < 1 or layers < 1:
        raise DomainError("n and layers must be >= 1")
    if not concentration > 0:
        raise DomainError(f"concentration must be positive, got {concentration}")
    rng = numkit.make_rng(seed)
    rows = np.empty((layers, n), dtype=np.float32)
    for i in range(layers):
        if kind == "peaked":
            vals = rng.gamma(shape=1.0 / concentration, scale=1.0, size=n)
            vals = np.maximum(vals, np.finfo(np.float64).tiny)
        elif np.isinf(concentration):
            vals = np.ones(n, dtype=np.float64)
        else:
            vals = 1.0 + rng.uniform(0.0, 1.0, size=n) / concentration
        rows[i] = (vals * (n / vals.sum())).astype(np.float32)
    return rows


def write_workload_csv(fh, scores: np.ndarray) -> None:
    """Emit layer,token,score rows; floats use shortest round-trip repr."""
    fh.write("layer,token,score\n")
    for layer, row in enumerate(np.asarray(scores, dtype=np.float32).tolist()):
        fh.writelines(f"{layer},{token},{v!r}\n" for token, v in enumerate(row))


def read_workload_csv(fh) -> np.ndarray:
    """Parse a workload CSV back into a (layers, n) array.

    Rows must be layer-major, token-ascending and rectangular, and every
    score finite and nonnegative.
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != ["layer", "token", "score"]:
        raise FormatError(f"bad workload header: {header}")
    rows: list[list[float]] = []
    for lineno, rec in enumerate(reader, start=2):
        if len(rec) != 3:
            raise FormatError(f"line {lineno}: expected 3 fields, got {len(rec)}")
        try:
            layer, token, score = int(rec[0]), int(rec[1]), float(rec[2])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if layer == len(rows):
            rows.append([])
        if layer != len(rows) - 1 or token != len(rows[-1]):
            raise FormatError(f"line {lineno}: rows out of order at layer={layer} token={token}")
        rows[-1].append(score)
    if not rows:
        raise FormatError("workload has no score rows")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise FormatError("workload rows are ragged")
    with np.errstate(over="ignore"):  # overflow to inf is reported below
        scores = np.asarray(rows, dtype=np.float32)
    bad = np.flatnonzero(~(np.isfinite(scores) & (scores >= 0)))
    if bad.size:
        layer, token = divmod(int(bad[0]), n)
        raise FormatError(
            f"line {2 + bad[0]}: score {rows[layer][token]!r} is negative or not finite"
        )
    return scores


def workload_to_csv_text(scores: np.ndarray) -> str:
    buf = io.StringIO()
    write_workload_csv(buf, scores)
    return buf.getvalue()


def evaluate_score_workload(scores: np.ndarray, policy) -> list:
    """Apply a budgeting policy directly to score vectors, one per layer.

    The score row stands in for both importance metrics, so this path
    exercises budgeting and accounting without a model. keep_last and
    dense_first_layers apply as in prefill; probe mode needs real attention
    rows and quantization needs a KV cache, so both are rejected.
    """
    policy.validate()
    if policy.mode == "zipvl-probe":
        raise ConfigError("probe mode requires a model workload")
    if policy.quantize:
        raise ConfigError("quantize requires a model workload")
    scores = np.asarray(scores, dtype=np.float32)
    if scores.ndim != 2 or scores.size == 0:
        raise DomainError("scores must be a nonempty (layers, n) array")
    reports = []
    n = scores.shape[1]
    for layer, vec in enumerate(scores):
        lb, part = budget.plan_layer(
            policy.layer_mode(layer), n, vec, vec, policy.tau, policy.fixed_ratio, policy.keep_last
        )
        p = int(part.important.size)
        reports.append(
            LayerReport(
                layer=layer,
                n=n,
                p=p,
                ratio=p / n,
                retained_mass=float(lb.retained_mass_fraction),
                attn_flops=metrics.attn_flops_sparse(p, n, d_head=1, heads=1),
                kv_rows=p,
                probe_rows=0,
                kv_bytes=2 * p * 4,
            )
        )
    return reports
