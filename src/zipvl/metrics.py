"""FLOP and KV-memory accounting for sparse-attention runs.

Conventions: one fused multiply-add counts as two FLOPs; attention cost per
head over r query rows and c key columns is 4*r*c*d_head (scores plus the
weighted value sum); only prefill attention enters the reduction figures,
so a fixed retention ratio maps to exact reduction numbers. Probe scoring
is charged at 2*probe_rows*n*d_head per head (scores only; the probe pass
produces no value outputs).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np


def attn_flops_dense(n: int, d_head: int, heads: int) -> int:
    """Full causal attention cost for one layer of an n-token prefill."""
    return 4 * n * n * d_head * heads


def attn_flops_sparse(p: int, n: int, d_head: int, heads: int, probe_rows: int = 0) -> int:
    """Restricted attention over p tokens plus an optional probe-score pass."""
    return 4 * p * p * d_head * heads + 2 * probe_rows * n * d_head * heads


@dataclass(frozen=True)
class RunReport:
    """Aggregate of one run: policy echo plus per-layer outcomes."""

    policy: dict
    layer_reports: list
    total_attn_flops_dense: int
    total_attn_flops_actual: int
    flops_reduction: float
    kv_bytes_dense: int
    kv_bytes_actual: int
    kv_reduction: float
    mean_ratio: float
    decode_attn_flops: int
    generated: list


def build_run_report(
    policy, layer_reports, d_head: int, heads: int, generated, decode_attn_flops: int = 0
) -> RunReport:
    dense = sum(attn_flops_dense(r.n, d_head, heads) for r in layer_reports)
    actual = sum(r.attn_flops for r in layer_reports)
    kv_dense = sum(2 * heads * r.n * d_head * 4 for r in layer_reports)
    kv_actual = sum(r.kv_bytes for r in layer_reports)
    return RunReport(
        policy=dataclasses.asdict(policy),
        layer_reports=list(layer_reports),
        total_attn_flops_dense=dense,
        total_attn_flops_actual=actual,
        flops_reduction=1.0 - actual / dense,
        kv_bytes_dense=kv_dense,
        kv_bytes_actual=kv_actual,
        kv_reduction=1.0 - kv_actual / kv_dense,
        mean_ratio=float(np.mean([r.ratio for r in layer_reports])),
        decode_attn_flops=decode_attn_flops,
        generated=[int(t) for t in generated],
    )
