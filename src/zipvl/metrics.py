"""FLOP and KV-memory accounting for sparse-attention runs.

This module owns every charge a report carries but one: a quantized
layer's packed size, which kvcache.quantize_mixed computes from the bits it
assigns and prefill passes on as the layer's kv_bytes. A layer's report
reads its kept count, mass share and probe rows from the layer's
budget.LayerPlan, the record the prefill trace reads too.

Conventions: one fused multiply-add counts as two FLOPs; attention cost
per head over r query rows and c key columns is 4*r*c*d_head (scores plus
the weighted value sum).
Prefill attention over a layer's p important tokens is charged 4*p*p*d_head
per head, and probe scoring 2*probe_rows*n*d_head per head (scores only;
the probe pass produces no value outputs). Decode step s, counted from 1,
is charged 4*(kv_rows + s)*d_head per head and layer: the prefill rows plus
the s rows decode has appended. Only prefill attention enters the reduction
figures, so a fixed retention ratio maps to exact reduction numbers. Not
charged: projections, the MLP, norms, and the scoring pass over all n rows
that zipvl-exact and fixed layers make. The probe charge counts the logit
products only, and understates the probe pass's time: every probe block
spans nearly every key, so with the default 64 recent and 64 drawn rows it
forms about 128*n weights, and each weight's exp and float64 column sum
costs more than its 2*d_head multiply-adds at d_head 16. At n=2048 the
charge is about 3% of dense attention's flops, while the pass took about
a fifth of dense attention's time (2-core x86_64, one BLAS thread). Cache
bytes are float32 K and V, 2*heads*rows*d_head*4, unless a quantizer
reports its packed size instead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .budget import LayerPlan


def attn_flops_dense(n: int, d_head: int, heads: int) -> int:
    """Full causal attention cost for one layer of an n-token prefill."""
    return 4 * n * n * d_head * heads


def attn_flops_sparse(p: int, n: int, d_head: int, heads: int, probe_rows: int = 0) -> int:
    """Restricted attention over p tokens plus an optional probe-score pass."""
    return 4 * p * p * d_head * heads + 2 * probe_rows * n * d_head * heads


def kv_bytes(rows: int, d_head: int, heads: int) -> int:
    """Float32 K and V bytes of one layer's `rows` live cache rows (not spare capacity)."""
    return 2 * heads * rows * d_head * 4


@dataclass(frozen=True)
class LayerReport:
    """Per-layer outcome of one prefill pass.

    p, retained_mass and probe_rows are the layer's budget.LayerPlan's, p
    the size of its important set.
    """

    layer: int
    n: int
    p: int
    ratio: float
    retained_mass: float
    attn_flops: int
    kv_rows: int
    probe_rows: int
    kv_bytes: int


def layer_report(
    layer: int, n: int, plan: LayerPlan, d_head: int, heads: int, kv_rows: int, kv_bytes: int
) -> LayerReport:
    """The report of a layer planned as `plan`: its kept count, ratio, mass share and flops."""
    p = int(plan.important.size)
    flops = attn_flops_sparse(p, n, d_head, heads, plan.probe_rows)
    return LayerReport(
        layer, n, p, p / n, plan.retained_mass, flops, kv_rows, plan.probe_rows, kv_bytes
    )


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


def build_run_report(policy, layer_reports, d_head: int, heads: int, generated) -> RunReport:
    """Sum the layer reports; each generated token is charged as one decode step."""
    dense = sum(attn_flops_dense(r.n, d_head, heads) for r in layer_reports)
    actual = sum(r.attn_flops for r in layer_reports)
    kv_dense = sum(kv_bytes(r.n, d_head, heads) for r in layer_reports)
    kv_actual = sum(r.kv_bytes for r in layer_reports)
    steps = len(generated)
    # step s (from 1) attends over each layer's prefill rows + s
    visited = steps * sum(r.kv_rows for r in layer_reports)
    visited += len(layer_reports) * steps * (steps + 1) // 2
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
        decode_attn_flops=4 * visited * d_head * heads,
        generated=[int(t) for t in generated],
    )
