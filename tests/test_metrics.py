"""Tests for the FLOP/byte accounting formulas and report assembly."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zipvl import budget, metrics
from zipvl.engine import SparsityPolicy


def make_report(layer, n, p, probe_rows=0, d_head=4, heads=2):
    return metrics.LayerReport(
        layer=layer,
        n=n,
        p=p,
        ratio=p / n,
        retained_mass=1.0,
        attn_flops=metrics.attn_flops_sparse(p, n, d_head, heads, probe_rows),
        kv_rows=p,
        probe_rows=probe_rows,
        kv_bytes=2 * heads * p * d_head * 4,
    )


class TestFlopsFormulas:
    def test_dense_formula(self):
        assert metrics.attn_flops_dense(10, 8, 2) == 4 * 100 * 8 * 2

    def test_sparse_reduces_to_dense_at_full_budget(self):
        assert metrics.attn_flops_sparse(10, 10, 8, 2) == metrics.attn_flops_dense(10, 8, 2)

    def test_probe_term(self):
        base = metrics.attn_flops_sparse(5, 10, 8, 2)
        with_probe = metrics.attn_flops_sparse(5, 10, 8, 2, probe_rows=3)
        assert with_probe - base == 2 * 3 * 10 * 8 * 2

    def test_half_budget_quarters_the_flops(self):
        dense = metrics.attn_flops_dense(128, 8, 2)
        sparse = metrics.attn_flops_sparse(64, 128, 8, 2)
        assert sparse * 4 == dense

    @given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 32), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_property_monotone_in_p(self, p, n, d_head, heads):
        if p > n:
            p, n = n, p
        assert metrics.attn_flops_sparse(p, n, d_head, heads) <= metrics.attn_flops_dense(
            n, d_head, heads
        )


class TestLayerReport:
    def test_derives_ratio_and_flops(self):
        plan = budget.LayerPlan(np.arange(10), 1.0, 5, None, None)
        got = metrics.layer_report(3, 40, plan, 4, 2, 10, metrics.kv_bytes(10, d_head=4, heads=2))
        assert got == make_report(3, 40, 10, probe_rows=5)
        assert got.ratio == 0.25

    def test_kv_bytes_formula(self):
        assert metrics.kv_bytes(10, d_head=8, heads=3) == 2 * 3 * 10 * 8 * 4
        assert metrics.kv_bytes(0, d_head=8, heads=3) == 0


class TestRunReport:
    def test_totals_and_reductions(self):
        reports = [make_report(0, 100, 50), make_report(1, 100, 50)]
        run = metrics.build_run_report(
            policy=SparsityPolicy(mode="fixed", fixed_ratio=0.5),
            layer_reports=reports,
            d_head=4,
            heads=2,
            generated=[1, 2],
        )
        assert run.flops_reduction == 0.75
        assert run.kv_reduction == 0.5
        assert run.mean_ratio == 0.5
        assert run.total_attn_flops_dense == 2 * metrics.attn_flops_dense(100, 4, 2)
        assert run.generated == [1, 2]

    def test_asdict_is_json_ready(self):
        import dataclasses
        import json

        run = metrics.build_run_report(
            policy=SparsityPolicy(),
            layer_reports=[make_report(0, 10, 10)],
            d_head=4,
            heads=2,
            generated=[],
        )
        blob = json.dumps(dataclasses.asdict(run), sort_keys=True)
        assert '"mean_ratio"' in blob
        assert '"layer_reports"' in blob

    def test_policy_echoed(self):
        pol = SparsityPolicy(mode="zipvl-probe", tau=0.9, probe_recent=7)
        run = metrics.build_run_report(
            policy=pol, layer_reports=[make_report(0, 8, 4)], d_head=4, heads=2, generated=[]
        )
        assert run.policy["mode"] == "zipvl-probe"
        assert run.policy["probe_recent"] == 7

    @given(
        st.lists(st.integers(1, 64), min_size=1, max_size=6),
        st.integers(0, 12),
        st.integers(1, 16),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_decode_flops_charge_each_step(self, kept, steps, d_head, heads):
        # step s (from 1) attends over each layer's prefill rows + the s rows decode appended
        reports = [make_report(i, 64, p, d_head=d_head, heads=heads) for i, p in enumerate(kept)]
        run = metrics.build_run_report(
            SparsityPolicy(), reports, d_head, heads, generated=list(range(steps))
        )
        want = sum(
            4 * (r.kv_rows + s) * d_head * heads for s in range(1, steps + 1) for r in reports
        )
        assert run.decode_attn_flops == want
        idle = metrics.build_run_report(SparsityPolicy(), reports, d_head, heads, generated=[])
        assert idle.decode_attn_flops == 0
