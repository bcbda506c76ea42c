"""Tests for synthetic score workloads and the score-driven evaluator."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from zipvl import budget, workload
from zipvl.engine import SparsityPolicy
from zipvl.errors import ConfigError, DomainError, FormatError


class TestGenerate:
    def test_shapes_and_mass(self):
        scores = workload.generate_workload("peaked", 100, 3, 8.0, seed=1)
        assert scores.shape == (3, 100)
        assert scores.dtype == np.float32
        assert np.all(scores >= 0)
        for row in scores:
            assert abs(float(row.sum()) - 100.0) <= 1e-3 * 100

    def test_deterministic(self):
        a = workload.generate_workload("diffuse", 50, 2, 4.0, seed=7)
        b = workload.generate_workload("diffuse", 50, 2, 4.0, seed=7)
        assert np.array_equal(a, b)

    def test_peaked_concentrates_mass(self):
        # at matched concentration the top-10 tokens hold most of a peaked
        # row's mass and a sliver of a diffuse row's (10/200 = 5% baseline)
        peaked = workload.generate_workload("peaked", 200, 1, 16.0, seed=3)[0]
        diffuse = workload.generate_workload("diffuse", 200, 1, 16.0, seed=3)[0]
        top10 = lambda v: float(np.sort(v)[::-1][:10].sum()) / float(v.sum())
        assert top10(peaked) > 0.5
        assert top10(diffuse) < 0.1

    def test_infinite_concentration_is_uniform(self):
        scores = workload.generate_workload("diffuse", 64, 2, float("inf"), seed=9)
        assert np.all(scores == 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            workload.generate_workload("spiky", 10, 1, 1.0, seed=0)
        with pytest.raises(DomainError):
            workload.generate_workload("peaked", 0, 1, 1.0, seed=0)
        with pytest.raises(DomainError):
            workload.generate_workload("peaked", 10, 1, 0.0, seed=0)


class TestCsvRoundTrip:
    def test_roundtrip_bitwise(self):
        scores = workload.generate_workload("peaked", 40, 3, 8.0, seed=2)
        text = workload.workload_to_csv_text(scores)
        back = workload.read_workload_csv(io.StringIO(text))
        assert np.array_equal(back, scores)

    def test_header_enforced(self):
        with pytest.raises(FormatError):
            workload.read_workload_csv(io.StringIO("a,b,c\n0,0,1.0\n"))

    def test_ragged_rejected(self):
        text = "layer,token,score\n0,0,1.0\n0,1,1.0\n1,0,1.0\n"
        with pytest.raises(FormatError):
            workload.read_workload_csv(io.StringIO(text))

    def test_out_of_order_rejected(self):
        text = "layer,token,score\n0,1,1.0\n0,0,1.0\n"
        with pytest.raises(FormatError):
            workload.read_workload_csv(io.StringIO(text))

    def test_non_numeric_rejected(self):
        text = "layer,token,score\n0,0,abc\n"
        with pytest.raises(FormatError):
            workload.read_workload_csv(io.StringIO(text))

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            workload.read_workload_csv(io.StringIO("layer,token,score\n"))


class TestEvaluate:
    def test_adaptive_budgets_match_oracle(self):
        scores = workload.generate_workload("peaked", 80, 4, 8.0, seed=5)
        pol = SparsityPolicy(mode="zipvl-exact", tau=0.9)
        reports = workload.evaluate_score_workload(scores, pol)
        assert len(reports) == 4
        for layer, r in enumerate(reports):
            vec = scores[layer]
            mass = float(np.sum(vec, dtype=np.float64))
            assert r.p == oracles.budget_oracle(vec, 0.9, mass)
            assert r.retained_mass >= 0.9 - 1e-12

    def test_peaked_needs_fewer_tokens_than_diffuse(self):
        peaked = workload.generate_workload("peaked", 128, 2, 16.0, seed=6)
        diffuse = workload.generate_workload("diffuse", 128, 2, 16.0, seed=6)
        pol = SparsityPolicy(mode="zipvl-exact", tau=0.9)
        p_peaked = np.mean([r.p for r in workload.evaluate_score_workload(peaked, pol)])
        p_diffuse = np.mean([r.p for r in workload.evaluate_score_workload(diffuse, pol)])
        assert p_peaked < p_diffuse

    def test_fixed_mode_reports_actual_mass(self):
        scores = workload.generate_workload("diffuse", 64, 2, 8.0, seed=7)
        pol = SparsityPolicy(mode="fixed", fixed_ratio=0.25)
        reports = workload.evaluate_score_workload(scores, pol)
        for layer, r in enumerate(reports):
            assert r.p == 16
            mass = float(np.sum(scores[layer], dtype=np.float64))
            expect = budget.top_mass_fraction(scores[layer], 16, mass)
            assert abs(r.retained_mass - expect) <= 1e-12

    def test_probe_mode_rejected(self):
        scores = workload.generate_workload("peaked", 16, 1, 4.0, seed=8)
        with pytest.raises(ConfigError):
            workload.evaluate_score_workload(scores, SparsityPolicy(mode="zipvl-probe"))

    def test_bad_shape_rejected(self):
        with pytest.raises(DomainError):
            workload.evaluate_score_workload(np.ones(5), SparsityPolicy())

    def test_keep_last_raises_every_budget_to_the_window(self):
        scores = workload.generate_workload("peaked", 256, 2, 8.0, seed=11)
        plain = SparsityPolicy(mode="zipvl-exact", tau=0.5)
        kept = workload.evaluate_score_workload(scores, plain)
        assert all(r.p < 64 for r in kept)  # the window must matter here
        pol = SparsityPolicy(mode="zipvl-exact", tau=0.5, keep_last=64)
        for layer, r in enumerate(workload.evaluate_score_workload(scores, pol)):
            assert r.p == r.kv_rows == 64
            assert r.kv_bytes == 2 * 64 * 4
            _, part = budget.plan_layer(pol.mode, 256, scores[layer], scores[layer], 0.5, 0.5, 64)
            assert part.important.tolist() == list(range(192, 256))

    def test_retained_mass_is_the_budgets_top_mass(self):
        # the keep_last window outgrows the budget: p counts the kept tokens,
        # retained_mass stays the share of the budget's own top-p tokens
        scores = workload.generate_workload("peaked", 256, 2, 8.0, seed=11)
        pol = SparsityPolicy(mode="zipvl-exact", tau=0.5, keep_last=64)
        for layer, r in enumerate(workload.evaluate_score_workload(scores, pol)):
            vec = scores[layer]
            mass = float(np.sum(vec, dtype=np.float64))
            budget_p = budget.adaptive_budget(vec, 0.5, mass).p
            assert budget_p < r.p == 64
            assert r.retained_mass == budget.top_mass_fraction(vec, budget_p, mass)
            kept_mass = float(np.sum(vec[-64:], dtype=np.float64)) / mass
            assert kept_mass < r.retained_mass

    def test_quantize_rejected(self):
        scores = workload.generate_workload("peaked", 16, 1, 4.0, seed=8)
        with pytest.raises(ConfigError):
            workload.evaluate_score_workload(scores, SparsityPolicy(quantize=True))

    def test_dense_first_layers_apply(self):
        scores = workload.generate_workload("peaked", 64, 3, 8.0, seed=12)
        pol = SparsityPolicy(mode="zipvl-exact", tau=0.5, dense_first_layers=2)
        reports = workload.evaluate_score_workload(scores, pol)
        assert [r.p for r in reports[:2]] == [64, 64]
        assert reports[2].p < 64

    @given(st.integers(2, 60), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_property_tau_monotone_mean_ratio(self, n, layers, seed):
        scores = workload.generate_workload("peaked", n, layers, 8.0, seed=seed)
        ratios = []
        for tau in (0.5, 0.8, 0.95, 1.0):
            pol = SparsityPolicy(mode="zipvl-exact", tau=tau)
            reports = workload.evaluate_score_workload(scores, pol)
            ratios.append(np.mean([r.ratio for r in reports]))
        assert ratios == sorted(ratios)
        assert ratios[-1] == 1.0
