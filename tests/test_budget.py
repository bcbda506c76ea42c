"""Tests for adaptive/fixed budgets and the important-token array."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from zipvl import attention, budget, numkit
from zipvl.engine import SparsityPolicy
from zipvl.errors import BoundsError, DomainError, EmptySequenceError

score_vectors = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32),
    min_size=1,
    max_size=80,
).map(lambda xs: np.array(xs, dtype=np.float32))


class TestAdaptiveBudget:
    def test_simple_hand_case(self):
        # sorted desc: 5, 3, 1, 1; mass 10; tau=0.8 -> need 8 -> p=2 (5+3)
        v = np.array([3.0, 1.0, 5.0, 1.0], dtype=np.float32)
        p, retained = budget.adaptive_budget(v, 0.8, 10.0)
        assert p == 2
        assert abs(retained - 0.8) <= 1e-12

    def test_threshold_met_exactly_is_enough(self):
        v = np.array([4.0, 4.0, 2.0], dtype=np.float32)
        assert budget.adaptive_budget(v, 0.4, 10.0)[0] == 1
        assert budget.adaptive_budget(v, 0.8, 10.0)[0] == 2

    def test_single_heavy_hitter_keeps_one_token(self):
        # one token owns ~99.999% of the mass, so any tau below that keeps p=1
        v = np.full(512, 1e-4, dtype=np.float32)
        v[137] = 4096.0
        mass = float(np.sum(v.astype(np.float64)))
        p, retained = budget.adaptive_budget(v, 0.975, mass)
        assert p == 1
        assert retained >= 0.975

    def test_tau_one_keeps_everything(self):
        v = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        mass = float(np.sum(v.astype(np.float64)))
        p, retained = budget.adaptive_budget(v, 1.0, mass)
        assert p == 3
        assert retained >= 1.0 - 1e-12

    def test_p_at_least_one(self):
        v = np.zeros(5, dtype=np.float32)
        assert budget.adaptive_budget(v, 0.5, 0.0) == (1, 1.0)

    def test_domain_errors(self):
        with pytest.raises(EmptySequenceError):
            budget.adaptive_budget(np.array([]), 0.5, 0.0)
        with pytest.raises(DomainError):
            budget.adaptive_budget(np.ones(3), 0.0, 3.0)
        with pytest.raises(DomainError):
            budget.adaptive_budget(np.ones(3), 1.5, 3.0)
        with pytest.raises(DomainError):
            budget.adaptive_budget(np.array([1.0, -1.0]), 0.5, 0.0)

    @given(score_vectors, st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_oracle(self, v, tau):
        mass = float(np.sum(v, dtype=np.float64))
        p, _ = budget.adaptive_budget(v, tau, mass)
        assert p == oracles.budget_oracle(v, tau, mass)

    @given(score_vectors)
    @settings(max_examples=100, deadline=None)
    def test_property_monotone_in_tau(self, v):
        mass = float(np.sum(v, dtype=np.float64))
        taus = [0.2, 0.5, 0.8, 0.95, 1.0]
        budgets = [budget.adaptive_budget(v, t, mass) for t in taus]
        ps = [p for p, _ in budgets]
        assert ps == sorted(ps)
        # tau=1.0 must still cover the full mass
        assert budgets[-1][1] >= 1.0 - 1e-12

    @given(score_vectors, st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_property_retained_mass_reaches_tau(self, v, tau):
        mass = float(np.sum(v, dtype=np.float64))
        p, retained = budget.adaptive_budget(v, tau, mass)
        if mass > 0 and p < v.size:
            # below n the threshold must have been reached
            assert retained >= tau - 1e-12

    @given(score_vectors, st.floats(min_value=0.01, max_value=0.999, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_property_minimality(self, v, tau):
        # below tau=1.0 (where full retention is definitional) the budget
        # is the smallest p reaching the threshold
        mass = float(np.sum(v, dtype=np.float64))
        p, _ = budget.adaptive_budget(v, tau, mass)
        if p > 1 and mass > 0:
            assert budget.top_mass_fraction(v, p - 1, mass) < tau

    @given(score_vectors)
    @settings(max_examples=50, deadline=None)
    def test_property_tau_one_keeps_all(self, v):
        mass = float(np.sum(v, dtype=np.float64))
        assert budget.adaptive_budget(v, 1.0, mass)[0] == v.size


class TestFixedBudget:
    def test_half_ratio_even_n(self):
        assert budget.fixed_budget(128, 0.5) == 64

    def test_rounding_half_away_from_zero(self):
        assert budget.fixed_budget(5, 0.5) == 3  # 2.5 rounds up
        assert budget.fixed_budget(5, 0.49) == 2
        assert budget.fixed_budget(3, 0.1) == 1  # floor at one
        assert budget.fixed_budget(7, 1.0) == 7

    def test_domain(self):
        with pytest.raises(DomainError):
            budget.fixed_budget(10, 0.0)
        with pytest.raises(DomainError):
            budget.fixed_budget(10, 1.2)
        with pytest.raises(EmptySequenceError):
            budget.fixed_budget(0, 0.5)

    @given(st.integers(1, 500), st.floats(min_value=0.001, max_value=1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_property_in_range(self, n, ratio):
        assert 1 <= budget.fixed_budget(n, ratio) <= n


class TestTopMassFraction:
    def test_matches_manual(self):
        v = np.array([1.0, 3.0, 6.0], dtype=np.float32)
        assert abs(budget.top_mass_fraction(v, 1, 10.0) - 0.6) <= 1e-12
        assert abs(budget.top_mass_fraction(v, 3, 10.0) - 1.0) <= 1e-12

    def test_bounds(self):
        with pytest.raises(BoundsError):
            budget.top_mass_fraction(np.ones(3), 0, 3.0)
        with pytest.raises(BoundsError):
            budget.top_mass_fraction(np.ones(3), 4, 3.0)


class TestMassShare:
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 400),
        st.sampled_from([0.05, 0.2, 1.0]), st.floats(0.0, 0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_share_at_most_one_and_one_when_all_kept(self, seed, n, shape, zeros):
        # heavy-tailed float32 scores with a zeroed patch: the descending
        # cumsum and the mass add in different orders, so a raw quotient can
        # land a hair off 1.0 either way
        rng = numkit.make_rng(seed)
        v = rng.gamma(shape, size=n).astype(np.float32)
        start = int(rng.integers(0, n))
        v[start : start + int(zeros * n)] = 0.0
        mass = float(np.sum(v, dtype=np.float64))
        shares = [budget.top_mass_fraction(v, p, mass) for p in range(1, n + 1)]
        assert max(shares) <= 1.0 and shares[-1] == 1.0
        assert budget.adaptive_budget(v, 1.0, mass) == (n, 1.0)
        for pol in (SparsityPolicy(mode="zipvl-exact", tau=1.0),
                    SparsityPolicy(mode="fixed", fixed_ratio=1.0)):
            plan = budget.plan_layer(pol, n, scored_by(v))
            assert (plan.important.size, plan.retained_mass) == (n, 1.0)


def scored_by(accumulated, normalized=None):
    """A plan_layer score callback that hands back fixed vectors and records each probe."""

    def score(probe):
        score.probes.append(probe)
        return accumulated, accumulated if normalized is None else normalized

    score.probes = []
    return score


def never_called(probe):
    raise AssertionError("mode dense must not score")


class TestPlanLayer:
    v = np.array([0.5, 4.0, 0.25, 2.0, 1.0, 0.25], dtype=np.float32)

    def test_dense_keeps_everything(self):
        pol = SparsityPolicy(mode="dense", tau=0.5)
        plan = budget.plan_layer(pol, 6, never_called)
        assert (plan.important.size, plan.retained_mass, plan.probe_rows) == (6, 1.0, 0)
        assert plan.important.tolist() == list(range(6))
        assert plan.accumulated is None and plan.normalized is None

    def test_dense_needs_only_the_token_count(self):
        # keep_last changes nothing where every token is kept
        pol = SparsityPolicy(mode="dense", tau=0.5, keep_last=3)
        plan = budget.plan_layer(pol, 6, never_called)
        assert plan.retained_mass == 1.0
        assert plan.important.dtype == np.int64
        assert plan.important.tolist() == list(range(6))

    def test_adaptive_and_fixed_match_their_budgets(self):
        mass = float(self.v.sum(dtype=np.float64))
        pol = SparsityPolicy(mode="zipvl-exact", tau=0.75, fixed_ratio=0.5)
        plan = budget.plan_layer(pol, 6, scored_by(self.v))
        assert (plan.important.size, plan.retained_mass) == budget.adaptive_budget(
            self.v, 0.75, mass
        )
        assert plan.important.tolist() == [1, 3]
        pol = SparsityPolicy(mode="fixed", tau=0.75, fixed_ratio=0.5)
        plan = budget.plan_layer(pol, 6, scored_by(self.v))
        assert plan.important.size == 3
        assert plan.retained_mass == budget.top_mass_fraction(self.v, 3, mass)
        assert plan.important.tolist() == [1, 3, 4]

    def test_sizes_and_ranks_by_separate_vectors(self):
        # the accumulated score sizes the budget and the normalized score fills it
        rank = self.v[::-1].copy()
        pol = SparsityPolicy(mode="zipvl-exact", tau=0.75)
        plan = budget.plan_layer(pol, 6, scored_by(self.v, rank))
        assert plan.important.size == 2
        assert plan.important.tolist() == [2, 4]
        assert plan.accumulated is self.v and plan.normalized is rank

    def test_keep_last_protects_the_trailing_window(self):
        # the window counts toward p: it displaces the weakest pick, and a
        # window wider than the budget raises the kept count to its width
        # the retained share stays the budget's: p = 2 holds exactly 6 of the mass 8
        mass = float(self.v.sum(dtype=np.float64))
        assert budget.top_mass_fraction(self.v, 2, mass) == 0.75

        def plan(keep_last):
            pol = SparsityPolicy(mode="zipvl-exact", tau=0.75, keep_last=keep_last)
            return budget.plan_layer(pol, 6, scored_by(self.v))

        assert (plan(1).important.tolist(), plan(1).retained_mass) == ([1, 5], 0.75)
        assert (plan(3).important.tolist(), plan(3).retained_mass) == ([3, 4, 5], 0.75)
        assert plan(99).important.tolist() == list(range(6))

    @pytest.mark.parametrize("mode", ["zipvl-exact", "zipvl-probe", "fixed"])
    @pytest.mark.parametrize("n, seed", [(6, 0), (40, 9), (300, 12345)])
    def test_scores_once_with_the_policys_probe_rows(self, mode, n, seed):
        # probe mode draws its rows from the seed and passes them with their
        # weights; every other scored mode asks for every row
        v = numkit.make_rng(seed).random(n).astype(np.float32)
        pol = SparsityPolicy(mode=mode, tau=0.9, probe_recent=3, probe_random=5)
        score = scored_by(v)
        plan = budget.plan_layer(pol, n, score, seed)
        [probe] = score.probes
        if mode != "zipvl-probe":
            assert probe is None and plan.probe_rows == 0
            return
        rows, weights = attention.select_probe_set(n, 3, 5, seed)
        assert np.array_equal(probe[0], rows) and probe[0].dtype == rows.dtype
        assert np.array_equal(probe[1], weights) and probe[1].dtype == weights.dtype
        assert plan.probe_rows == rows.size == min(n, 8)


class TestPartition:
    def test_partition_contents(self):
        v = np.array([0.1, 0.9, 0.5, 0.7], dtype=np.float32)
        important = budget.partition_tokens(v, 2)
        assert important.tolist() == [1, 3]
        assert np.setdiff1d(np.arange(4), important).tolist() == [0, 2]

    def test_tie_break_prefers_small_index(self):
        v = np.array([0.5, 0.5, 0.5], dtype=np.float32)
        assert budget.partition_tokens(v, 2).tolist() == [0, 1]

    @given(score_vectors, st.data())
    @settings(max_examples=100, deadline=None)
    def test_property_disjoint_cover_sorted(self, v, data):
        p = data.draw(st.integers(1, v.size))
        important = budget.partition_tokens(v, p)
        assert important.size == p
        assert important.dtype == np.int64
        assert 0 <= important.min() and important.max() < v.size
        dropped = np.setdiff1d(np.arange(v.size), important)
        both = np.concatenate([important, dropped])
        assert sorted(both.tolist()) == list(range(v.size))
        assert np.all(np.diff(important) > 0)
        # every kept score >= every dropped score
        if dropped.size:
            assert v[important].min() >= v[dropped].max()
