"""Capped measure changes: the delta transform, bounds, value caps."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_oracle as oracle
import viatree.measure_change
from viatree import (
    ArbitrageError,
    MarketModel,
    check_na,
    construct_q_delta,
    crra_utility,
    delta_for_epsilon,
    min_entropy_emm,
    verify_value_bound,
)
from viatree.generators import random_martingale_density, random_tree
from viatree.measure_change import DELTA_MAX, REL_RESOLUTION
from viatree.trees import EventTree


def random_terminal_density(tree, rng):
    p = tree.unconditional_probs()[tree.leaves]
    q = rng.uniform(0.1, 3.0, size=tree.leaves.size)
    return q / float(p @ q)


def lognormal_terminal_density(tree, rng, sigma):
    p = tree.unconditional_probs()[tree.leaves]
    q = np.exp(sigma * rng.standard_normal(tree.leaves.size))
    return q / float(p @ q)


def assert_feasible_and_maximal(t, q, dm, eps):
    assert dm.l1_dist <= eps
    if dm.delta < 0.999:
        up = construct_q_delta(t, q, dm.delta * (1.0 + 1e-9))
        assert up.l1_dist >= eps - 1e-12


def budget_cases():
    """The markets of TestDeltaForEpsilon.test_meets_budget_and_is_maximal."""
    for seed in range(10):
        for eps in (0.5, 0.1, 0.01):
            rng = np.random.default_rng(seed)
            t = random_tree(rng, depth_range=(1, 3))
            yield t, random_terminal_density(t, rng), eps


def deep_cases():
    """The markets of test_level_kernels.test_delta_for_epsilon_matches_the_bisection."""
    for depth in (6, 7):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            t = random_tree(rng, depth_range=(depth, depth), branch_range=(2, 3))
            q = random_martingale_density(t, rng).z[t.leaves]
            for eps in (2.0, 0.5, 0.1, 0.01):
                yield t, q, eps


class TestConstruct:
    def test_hand_example(self, one_period_binary_tree):
        t = one_period_binary_tree
        dm = construct_q_delta(t, np.array([0.5, 1.5]), delta=0.5)
        assert np.allclose(dm.q_delta, [0.5, 0.75])
        assert dm.e_q_delta == pytest.approx(0.625)
        assert np.allclose(dm.z_leaf, [0.8, 1.2])
        assert dm.l1_dist == pytest.approx(0.2)
        # Delta0 = E[q/(1+q)] = 0.5*(1/3) + 0.5*(0.6) = 7/15
        assert dm.delta0 == pytest.approx(7.0 / 15.0)
        assert dm.bound == pytest.approx(15.0 / 7.0)

    def test_density_glues_to_tree(self, one_period_binary_tree):
        dm = construct_q_delta(one_period_binary_tree, np.array([0.5, 1.5]), 0.5)
        assert dm.density.z[0] == 1.0
        assert np.allclose(
            dm.density.z[one_period_binary_tree.leaves], dm.z_leaf
        )
        assert dm.density.martingale_residual(one_period_binary_tree) < 1e-12

    def test_delta_range_enforced(self, one_period_binary_tree):
        q = np.array([0.5, 1.5])
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="delta"):
                construct_q_delta(one_period_binary_tree, q, bad)

    def test_q_must_be_positive_mean_one(self, one_period_binary_tree):
        with pytest.raises(ValueError, match="positive"):
            construct_q_delta(one_period_binary_tree, np.array([-0.5, 2.5]), 0.5)
        with pytest.raises(ValueError, match="mean 1"):
            construct_q_delta(one_period_binary_tree, np.array([2.0, 2.0]), 0.5)

    def test_q_shape_checked(self, one_period_binary_tree):
        with pytest.raises(ValueError, match="per leaf"):
            construct_q_delta(one_period_binary_tree, np.ones(3), 0.5)

    @pytest.mark.parametrize("seed", range(20))
    def test_invariants_on_random_densities(self, seed):
        rng = np.random.default_rng(seed)
        t = random_tree(rng, depth_range=(1, 3))
        q = random_terminal_density(t, rng)
        p = t.unconditional_probs()[t.leaves]
        for delta in (0.9, 0.5, 0.1, 1e-4):
            dm = construct_q_delta(t, q, delta)
            # normalized, bounded, equivalent
            assert abs(float(p @ dm.z_leaf) - 1.0) <= 1e-12
            assert float(dm.z_leaf.max()) <= dm.bound + 1e-12
            assert dm.z_leaf.min() > 0.0

    def test_l1_shrinks_with_delta(self, one_period_binary_tree):
        q = np.array([0.5, 1.5])
        dists = [
            construct_q_delta(one_period_binary_tree, q, d).l1_dist
            for d in (0.9, 0.5, 0.1, 0.01)
        ]
        assert dists == sorted(dists, reverse=True)
        assert dists[-1] < 0.01


class TestDeltaForEpsilon:
    def test_hand_example_boundary(self, one_period_binary_tree):
        # l1(delta) = 0.1 exactly at delta = 3/16 for q = (0.5, 1.5)
        dm = delta_for_epsilon(one_period_binary_tree, np.array([0.5, 1.5]), 0.1)
        assert dm.delta == pytest.approx(0.1875, abs=1e-10)
        assert dm.l1_dist <= 0.1

    def test_loose_epsilon_takes_top_delta(self, one_period_binary_tree):
        # l1 at delta -> 1 stays below a loose budget, so the cap is returned
        dm = delta_for_epsilon(one_period_binary_tree, np.array([0.5, 1.5]), 0.9)
        assert dm.delta == pytest.approx(1.0 - 1e-9)

    def test_epsilon_must_be_positive(self, one_period_binary_tree):
        with pytest.raises(ValueError, match="eps"):
            delta_for_epsilon(one_period_binary_tree, np.array([0.5, 1.5]), 0.0)

    def test_nan_epsilon_rejected(self, one_period_binary_tree):
        # a NaN budget once halved the grid 200 times and then blamed q
        with pytest.raises(ValueError, match="eps must be positive, got nan"):
            delta_for_epsilon(one_period_binary_tree, np.array([0.5, 1.5]), math.nan)

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    @pytest.mark.parametrize("seed", range(10))
    def test_meets_budget_and_is_maximal(self, eps, seed):
        rng = np.random.default_rng(seed)
        t = random_tree(rng, depth_range=(1, 3))
        q = random_terminal_density(t, rng)
        dm = delta_for_epsilon(t, q, eps)
        assert dm.l1_dist <= eps
        p = t.unconditional_probs()[t.leaves]
        assert abs(float(p @ dm.z_leaf) - 1.0) <= 1e-12
        assert float(dm.z_leaf.max()) <= dm.bound + 1e-12
        if dm.delta < 0.999:
            # maximality: nudging delta up by 1e-9 relative breaks the budget
            up = construct_q_delta(t, q, dm.delta * (1.0 + 1e-9))
            assert up.l1_dist >= eps - 1e-12


class TestSearchCost:
    """The regula falsi search evaluates the leaf fields about a dozen times
    per call; the bisection it replaced took about 45-50."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        fields = viatree.measure_change._leaf_fields

        def counting(*args):
            calls.append(1)
            return fields(*args)

        monkeypatch.setattr(viatree.measure_change, "_leaf_fields", counting)

        def count(t, q, eps):
            calls.clear()
            dm = delta_for_epsilon(t, q, eps)
            return dm, len(calls)

        return count

    @pytest.mark.parametrize("cases", [budget_cases, deep_cases], ids=["budget", "deep"])
    def test_evaluations_per_call(self, evaluations, cases):
        counts = []
        for t, q, eps in cases():
            dm, n = evaluations(t, q, eps)
            assert dm.l1_dist <= eps
            counts.append(n)
        assert max(counts) <= 40
        assert statistics.median(counts) <= 16

    def test_budget_at_the_top_distance_takes_one_evaluation(self, evaluations):
        rng = np.random.default_rng(4)
        t = random_tree(rng, depth_range=(2, 4))
        q = random_terminal_density(t, rng)
        top = construct_q_delta(t, q, DELTA_MAX).l1_dist
        for eps in (top, 2.0 * top):
            dm, n = evaluations(t, q, eps)
            assert n == 1 and dm.delta == DELTA_MAX and dm.l1_dist == top

    @pytest.mark.parametrize("seed", range(10))
    def test_tiny_budget(self, seed):
        # below eps 1e-4 the float l1 carries rounding noise of about 1e-8
        # relative in delta, so feasibility and maximality are the contract
        rng = np.random.default_rng(seed)
        t = random_tree(rng, depth_range=(1, 4))
        q = random_terminal_density(t, rng)
        dm = delta_for_epsilon(t, q, 1e-8)
        assert 0.0 < dm.delta < 1e-6
        assert_feasible_and_maximal(t, q, dm, 1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_lognormal_density_with_sigma_4(self, seed):
        rng = np.random.default_rng(seed)
        t = random_tree(rng, depth_range=(1, 4))
        q = lognormal_terminal_density(t, rng, 4.0)
        for eps in (0.5, 0.1, 0.01, 1e-4, 1e-8):
            dm = delta_for_epsilon(t, q, eps)
            assert_feasible_and_maximal(t, q, dm, eps)
            if eps >= 0.01:
                old = oracle.delta_for_epsilon(t, q, eps)
                assert abs(dm.delta - old.delta) <= 4 * REL_RESOLUTION * old.delta


class TestValueBound:
    @pytest.mark.parametrize(
        "name", ["binomial", "binomial_skew", "trinomial", "two_period", "constant"]
    )
    def test_bound_holds_on_fixtures(self, name, request):
        from viatree import load_fixture

        m = load_fixture(name)
        q = min_entropy_emm(m).density.z[m.tree.leaves]
        dm = delta_for_epsilon(m.tree, q, 0.25)
        rep = verify_value_bound(m, dm, x0=1.0)
        assert rep["passed"]
        assert rep["value"] <= rep["bound"] + rep["tol"]
        assert rep["q_residual"] <= 1e-9

    def test_bound_holds_for_crra(self, binomial):
        q = check_na(binomial).density.z[binomial.tree.leaves]
        dm = delta_for_epsilon(binomial.tree, q, 0.5)
        rep = verify_value_bound(binomial, dm, utility=crra_utility(2.0), x0=1.0)
        assert rep["passed"]

    def test_non_martingale_q_rejected(self, binomial):
        # mean-one terminal density that is not a price martingale transform
        q = np.array([1.6, 0.4])
        with pytest.raises(ValueError, match="martingale"):
            verify_value_bound(
                binomial, delta_for_epsilon(binomial.tree, q, 0.5)
            )

    def test_arbitrage_that_passes_the_residual_check_raises(self):
        # both children sit above the root: q = 1 leaves a price residual of
        # 3e-10, inside the check, yet the sweep certifies arbitrage; a solve
        # without the sweep reported value 10.3 against a bound of 1.1
        tree = EventTree([None, 0, 0], [1.0, 0.5, 0.5])
        m = MarketModel(tree, np.array([[1e-3], [1e-3 + 4e-10], [1e-3 + 2e-10]]))
        with pytest.raises(ArbitrageError, match="q passed its price residual check") as e:
            verify_value_bound(m, construct_q_delta(tree, np.ones(2), 0.5))
        assert e.value.certificate.verdict == "ARBITRAGE"


@settings(max_examples=40, deadline=None)
@given(
    q1=st.floats(0.05, 5.0),
    delta=st.floats(1e-6, 1.0 - 1e-6, exclude_max=True),
)
def test_bound_is_uniform_in_delta(q1, delta):
    # binary tree, q = (q1, q2) normalized; bound 1/Delta0 never depends on delta
    t = EventTree([None, 0, 0], [1.0, 0.5, 0.5])
    q = np.array([q1, 2.0 - q1]) if q1 < 2.0 else np.array([q1, q1])
    q = q / (0.5 * q.sum())
    dm = construct_q_delta(t, q, delta)
    assert float(dm.z_leaf.max()) <= dm.bound + 1e-12
