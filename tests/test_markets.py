"""Market models, wealth processes, density processes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viatree import (
    DensityProcess,
    FractionStrategy,
    MarketModel,
    UnitStrategy,
    density_from_leaf_values,
    price_martingale_residual,
    wealth_from_fractions,
    wealth_from_units,
)
from viatree.generators import random_market, random_martingale_density, random_tree
from viatree.markets import WealthKernel
from viatree.trees import EventTree, StoppingTime


class TestMarketModel:
    def test_shapes_and_returns(self, binomial):
        assert binomial.d == 1
        assert binomial.prices.shape == (3, 1)
        k = WealthKernel(binomial)
        assert np.allclose(k.dS[:, 0], [1.0, -0.5])
        assert np.allclose(k.returns[:, 0], [1.0, -0.5])

    def test_returns_scale_with_price(self, rng):
        t = EventTree([None, 0, 0], [1.0, 0.5, 0.5])
        m = MarketModel(tree=t, prices=np.array([[4.0], [6.0], [3.0]]))
        k = WealthKernel(m)
        assert np.allclose(k.dS[:, 0], [2.0, -1.0])
        assert np.allclose(k.returns[:, 0], [0.5, -0.25])

    def test_shape_mismatch_rejected(self, one_period_binary_tree):
        with pytest.raises(ValueError):
            MarketModel(tree=one_period_binary_tree, prices=np.ones((2, 1)))

    def test_zero_price_blocks_simple_returns(self, one_period_binary_tree):
        m = MarketModel(
            tree=one_period_binary_tree,
            prices=np.array([[0.0], [2.0], [1.0]]),
        )
        with pytest.raises(ValueError, match="node 0"):
            WealthKernel(m).returns


class TestWealth:
    def test_unit_strategy_gains(self, binomial):
        h = np.zeros((3, 1))
        h[0, 0] = 1.0
        w = wealth_from_units(binomial, UnitStrategy(holdings=h), x0=1.0)
        assert np.allclose(w.values, [1.0, 2.0, 0.5])
        assert w.terminal(binomial.tree) == pytest.approx([2.0, 0.5])

    def test_self_financing_residual_zero(self, two_period, rng):
        h = np.zeros_like(two_period.prices)
        h[two_period.tree.internal] = rng.standard_normal(
            (two_period.tree.internal.size, two_period.d)
        )
        w = wealth_from_units(two_period, UnitStrategy(holdings=h), x0=2.0)
        t = two_period.tree
        dw = w.values[t.edges] - w.values[t.edge_parent]
        dS = two_period.prices[t.edges] - two_period.prices[t.edge_parent]
        # self-financing: dW = h(node) . dS on every edge
        assert np.abs(dw - np.sum(h[t.edge_parent] * dS, axis=1)).max() < 1e-12

    def test_fraction_wealth_multiplicative(self, binomial):
        f = np.zeros((3, 1))
        f[0, 0] = 0.5
        w = wealth_from_fractions(binomial, FractionStrategy(fractions=f), x0=1.0)
        assert np.allclose(w.values, [1.0, 1.5, 0.75])

    def test_fraction_wealth_scales_linearly(self, two_period, rng):
        f = np.zeros_like(two_period.prices)
        f[two_period.tree.internal] = rng.uniform(
            -0.5, 0.5, (two_period.tree.internal.size, two_period.d)
        )
        s = FractionStrategy(fractions=f)
        w1 = wealth_from_fractions(two_period, s, x0=1.0)
        w3 = wealth_from_fractions(two_period, s, x0=3.0)
        assert np.allclose(w3.values, 3.0 * w1.values, rtol=0, atol=0)

    def test_infeasible_fraction_names_edge(self, binomial):
        f = np.zeros((3, 1))
        f[0, 0] = 2.0  # down factor 1 + 2*(-0.5) = 0
        with pytest.raises(ValueError, match="edge 0 -> 2"):
            wealth_from_fractions(binomial, FractionStrategy(fractions=f), x0=1.0)

    def test_holdings_shape_rejected(self, binomial):
        with pytest.raises(ValueError):
            wealth_from_units(binomial, UnitStrategy(holdings=np.ones((2, 1))), 1.0)


class TestDensityProcess:
    def test_root_must_be_one(self):
        with pytest.raises(ValueError, match="root"):
            DensityProcess(z=np.array([1.1, 1.0, 1.0]))

    def test_positivity_error_names_node(self):
        with pytest.raises(ValueError, match="node 2"):
            DensityProcess(z=np.array([1.0, 2.0, -0.5]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="node 1"):
            DensityProcess(z=np.array([1.0, np.nan, 1.0]))

    def test_martingale_residual_zero_for_glued(self, rng):
        t = random_tree(rng, depth_range=(3, 3))
        dp = random_martingale_density(t, rng)
        assert dp.martingale_residual(t) < 1e-12
        assert dp.is_martingale(t)

    def test_martingale_residual_detects_drift(self, one_period_binary_tree):
        dp = DensityProcess(z=np.array([1.0, 1.2, 1.0]))
        assert dp.martingale_residual(one_period_binary_tree) == pytest.approx(0.1)
        assert not dp.is_martingale(one_period_binary_tree)

    @pytest.mark.parametrize("gap, ok", [(1.2e-9, True), (2e-9, False)])
    def test_one_martingale_rule(self, gap, ok, one_period_binary_tree):
        # the gate is 1e-9 x max(1, max z) = 1.5e-9 here, above the 1.2e-9 gap
        dp = DensityProcess(z=np.array([1.0, 1.5 + 2 * gap, 0.5]))
        assert dp.martingale_residual(one_period_binary_tree) == pytest.approx(gap, rel=1e-6)
        assert dp.is_martingale(one_period_binary_tree) is ok
        if ok:
            dp.require_martingale(one_period_binary_tree)
        else:
            with pytest.raises(ValueError, match="not a martingale"):
                dp.require_martingale(one_period_binary_tree)

    def test_expectation_at_cut_is_one(self, rng):
        t = random_tree(rng, depth_range=(3, 3))
        dp = random_martingale_density(t, rng)
        cut = np.asarray(StoppingTime.of(t, np.arange(*t.level_offsets[2:4])).nodes)
        # optional stopping: E[z at the cut] = 1
        assert t.unconditional_probs()[cut] @ dp.z[cut] == pytest.approx(1.0, abs=1e-12)

    def test_density_from_leaf_values_round_trip(self, rng):
        t = random_tree(rng, depth_range=(3, 3))
        dp = random_martingale_density(t, rng)
        rebuilt = density_from_leaf_values(t, dp.z[t.leaves])
        assert np.allclose(rebuilt.z, dp.z, rtol=1e-12, atol=1e-14)
        assert rebuilt.z[0] == 1.0

    def test_density_from_leaf_values_gate(self, one_period_binary_tree):
        with pytest.raises(ValueError):
            density_from_leaf_values(one_period_binary_tree, np.array([2.0, 2.0]))


class TestPriceMartingaleResidual:
    def test_binomial_emm_exact(self, binomial):
        # unique EMM weights (1/3, 2/3) against p = (1/2, 1/2)
        dp = DensityProcess(z=np.array([1.0, 2 / 3, 4 / 3]))
        assert price_martingale_residual(binomial, dp) < 1e-15

    def test_physical_density_sees_drift(self, binomial):
        dp = DensityProcess(z=np.ones(3))
        # E[S_1] = 1.25 under p, so the residual is the drift 0.25
        assert price_martingale_residual(binomial, dp) == pytest.approx(0.25)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_wealth_is_linear_in_holdings(seed):
    rng = np.random.default_rng(seed)
    m = random_market(rng, d=2, depth_range=(2, 2))
    t = m.tree
    h1 = np.zeros_like(m.prices)
    h2 = np.zeros_like(m.prices)
    h1[t.internal] = rng.standard_normal((t.internal.size, 2))
    h2[t.internal] = rng.standard_normal((t.internal.size, 2))
    w1 = wealth_from_units(m, UnitStrategy(holdings=h1), 0.0).values
    w2 = wealth_from_units(m, UnitStrategy(holdings=h2), 0.0).values
    w12 = wealth_from_units(m, UnitStrategy(holdings=h1 + h2), 0.0).values
    assert np.allclose(w12, w1 + w2, atol=1e-9)
