"""Numeraire portfolio: hand optima, the exact supermartingale check, deflator."""

import math

import numpy as np
import pytest

from viatree import (
    DensityProcess,
    FractionStrategy,
    deflator_probe,
    numeraire_portfolio,
    verify_numeraire,
    wealth_from_fractions,
)
import probe_oracle as oracle
from viatree.generators import random_na_market
from viatree.numeraire import log_optimal_stack


class TestHandOptima:
    def test_binomial_half_kelly(self, binomial):
        sol = numeraire_portfolio(binomial)
        assert sol.status == "ok"
        # E[log(1 + pi R)] with R in {1, -0.5}: optimum at pi = 0.5
        assert sol.fractions.fractions[0, 0] == pytest.approx(0.5, abs=1e-8)
        assert sol.foc_sup < 1e-10
        assert np.allclose(sol.wealth.values, [1.0, 1.5, 0.75], atol=1e-8)
        want = 0.5 * math.log(1.5) + 0.5 * math.log(0.75)
        assert sol.log_growth == pytest.approx(want, abs=1e-10)

    def test_skewed_binomial_full_investment(self, binomial_skew):
        sol = numeraire_portfolio(binomial_skew)
        assert sol.status == "ok"
        # p = (2/3, 1/3) puts the optimum exactly at pi = 1
        assert sol.fractions.fractions[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert sol.foc_sup < 1e-10

    def test_two_period_repeats_the_node_solution(self, two_period):
        sol = numeraire_portfolio(two_period)
        assert sol.status == "ok"
        fr = sol.fractions.fractions[two_period.tree.internal, 0]
        # iid structure: the same pi = 0.5 at every internal node
        assert np.allclose(fr, 0.5, atol=1e-8)

    def test_constant_market_holds_nothing(self, constant_market):
        sol = numeraire_portfolio(constant_market)
        assert sol.status == "ok"
        assert np.allclose(sol.wealth.values, 1.0)
        assert sol.log_growth == pytest.approx(0.0, abs=1e-12)

    def test_x0_scales_wealth(self, binomial):
        s1 = numeraire_portfolio(binomial, x0=1.0)
        s5 = numeraire_portfolio(binomial, x0=5.0)
        assert np.allclose(s5.wealth.values, 5.0 * s1.wealth.values, atol=1e-9)

    def test_arbitrage_market_has_no_numeraire(self, arbitrage_market):
        sol = numeraire_portfolio(arbitrage_market)
        assert sol.status == "arbitrage"
        assert sol.certificate.verdict == "ARBITRAGE"
        assert sol.wealth is None


class TestNodeSolver:
    def test_matches_grid_search(self, rng):
        # one node, two assets; compare against a brute-force grid
        R = rng.uniform(-0.5, 1.0, size=(3, 2))
        bp = rng.dirichlet(np.ones(3))
        pi, gnorm, _ = log_optimal_stack(R[None], bp[None])
        pi = pi[0]
        assert gnorm[0] < 1e-10
        base = float(bp @ np.log1p(R @ pi))
        for _ in range(200):
            trial = pi + rng.normal(scale=0.05, size=2)
            w = 1.0 + R @ trial
            if np.all(w > 0):
                assert float(bp @ np.log(w)) <= base + 1e-9

    def test_interior_foc_makes_ratios_martingale(self, binomial):
        sol = numeraire_portfolio(binomial)
        n = sol.wealth.values
        t = binomial.tree
        # at an interior optimum E[N(v)/N(child)] = 1 one step ahead
        for v in t.internal:
            kids = t.children[v]
            back = float(t.branch_prob[kids] @ (n[v] / n[kids]))
            assert back == pytest.approx(1.0, abs=1e-9)


class TestVerification:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_na_markets_verify(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        m = random_na_market(rng, d=d)
        sol = numeraire_portfolio(m)
        assert sol.status == "ok"
        rep = verify_numeraire(m, sol.wealth)
        assert rep["passed"]
        assert rep["worst_ratio_excess"] <= 1e-8
        assert rep["worst_cut_excess"] <= 1e-8
        assert rep["worst_node"] in m.tree.internal

    @pytest.mark.parametrize("seed", range(6))
    def test_binary_markets_ratio_martingale(self, seed):
        rng = np.random.default_rng(50 + seed)
        m = random_na_market(rng, d=1, branch_range=(2, 2))
        sol = numeraire_portfolio(m)
        rep = verify_numeraire(m, sol.wealth)
        assert rep["passed"]
        # two branches and an interior optimum force equality, not just <=
        assert rep["binary_martingale_gap"] <= 1e-9

    def test_candidate_must_be_positive(self, binomial):
        from viatree import WealthProcess

        bad = WealthProcess(x0=1.0, values=np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValueError, match="positive"):
            verify_numeraire(binomial, bad)

    def test_suboptimal_candidate_fails(self, binomial_skew):
        # pi = 0 is not the numeraire here; the optimal strategy beats it
        flat = wealth_from_fractions(
            binomial_skew, FractionStrategy(fractions=np.zeros((3, 1))), 1.0
        )
        rep = verify_numeraire(binomial_skew, flat)
        assert not rep["passed"]
        # q = p: sup over pi in [-1, 2] of 1 + pi (2/3 - 1/6) is 2, at pi = 2
        assert rep["worst_ratio_excess"] == pytest.approx(1.0, abs=1e-12)
        assert rep["worst_node"] == 0

    def test_deflator_probe(self, binomial):
        sol = numeraire_portfolio(binomial)
        rep = deflator_probe(binomial, sol.wealth)
        assert rep["passed"]
        assert rep["deflator_expectation"] <= 1.0 + 1e-10
        assert rep["worst_excess"] <= 1e-8

    def test_deflator_is_the_emm_on_binary_markets(self, binomial):
        # with d = 1 and two branches, x0 N_0 / N is the unique EMM density
        sol = numeraire_portfolio(binomial)
        z = sol.wealth.values[0] / sol.wealth.values
        dp = DensityProcess(z=z / z[0])
        assert dp.martingale_residual(binomial.tree) < 1e-8
        assert np.allclose(dp.z, [1.0, 2 / 3, 4 / 3], atol=1e-8)


class TestSamplers:
    def test_sampled_fractions_are_feasible(self, two_period, rng):
        for _ in range(20):
            s = oracle.sample_feasible_fractions(two_period, rng)
            w = wealth_from_fractions(two_period, FractionStrategy(fractions=s), 1.0)
            assert np.all(w.values > 0.0)

    def test_random_stopping_time_is_a_cut(self, rng):
        from viatree.generators import random_tree
        from viatree.trees import StoppingTime

        for _ in range(20):
            t = random_tree(rng, depth_range=(3, 3))
            cut = oracle.random_stopping_time(t, rng)
            assert isinstance(cut, StoppingTime)
            assert len(cut.nodes) >= 1
