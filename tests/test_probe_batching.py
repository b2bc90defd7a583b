"""The samplers of the test oracle, and the exact numeraire check against it.

``probe_oracle``'s array samplers (``feasible_fractions``,
``admissible_units``) must draw the strategies of its per-strategy loops;
the batched kernel sums dot products in asset order, the loops'
matrix-vector products may use fused multiply-adds, so wealth can differ
in the last bit when d >= 2.  The library's exact check must bound every
sampled report of the oracle, and its node LPs must not depend on which
LPs share a stack.
"""

import numpy as np
import pytest

import probe_oracle as oracle
import viatree.numeraire
from viatree import (
    FractionStrategy,
    UnitStrategy,
    deflator_probe,
    load_fixture,
    numeraire_portfolio,
    verify_numeraire,
    wealth_from_fractions,
    wealth_from_units,
)
from viatree.generators import random_na_market
from viatree.numeraire import _node_excess
from viatree.simplex import LPStack, solve_lps

FIXTURES = ("binomial", "binomial_skew", "trinomial", "two_period", "constant")
RANDOM = [(d, seed) for d in (1, 2, 3) for seed in range(3)]
FLOAT_TOL = 1e-12


def _random_market(d, seed):
    rng = np.random.default_rng(100 * d + seed)
    return random_na_market(rng, d=d, depth_range=(2, 4))


def _markets():
    return [(name, load_fixture(name)) for name in FIXTURES] + [
        (f"na-d{d}-{seed}", _random_market(d, seed)) for d, seed in RANDOM
    ]


MARKETS = _markets()
IDS = [name for name, _ in MARKETS]


def _chunked(size):
    """``solve_lps`` run on consecutive stacks of at most ``size`` LPs."""
    def solve(A, b, c):
        parts = [solve_lps(A[i : i + size], b[i : i + size], c) for i in range(0, len(A), size)]
        return LPStack(*(np.concatenate([getattr(r, f) for r in parts])
                         for f in ("status", "x", "iterations", "y")))
    return solve


@pytest.mark.parametrize("name,m", MARKETS, ids=IDS)
class TestAgainstOracle:
    def test_sampled_fractions_bitwise(self, name, m):
        rng_new, rng_old = np.random.default_rng(7), np.random.default_rng(7)
        block = oracle.feasible_fractions(m, rng_new, 5)
        for row in block:
            assert np.array_equal(row, oracle.sample_feasible_fractions(m, rng_old))
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_admissible_holdings(self, name, m):
        rng_new, rng_old = np.random.default_rng(8), np.random.default_rng(8)
        want = oracle.admissible_unit_strategies(m, rng_old, 9, 1.5)
        got = list(zip(*oracle.admissible_units(m, rng_new, 9, 1.5)))
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert len(got) == len(want)
        for (h, w_T, s), (h0, w0, s0) in zip(got, want):
            assert s == s0
            if not s or m.d == 1:  # the drawn holdings, or an exact rescale
                assert np.array_equal(h, h0)
            else:  # the scale comes from a wealth minimum: last-bit freedom
                assert np.allclose(h, h0, rtol=FLOAT_TOL, atol=0.0)
            assert np.allclose(w_T, w0, rtol=FLOAT_TOL, atol=FLOAT_TOL)

    def test_verify_numeraire(self, name, m):
        # the oracle's sampled strategies start at N_0, so its one-step
        # gaps and cut excesses are ratios times at most the exact excess
        sol = numeraire_portfolio(m)
        new = verify_numeraire(m, sol.wealth, n_strategies=30, seed=4)
        old = oracle.verify_numeraire(m, sol.wealth, n_strategies=30, seed=4)
        assert new["passed"] and old["passed"]
        assert new["worst_ratio_excess"] <= 1e-12
        assert old["worst_cut_excess"] <= new["worst_cut_excess"] + FLOAT_TOL
        assert new["binary_martingale_gap"] <= 1e-12

    def test_verify_given_strategies(self, name, m):
        sol = numeraire_portfolio(m)
        rng = np.random.default_rng(5)
        e = _node_excess(m, sol.wealth, -np.inf)[0]
        t = m.tree
        for k in range(6):
            if k % 2:
                h = np.zeros_like(m.prices)
                h[t.internal] = 0.01 * rng.standard_normal((t.internal.size, m.d))
                w = wealth_from_units(m, UnitStrategy(holdings=h), 1.0).values
            else:
                f = oracle.sample_feasible_fractions(m, rng)
                w = wealth_from_fractions(m, FractionStrategy(fractions=f), 1.0).values
            ratio = w / sol.wealth.values
            assert np.all(ratio > 0.0)  # admissible from these small holdings
            gap = t.sums(t.branch_prob[t.edges] * ratio[t.edges]) - ratio[t.internal]
            assert np.all(gap <= ratio[t.internal] * e + FLOAT_TOL)

    def test_deflator_probe(self, name, m):
        sol = numeraire_portfolio(m)
        new = deflator_probe(m, sol.wealth, n=25, seed=9)
        old = oracle.deflator_probe(m, sol.wealth, n=25, seed=9)
        assert new["passed"] and old["passed"]
        assert old["worst_excess"] <= new["worst_excess"] + FLOAT_TOL
        assert new["deflator_expectation"] == pytest.approx(old["deflator_expectation"], rel=FLOAT_TOL, abs=FLOAT_TOL)

    @pytest.mark.parametrize("entries", [1, 7])
    def test_block_size_does_not_change_results(self, name, m, entries, monkeypatch):
        # every node on the LP, in one stack per branch count or in stacks
        # of ``entries`` LPs: the excesses agree bitwise
        sol = numeraire_portfolio(m)
        fr = sol.fractions.fractions * 1.001
        cands = (sol.wealth, wealth_from_fractions(m, FractionStrategy(fractions=fr), 1.0))
        default = [_node_excess(m, c, -np.inf)[0] for c in cands]
        monkeypatch.setattr(viatree.numeraire, "solve_lps", _chunked(entries))
        for c, want in zip(cands, default):
            assert np.array_equal(_node_excess(m, c, -np.inf)[0], want)

    def test_unconditional_probs_bitwise(self, name, m):
        assert np.array_equal(m.tree.unconditional_probs(), oracle.unconditional_probs(m.tree))


def test_unconditional_probs_bitwise_depth8():
    m = random_na_market(np.random.default_rng(3), d=2, depth_range=(8, 8), branch_range=(2, 3))
    assert m.tree.horizon == 8
    assert np.array_equal(m.tree.unconditional_probs(), oracle.unconditional_probs(m.tree))


class TestZeroStrategies:
    # the exact check samples nothing: the sampled checks' counts and seeds
    # are accepted and ignored, and their strategy list is gone
    def test_verify_numeraire_zero_sampled(self, binomial):
        sol = numeraire_portfolio(binomial)
        assert verify_numeraire(binomial, sol.wealth, n_strategies=0, seed=5) == (
            verify_numeraire(binomial, sol.wealth))

    def test_verify_numeraire_empty_list(self, binomial):
        sol = numeraire_portfolio(binomial)
        with pytest.raises(TypeError, match="strategies"):
            verify_numeraire(binomial, sol.wealth, strategies=[])

    def test_deflator_probe_zero(self, binomial):
        sol = numeraire_portfolio(binomial)
        assert deflator_probe(binomial, sol.wealth, n=0, seed=5) == deflator_probe(binomial, sol.wealth)


class TestWealthErrors:
    def test_first_infeasible_node_in_breadth_first_order(self, two_period):
        f = np.zeros_like(two_period.prices)
        f[two_period.tree.internal] = 2.0  # every down factor is exactly 0
        with pytest.raises(ValueError, match=r"on edge 0 -> 2$"):
            wealth_from_fractions(two_period, FractionStrategy(fractions=f), 1.0)
        f[0] = 0.5
        with pytest.raises(ValueError, match=r"on edge 1 -> 4$"):
            wealth_from_fractions(two_period, FractionStrategy(fractions=f), 1.0)

    def test_names_the_worst_edge_of_the_node(self, trinomial):
        # returns (1, 0, -0.5): factors (4, 1, -0.5), infeasible on edge 0 -> 3
        f = np.zeros_like(trinomial.prices)
        f[0] = 3.0
        with pytest.raises(ValueError, match=r"factor np.float64\(-0.5\) <= 0 on edge 0 -> 3"):
            wealth_from_fractions(trinomial, FractionStrategy(fractions=f), 1.0)

    @pytest.mark.parametrize("d,seed", RANDOM)
    def test_error_matches_oracle(self, d, seed):
        m = _random_market(d, seed)
        f = np.random.default_rng(seed).uniform(-40.0, 40.0, m.prices.shape)
        with pytest.raises(ValueError) as new:
            wealth_from_fractions(m, FractionStrategy(fractions=f), 1.0)
        with pytest.raises(ValueError) as old:
            oracle.wealth_from_fractions(m, f, 1.0)
        new_msg, old_msg = str(new.value), str(old.value)
        assert new_msg.split(" on edge ")[1] == old_msg.split(" on edge ")[1]
        if d == 1:  # one product per edge: the factor itself is bitwise equal
            assert new_msg == old_msg

    def test_mis_shaped_holdings(self, binomial):
        with pytest.raises(ValueError, match=r"holdings shape \(2, 1\) does not match prices \(3, 1\)"):
            wealth_from_units(binomial, UnitStrategy(holdings=np.ones((2, 1))), 1.0)

    def test_mis_shaped_fractions(self, binomial):
        with pytest.raises(ValueError, match=r"fractions shape \(3, 2\) does not match prices \(3, 1\)"):
            wealth_from_fractions(binomial, FractionStrategy(fractions=np.zeros((3, 2))), 1.0)

    def test_wealth_matches_oracle(self):
        for d, seed in RANDOM:
            m = _random_market(d, seed)
            h = np.random.default_rng(seed).standard_normal(m.prices.shape)
            got = wealth_from_units(m, UnitStrategy(holdings=h), 1.0).values
            assert np.allclose(got, oracle.wealth_from_units(m, h, 1.0), rtol=FLOAT_TOL, atol=FLOAT_TOL)
