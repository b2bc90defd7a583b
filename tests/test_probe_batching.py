"""Batched numeraire probes against the per-strategy oracle loops.

The batched kernel sums dot products in asset order; the oracle's
matrix-vector products may use fused multiply-adds, so wealth can differ
in the last bit when d >= 2.  Draws, verdicts and cuts must match exactly,
float fields within 1e-12.
"""

import numpy as np
import pytest

import probe_oracle as oracle
import viatree.markets
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
from viatree.markets import WealthKernel
from viatree.numeraire import (
    _feasible_fractions,
    admissible_unit_strategies,
    sample_feasible_fractions,
)

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


def assert_reports_match(new, old):
    assert new.keys() == old.keys()
    for key, want in old.items():
        got = new[key]
        if isinstance(want, float) and not isinstance(want, bool):
            assert got == pytest.approx(want, rel=FLOAT_TOL, abs=FLOAT_TOL), key
        elif isinstance(want, dict):
            assert_reports_match(got, want)
        else:
            assert got == want, key


@pytest.mark.parametrize("name,m", MARKETS, ids=IDS)
class TestAgainstOracle:
    def test_sampled_fractions_bitwise(self, name, m):
        rng_new, rng_old = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(4):
            got = sample_feasible_fractions(m, rng_new).fractions
            assert np.array_equal(got, oracle.sample_feasible_fractions(m, rng_old))
        block = _feasible_fractions(WealthKernel(m), rng_new, 5)
        for row in block:
            assert np.array_equal(row, oracle.sample_feasible_fractions(m, rng_old))
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_admissible_holdings(self, name, m):
        rng_new, rng_old = np.random.default_rng(8), np.random.default_rng(8)
        want = oracle.admissible_unit_strategies(m, rng_old, 9, 1.5)
        got = [
            (h, w_T, s)
            for blk in admissible_unit_strategies(m, rng_new, 9, 1.5)
            for h, w_T, s in zip(*blk)
        ]
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
        sol = numeraire_portfolio(m)
        new = verify_numeraire(m, sol.wealth, n_strategies=30, seed=4)
        assert_reports_match(new, oracle.verify_numeraire(m, sol.wealth, n_strategies=30, seed=4))

    def test_verify_given_strategies(self, name, m):
        sol = numeraire_portfolio(m)
        rng = np.random.default_rng(5)
        given = []
        for k in range(6):
            if k % 2:
                h = np.zeros_like(m.prices)
                h[m.tree.internal] = 0.01 * rng.standard_normal((m.tree.internal.size, m.d))
                given.append(("units", h))
            else:
                given.append(("fractions", oracle.sample_feasible_fractions(m, rng)))
        strategies = [
            FractionStrategy(fractions=a) if kind == "fractions" else UnitStrategy(holdings=a)
            for kind, a in given
        ]
        new = verify_numeraire(m, sol.wealth, strategies=strategies, seed=6)
        assert_reports_match(new, oracle.verify_numeraire(m, sol.wealth, strategies=given, seed=6))

    def test_deflator_probe(self, name, m):
        sol = numeraire_portfolio(m)
        new = deflator_probe(m, sol.wealth, n=25, seed=9)
        assert_reports_match(new, oracle.deflator_probe(m, sol.wealth, n=25, seed=9))

    @pytest.mark.parametrize("entries", [1, 7])
    def test_block_size_does_not_change_results(self, name, m, entries, monkeypatch):
        sol = numeraire_portfolio(m)

        def run():
            return (
                verify_numeraire(m, sol.wealth, n_strategies=12, seed=1),
                deflator_probe(m, sol.wealth, n=12, seed=2),
            )

        default = run()
        monkeypatch.setattr(viatree.markets, "BLOCK_ENTRIES", entries)
        assert run() == default

    def test_unconditional_probs_bitwise(self, name, m):
        assert np.array_equal(m.tree.unconditional_probs(), oracle.unconditional_probs(m.tree))


def test_unconditional_probs_bitwise_depth8():
    m = random_na_market(np.random.default_rng(3), d=2, depth_range=(8, 8), branch_range=(2, 3))
    assert m.tree.horizon == 8
    assert np.array_equal(m.tree.unconditional_probs(), oracle.unconditional_probs(m.tree))


class TestZeroStrategies:
    def test_verify_numeraire_zero_sampled(self, binomial):
        sol = numeraire_portfolio(binomial)
        with pytest.raises(ValueError, match="n_strategies"):
            verify_numeraire(binomial, sol.wealth, n_strategies=0)

    def test_verify_numeraire_empty_list(self, binomial):
        sol = numeraire_portfolio(binomial)
        with pytest.raises(ValueError, match="strategies"):
            verify_numeraire(binomial, sol.wealth, strategies=[])

    def test_deflator_probe_zero(self, binomial):
        sol = numeraire_portfolio(binomial)
        with pytest.raises(ValueError, match="n must be"):
            deflator_probe(binomial, sol.wealth, n=0)


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
