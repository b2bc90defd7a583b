"""Utility maximization: hand optima, dual routes, measure changes."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from viatree import (
    DensityProcess,
    crra_utility,
    custom_utility,
    check_na,
    equivalence_suite,
    log_utility,
    maximize_utility,
    viability_under_measure,
)
from viatree.generators import random_na_market
from viatree.utility import EquivalenceConfig


class TestUtilityObjects:
    def test_log_certificate(self):
        cert = log_utility().certify()
        assert cert["passed"]

    def test_crra_matches_closed_form(self):
        u = crra_utility(2.0)
        assert u.value(2.0) == pytest.approx(-0.5)
        assert u.marginal(2.0) == pytest.approx(0.25)

    def test_gamma_one_rejected(self):
        # gamma = 1 is the log case; the power formula divides by 1 - gamma
        with pytest.raises(ValueError):
            crra_utility(1.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="finite"):
            crra_utility(gamma)

    def test_custom_certificate_accepts_concave(self):
        u = custom_utility(np.log1p, lambda x: 1.0 / (1.0 + x), name="log1p")
        assert u.certify()["passed"]

    def test_custom_certificate_rejects_convex(self):
        u = custom_utility(np.square, lambda x: 2.0 * x, name="square")
        assert not u.certify()["passed"]

    @pytest.mark.parametrize("x", [5e-13, 1e-11])
    def test_finite_difference_second_at_small_wealth(self, x):
        # without d2u, U'' is a central difference whose step is relative
        # to wealth, so both evaluations stay inside (0, 2x)
        u = custom_utility(np.sqrt, lambda x: 0.5 / np.sqrt(x))
        assert u.second(x) == pytest.approx(-0.25 * x**-1.5, rel=1e-8, abs=0.0)

    def test_maximize_rejects_uncertified(self, binomial):
        u = custom_utility(np.square, lambda x: 2.0 * x, name="square")
        with pytest.raises(ValueError, match="certificate"):
            maximize_utility(binomial, u, 1.0)


class TestLogRoute:
    def test_binomial_value(self, binomial):
        res = maximize_utility(binomial, log_utility(), 1.0)
        assert res.status == "ok"
        assert res.route == "log-recursion"
        want = 0.5 * math.log(1.5) + 0.5 * math.log(0.75)
        assert res.value == pytest.approx(want, abs=1e-10)
        assert res.foc_residual < 1e-10

    def test_x0_enters_additively(self, two_period):
        r1 = maximize_utility(two_period, log_utility(), 1.0)
        r3 = maximize_utility(two_period, log_utility(), 3.0)
        assert r3.value - r1.value == pytest.approx(math.log(3.0), abs=1e-12)
        assert np.allclose(
            r3.strategy.fractions, r1.strategy.fractions, atol=1e-10
        )

    def test_matches_numeraire_strategy(self, binomial_skew):
        from viatree import numeraire_portfolio

        res = maximize_utility(binomial_skew, log_utility(), 1.0)
        sol = numeraire_portfolio(binomial_skew)
        assert np.allclose(
            res.strategy.fractions, sol.fractions.fractions, atol=1e-10
        )


class TestCrraRoute:
    def test_binomial_gamma_two(self, binomial):
        res = maximize_utility(binomial, crra_utility(2.0), 1.0)
        assert res.status == "ok"
        assert res.route == "crra-recursion"
        # stationarity of 0.5/(1+pi)^2 ... optimum at 3 sqrt(2) - 4
        want_pi = 3.0 * math.sqrt(2.0) - 4.0
        assert res.strategy.fractions[0, 0] == pytest.approx(want_pi, abs=1e-8)

    def test_gamma_two_value_matches_scalar_oracle(self, binomial):
        # independent 1-d solve: stationarity of E[(1 + pi R)^(-1)]
        def phi(pi):
            return 0.5 * 1.0 / (1.0 + pi) ** 2 - 0.25 / (1.0 - 0.5 * pi) ** 2

        pi_star = brentq(phi, -0.9, 1.9, xtol=1e-14)
        # U(x) = x^(1-2)/(1-2) = -1/x, so the value is -E[1/W]
        value = -(0.5 / (1.0 + pi_star) + 0.5 / (1.0 - 0.5 * pi_star))
        res = maximize_utility(binomial, crra_utility(2.0), 1.0)
        assert res.strategy.fractions[0, 0] == pytest.approx(pi_star, abs=1e-9)
        assert res.value == pytest.approx(value, abs=1e-10)

    def test_crra_wealth_scaling(self, two_period):
        # CRRA optimal fractions are wealth-free; value scales by x0^(1-gamma)
        r1 = maximize_utility(two_period, crra_utility(3.0), 1.0)
        r2 = maximize_utility(two_period, crra_utility(3.0), 2.0)
        assert np.allclose(r2.strategy.fractions, r1.strategy.fractions, atol=1e-9)
        assert r2.value == pytest.approx(r1.value * 2.0 ** (-2.0), rel=1e-10)


class TestCustomRoute:
    def test_sqrt_matches_crra_half(self, binomial):
        # the same problem through both routes must agree
        res_crra = maximize_utility(binomial, crra_utility(0.5), 1.0)
        u = custom_utility(
            lambda x: 2.0 * np.sqrt(x),
            lambda x: 1.0 / np.sqrt(x),
            lambda x: -0.5 * x ** (-1.5),
            name="sqrt",
        )
        res_custom = maximize_utility(binomial, u, 1.0)
        assert res_custom.route == "concave-program"
        assert res_custom.value == pytest.approx(res_crra.value, abs=1e-8)

    def test_custom_route_on_two_periods(self, two_period):
        res_crra = maximize_utility(two_period, crra_utility(0.5), 1.0)
        u = custom_utility(
            lambda x: 2.0 * np.sqrt(x),
            lambda x: 1.0 / np.sqrt(x),
            name="sqrt",
        )
        res_custom = maximize_utility(two_period, u, 1.0)
        assert res_custom.value == pytest.approx(res_crra.value, abs=1e-7)
        # optimal terminal wealth must be positive on every path
        assert res_custom.wealth.values.min() > 0.0


class TestArbitrageAndMeasures:
    def test_arbitrage_market_unsolvable(self, arbitrage_market):
        res = maximize_utility(arbitrage_market, log_utility(), 1.0)
        assert res.status == "no-solution"
        assert res.route == "arbitrage-detected"
        assert res.certificate.verdict == "ARBITRAGE"

    def test_x0_must_be_positive(self, binomial):
        with pytest.raises(ValueError, match="positive"):
            maximize_utility(binomial, log_utility(), 0.0)

    @pytest.mark.parametrize("x0", [math.nan, math.inf])
    @pytest.mark.parametrize("utility", [log_utility(), crra_utility(2.0)], ids=["log", "crra2"])
    def test_non_finite_x0_rejected(self, binomial, utility, x0):
        # a NaN x0 once gave status ok with value nan
        with pytest.raises(ValueError, match="finite and positive"):
            maximize_utility(binomial, utility, x0)

    def test_viability_rejects_nan_x0(self, binomial):
        # once reported viable
        with pytest.raises(ValueError, match="finite and positive"):
            viability_under_measure(binomial, math.nan)

    def test_under_emm_trading_is_worthless(self, binomial):
        emm = check_na(binomial).density
        res = maximize_utility(binomial, log_utility(), 1.0, measure=emm)
        # log 1 = 0 is the best achievable when prices are martingales
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(res.strategy.fractions, 0.0, atol=1e-6)

    def test_non_martingale_measure_raises(self, binomial):
        # one-step weights summing to 3 once gave status ok and value 0.1767
        bad = DensityProcess(np.array([1.0, 3.0, 3.0]))
        with pytest.raises(ValueError, match=r"not a martingale: at node 0, .* = 2\.0 > "):
            maximize_utility(binomial, log_utility(), 1.0, bad)

    @pytest.mark.parametrize("name", ["binomial", "trinomial", "two_period"])
    def test_viability_under_measure(self, name, request):
        m = request.getfixturevalue(name)
        rep = viability_under_measure(m, x0=2.0)
        assert rep["viable"]
        assert rep["within_bound"]
        assert rep["value"] <= rep["bound"] + rep["tol"]

    def test_viability_fails_under_arbitrage(self, arbitrage_market):
        rep = viability_under_measure(arbitrage_market)
        assert not rep["viable"]
        assert rep["certificate"].verdict == "ARBITRAGE"

    @pytest.mark.parametrize("seed", range(8))
    def test_random_markets_viable_under_own_density(self, seed):
        rng = np.random.default_rng(seed)
        m = random_na_market(rng, d=int(rng.integers(1, 3)))
        rep = viability_under_measure(m, x0=1.0)
        assert rep["viable"] and rep["within_bound"]


class TestEquivalenceSuite:
    def test_small_suite_agrees(self):
        rep = equivalence_suite(EquivalenceConfig(n_markets=30, seed=5))
        assert rep.n_markets == 30
        assert rep.all_agree
        assert rep.disagreements == []
        assert sum(rep.counts.values()) == 30
        # both verdicts occur: fully random markets mix, built ones are NA
        assert rep.counts["NA"] >= 15
        assert rep.counts["ARBITRAGE"] >= 1
        for row in rep.rows:
            verdicts = {
                row["log_solvable"],
                row["no_arbitrage"],
                row["martingale_density"],
                row["numeraire"],
            }
            assert len(verdicts) == 1
