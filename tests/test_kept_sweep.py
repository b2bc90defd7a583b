"""The no-arbitrage sweep owns what it read and decided.

``arbitrage._sweep`` keeps, under the model's one ``"check_na"`` memo name,
the certificate, the market's ``WealthKernel`` and the one-step martingale
weight of each edge (None on ARBITRAGE).  The solvers read the kernel and
the weights from that record:

* after the sweep, a numeraire, log, CRRA, min-entropy or numeraire-check
  call builds no ``WealthKernel`` other than the public wealth functions'
  own, and none recovers the weights from the certificate's density;
* the kept weights are the density's one-step ratios to a few ulps, on
  LP-decided nodes too;
* the kept record holds no reference to the model, so a swept model dies
  with its last reference, and the kept arrays are read-only.
"""

import gc
import sys
import weakref

import numpy as np
import pytest

from viatree import (
    WealthProcess,
    arbitrage,
    check_na,
    crra_utility,
    entropy,
    exp_utility,
    log_utility,
    markets,
    maximize_utility,
    min_entropy_emm,
    numeraire,
    numeraire_portfolio,
    utility,
    verify_numeraire,
    viability_under_measure,
)
from viatree.generators import random_market, random_na_market
from viatree.markets import WealthKernel, _step_weights

PUBLIC_BUILDERS = {"wealth_from_units", "wealth_from_fractions"}

SOLVES = {
    "numeraire_portfolio": numeraire_portfolio,
    "maximize_utility log": lambda m: maximize_utility(m, log_utility()),
    "maximize_utility crra": lambda m: maximize_utility(m, crra_utility(2.0)),
    "min_entropy_emm": min_entropy_emm,
    # the all-ones wealth is no numeraire: its nodes run the excess LP
    "verify_numeraire": lambda m: verify_numeraire(m, WealthProcess(1.0, np.ones(m.tree.n_nodes))),
}


def _market(d, seed=5):
    return random_na_market(np.random.default_rng(seed), d=d, depth_range=(3, 3), branch_range=(2, 4))


@pytest.fixture
def builders(monkeypatch):
    """The name of the function that built each ``WealthKernel``."""
    names = []
    init = WealthKernel.__init__

    def counted(self, m):
        names.append(sys._getframe(1).f_code.co_name)
        init(self, m)

    monkeypatch.setattr(WealthKernel, "__init__", counted)
    return names


@pytest.fixture
def reweighted(monkeypatch):
    """The measure of every ``_step_weights`` call of the solver modules."""
    measures = []

    def spy(m, measure):
        measures.append(measure)
        return _step_weights(m, measure)

    for module in (markets, numeraire, utility, entropy):
        monkeypatch.setattr(module, "_step_weights", spy, raising=False)
    return measures


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("name", SOLVES)
def test_solvers_build_no_kernel_after_the_sweep(name, d, builders):
    m = _market(d)
    check_na(m)
    builders.clear()
    SOLVES[name](m)
    assert set(builders) <= PUBLIC_BUILDERS, builders


def test_one_kernel_per_model_until_its_prices_change(builders):
    m = _market(2)
    viability_under_measure(m)
    assert builders.count("_na_sweep") == 1
    m.prices *= 2.0
    numeraire_portfolio(m)
    assert builders.count("_na_sweep") == 2
    k = arbitrage._sweep(m)[1]
    assert k.prices is m.prices and np.array_equal(k.dS, 2.0 * WealthKernel(_market(2)).dS)


@pytest.mark.parametrize("name", SOLVES)
def test_no_solver_recovers_the_weights_from_the_density(name, reweighted):
    m = _market(2)
    z = check_na(m).density.z
    SOLVES[name](m)
    assert not any(w is not None and np.array_equal(w.z, z) for w in reweighted)


def test_kept_weights_are_the_density_ratios(monkeypatch):
    lp_markets = []
    node_lps = arbitrage._node_lps

    def spy(*args):
        out = node_lps(*args)
        lp_markets[-1] |= bool(out[3].any())
        return out

    monkeypatch.setattr(arbitrage, "_node_lps", spy)
    verdicts = set()
    for seed in range(30):
        for maker in (random_market, random_na_market):
            for d in (1, 2, 3):
                m = maker(np.random.default_rng(seed), d=d, depth_range=(1, 4), branch_range=(2, 4))
                lp_markets.append(False)
                cert, _, q = arbitrage._sweep(m)
                verdicts.add(cert.verdict)
                if cert.verdict != "NA":
                    assert q is None
                    lp_markets[-1] = False
                    continue
                w = _step_weights(m, cert.density)
                assert np.all(np.abs(q - w) <= 4.0 * np.spacing(np.maximum(q, w))), (seed, d)
    assert verdicts == {"NA", "ARBITRAGE"}
    assert sum(lp_markets) >= 10  # NA markets with LP-decided nodes


def test_a_swept_model_dies_with_its_last_reference():
    m = _market(2)
    for call in SOLVES.values():
        call(m)
    exp_utility(m)
    viability_under_measure(m)
    ref = weakref.ref(m)
    gc.disable()  # a reference cycle would keep the model until a collection
    try:
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_kept_arrays_are_read_only():
    m = _market(2)
    numeraire_portfolio(m)
    _, k, q = arbitrage._sweep(m)
    assert k.returns is k.returns  # computed once
    for kept in (k.dS, k.returns, q):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0
