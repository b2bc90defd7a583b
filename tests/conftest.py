"""Shared fixtures: hand-built markets and seeded generators."""

import numpy as np
import pytest

import viatree.arbitrage
from viatree import EventTree, load_fixture


@pytest.fixture
def binomial():
    # S0 = 1 -> {2.0, 0.5}, p = 1/2 each; unique EMM weights (1/3, 2/3)
    return load_fixture("binomial")


@pytest.fixture
def binomial_skew():
    # same prices, p = (2/3, 1/3); log optimum sits at full investment
    return load_fixture("binomial_skew")


@pytest.fixture
def trinomial():
    # S0 = 1 -> {2, 1, 0.5}, uniform p; EMM slice is one-dimensional
    return load_fixture("trinomial")


@pytest.fixture
def two_period():
    # iid binomial u = 2, d = 0.5 over two periods
    return load_fixture("two_period")


@pytest.fixture
def constant_market():
    # two-period binary tree, every price 1.0: fully degenerate
    return load_fixture("constant")


@pytest.fixture
def arbitrage_market():
    # both children above S0: buy-and-hold wins on every branch
    return load_fixture("arbitrage")


@pytest.fixture
def one_period_binary_tree():
    return EventTree([None, 0, 0], [1.0, 0.5, 0.5])


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def lp_stacks(monkeypatch):
    """The number of LPs in each ``solve_lps`` call of the no-arbitrage sweep."""
    calls = []
    solve = viatree.arbitrage.solve_lps

    def counted(A, b, c):
        calls.append(len(A))
        return solve(A, b, c)

    monkeypatch.setattr(viatree.arbitrage, "solve_lps", counted)
    return calls
