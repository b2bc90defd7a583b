"""The exact numeraire check against the sampled probes it replaced.

``verify_numeraire`` and ``deflator_probe`` compute each node's one-step
excess e_v = sup over feasible pi of sum_j q_j (1 + pi . R_j) - 1,
q_j = p_j N(v) / N(child_j), from the no-arbitrage weights' bound or one
LP (``numeraire._node_excess``).  No sampled strategy may beat it: a
strategy's one-step ratio gap at v is at most X(v)/N(v) times e_v, its
gap at a stopping-time cut at most ``worst_cut_excess``, and its deflated
terminal wealth at most ``deflator_probe``'s bound.  ``tol=-inf`` sends
every node to the LP, ``tol=inf`` settles every node by the bound.
"""

import functools

import numpy as np
import pytest

import probe_oracle as oracle
from viatree import (
    FractionStrategy,
    MarketModel,
    WealthProcess,
    check_na,
    deflator_probe,
    load_fixture,
    numeraire_portfolio,
    verify_numeraire,
    wealth_from_fractions,
)
from viatree import numeraire
from viatree.arbitrage import DEGENERATE_TOL
from viatree.generators import random_market, random_na_market
from viatree.markets import WealthKernel
from viatree.numeraire import RATIO_TOL, _node_excess

SEEDS = range(40)
SLACK = 1e-12
BUMP = 1.0 + 1e-4  # the fractions at one node times BUMP make a wrong candidate


@functools.cache
def _case(s):
    """Market s (d = 1-3, depth 3-4), its numeraire, and the candidate with
    the fractions at one random internal node scaled by ``BUMP``."""
    m = random_na_market(np.random.default_rng(s), d=1 + s % 3, depth_range=(3, 4))
    sol = numeraire_portfolio(m)
    node = int(np.random.default_rng(1000 + s).choice(m.tree.internal))
    return m, sol.wealth, _bumped(m, sol, node), node


def _bumped(m, sol, node):
    fr = sol.fractions.fractions.copy()
    fr[node] *= BUMP
    return wealth_from_fractions(m, FractionStrategy(fractions=fr), 1.0)


def _ratio_gaps(m, cand, W):
    """(S, internal) one-step gaps E[W(child)/N(child) | v] - W(v)/N(v), and
    the ratios W(v)/N(v) they are taken from."""
    t = m.tree
    ratio = W / cand.values
    gap = np.add.reduceat(t.branch_prob[t.edges] * ratio[:, t.edges], t.starts, axis=1)
    return gap - ratio[:, t.internal], ratio[:, t.internal]


def _unique_nodes(m):
    """Internal nodes whose martingale weights are unique: k increments of
    rank k - 1 on the scale-free coordinates ``check_na`` uses."""
    t, dS = m.tree, WealthKernel(m).dS
    out = np.zeros(t.internal.size, dtype=bool)
    for i, (lo, k) in enumerate(zip(t.starts, t.sizes)):
        X = dS[lo : lo + k]
        top = np.abs(X).max()
        if top >= DEGENERATE_TOL:
            s = np.linalg.svd(X / top, compute_uv=False)
            out[i] = np.sum(s >= DEGENERATE_TOL * s[0]) == k - 1
    return out


@pytest.mark.parametrize("s", SEEDS)
def test_no_sampled_strategy_beats_the_exact_excess(s):
    m, good, bad, _ = _case(s)
    t = m.tree
    rng = np.random.default_rng(s)
    for cand in (good, bad):
        e = _node_excess(m, cand, -np.inf)[0]
        rep = verify_numeraire(m, cand)
        fractions = cand.x0 * WealthKernel(m).growth(oracle.feasible_fractions(m, rng, 200))
        h, w_T, _ = oracle.admissible_units(m, rng, 200, cand.x0)
        units = WealthKernel(m).units(h, cand.x0)
        for W in (fractions, units):
            gap, ratio = _ratio_gaps(m, cand, W)
            assert np.all(gap <= ratio * e + SLACK * np.maximum(ratio, 1.0))
        p = t.unconditional_probs()
        for _ in range(3):
            cut = np.asarray(oracle.random_stopping_time(t, rng).nodes)
            stopped = (fractions[:, cut] / cand.values[cut]) @ p[cut]
            assert np.all(stopped - 1.0 <= rep["worst_cut_excess"] + SLACK)
        defl = deflator_probe(m, cand)
        p_leaf = p[t.leaves]
        sampled = (w_T * (cand.x0 / cand.terminal(t))) @ p_leaf - cand.x0
        assert np.all(sampled <= defl["worst_excess"] + SLACK)
        old = oracle.deflator_probe(m, cand, n=25, seed=s)
        assert old["worst_excess"] <= defl["worst_excess"] + SLACK
        assert defl["deflator_expectation"] == pytest.approx(old["deflator_expectation"], abs=SLACK)


@pytest.mark.parametrize("s", SEEDS)
def test_bound_equals_the_lp_where_weights_are_unique(s):
    m, good, bad, _ = _case(s)
    unique = _unique_nodes(m)
    for cand in (good, bad):
        lp = _node_excess(m, cand, -np.inf)[0]
        bound = _node_excess(m, cand, np.inf)[0]
        assert np.all(lp <= bound + SLACK)
        assert np.all(np.abs(lp - bound)[unique] <= SLACK)


@pytest.mark.parametrize("s", SEEDS)
def test_numeraire_passes_and_perturbed_candidate_fails(s):
    m, good, bad, node = _case(s)
    rep = verify_numeraire(m, good, tol=1e-7)
    assert rep["passed"] and deflator_probe(m, good)["passed"]
    assert rep["worst_ratio_excess"] <= 1e-12
    # only the bumped node's one-step ratios change
    rep = verify_numeraire(m, bad, tol=1e-7)
    assert not rep["passed"]
    assert rep["worst_node"] == node
    assert rep["worst_ratio_excess"] > 1e-7
    assert not deflator_probe(m, bad)["passed"]


def test_perturbation_that_sampling_misses():
    # market 24 (d = 1), its fractions at node 5 bumped: 1,000 sampled
    # strategies see at most 8.7e-9, under the 1e-7 gate; the node's exact
    # excess is 2.5e-7
    m, good, _, _ = _case(24)
    bad = _bumped(m, numeraire_portfolio(m), 5)
    W = bad.x0 * WealthKernel(m).growth(oracle.feasible_fractions(m, np.random.default_rng(24), 1000))
    assert _ratio_gaps(m, bad, W)[0].max() < 1e-8
    rep = verify_numeraire(m, bad, n_strategies=1000, seed=24, tol=1e-7)
    assert not rep["passed"]
    assert rep["worst_node"] == 5
    assert rep["worst_ratio_excess"] == pytest.approx(2.5e-7, rel=0.01)


@pytest.mark.parametrize("name_or_seed", ["arbitrage", 0, 1, 2, 3])
def test_arbitrage_market_fails_at_the_fail_node(name_or_seed):
    if isinstance(name_or_seed, str):
        m = load_fixture(name_or_seed)
    else:  # the first arbitrage market the seed draws
        rng = np.random.default_rng(name_or_seed)
        m = random_market(rng, d=2, depth_range=(2, 3))
        while check_na(m).verdict == "NA":
            m = random_market(rng, d=2, depth_range=(2, 3))
    cert = check_na(m)
    assert cert.verdict == "ARBITRAGE"
    flat = WealthProcess(x0=1.0, values=np.ones(m.tree.n_nodes))
    rep = verify_numeraire(m, flat)
    assert not rep["passed"]
    assert rep["worst_node"] == cert.fail_node
    assert rep["worst_ratio_excess"] == np.inf
    assert rep["binary_martingale_gap"] is None
    defl = deflator_probe(m, flat)
    assert not defl["passed"] and defl["worst_excess"] == np.inf


@pytest.mark.parametrize("s", range(0, 40, 5))
def test_price_unit_does_not_change_the_check(s):
    m, good, bad, _ = _case(s)
    big = MarketModel(tree=m.tree, prices=1e6 * m.prices)
    for cand in (good, bad):
        a = _node_excess(m, cand, -np.inf)[0]
        b = _node_excess(big, cand, -np.inf)[0]
        assert np.allclose(a, b, rtol=1e-9, atol=SLACK)
        assert verify_numeraire(m, cand)["passed"] == verify_numeraire(big, cand)["passed"]


# ------------------------------------------------ one kept pass per candidate


@pytest.fixture
def excess_calls(monkeypatch):
    """The arguments of every ``_node_excess`` call."""
    calls = []
    excess = numeraire._node_excess

    def counted(*args):
        calls.append(args)
        return excess(*args)

    monkeypatch.setattr(numeraire, "_node_excess", counted)
    return calls


def _fresh(s):
    """``_case(s)`` on a model of its own, whose memo starts empty, and a
    copy of the good candidate that a test may edit in place."""
    m, good, bad, _ = _case(s)
    m = MarketModel(tree=m.tree, prices=m.prices.copy())
    return m, WealthProcess(x0=good.x0, values=good.values.copy()), bad


def test_both_reports_share_one_pass(excess_calls):
    m, good, _ = _fresh(3)
    verify_numeraire(m, good)
    deflator_probe(m, good)
    verify_numeraire(m, good, n_strategies=5, seed=9)
    assert len(excess_calls) == 1


@pytest.mark.parametrize("change", ["candidate", "tol", "x0", "values in place", "prices in place"])
def test_a_new_question_runs_again(change, excess_calls):
    m, cand, bad = _fresh(3)
    tol = RATIO_TOL
    verify_numeraire(m, cand)
    if change == "candidate":
        cand = bad
    elif change == "tol":
        tol = 1e-7
    elif change == "x0":
        cand = WealthProcess(x0=2.0, values=cand.values)
    elif change == "values in place":
        cand.values[-1] *= BUMP
    else:
        m.prices *= 2.0
    rep = verify_numeraire(m, cand, tol=tol)
    assert len(excess_calls) == 2
    assert verify_numeraire(m, cand, tol=tol) == rep
    assert len(excess_calls) == 2


def test_mutating_a_report_changes_no_later_one(excess_calls):
    m, good, _ = _fresh(5)
    rep, defl = verify_numeraire(m, good), deflator_probe(m, good)
    want = (dict(rep), dict(defl))
    rep.update(passed=False, worst_node=-1)
    defl["worst_excess"] = 99.0
    assert (verify_numeraire(m, good), deflator_probe(m, good)) == want
    assert len(excess_calls) == 1


def test_the_model_keeps_one_report_set(excess_calls):
    m, good, bad = _fresh(7)
    other = WealthProcess(x0=2.0, values=2.0 * good.values)
    for cand in (good, bad, other, other):
        verify_numeraire(m, cand)
    assert len(excess_calls) == 3
    kept = [k for k in m._memo if isinstance(k, str)]
    assert sorted(kept) == ["check_na", "numeraire_reports"]
    verify_numeraire(m, good)  # replaced by the later candidates: computed again
    assert len(excess_calls) == 4


@pytest.mark.parametrize("s", range(0, 40, 4))
def test_kept_reports_equal_a_fresh_computation(s):
    m, good, bad = _fresh(s)
    for cand in (good, bad):
        for tol in (RATIO_TOL, 1e-7):
            verify_numeraire(m, cand, tol=tol)
            kept = numeraire._reports(m, cand, tol)
            fresh = numeraire._excess_reports(_fresh(s)[0], cand, tol)
            assert kept == fresh
        assert deflator_probe(m, cand) == numeraire._excess_reports(m, cand, RATIO_TOL)[1]
