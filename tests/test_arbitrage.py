"""No-arbitrage sweep, certificates, NUPBR and the scipy LP cross-check."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from test_newton import _permute_siblings

from viatree import (
    EventTree,
    MarketModel,
    UnitStrategy,
    check_na,
    check_nupbr,
    load_fixture,
    price_martingale_residual,
    wealth_from_units,
)
from viatree import arbitrage
from viatree.arbitrage import EPS_POSITIVE_TOL
from viatree.generators import random_market, random_na_market
from viatree.simplex import solve_lps


def scipy_max_slack(inc):
    """Reference per-node LP: maximize eps s.t. inc.T q = 0, sum q = 1, q >= eps.

    Variables (q, eps) with eps free; returns (eps*, q), (-inf, None) when
    infeasible.
    """
    inc = np.atleast_2d(inc)
    k, d = inc.shape
    A_eq = np.zeros((d + 1, k + 1))
    A_eq[:d, :k] = inc.T
    A_eq[d, :k] = 1.0
    b_eq = np.zeros(d + 1)
    b_eq[d] = 1.0
    A_ub = np.zeros((k, k + 1))
    A_ub[:, :k] = -np.eye(k)
    A_ub[:, k] = 1.0  # eps - q_j <= 0
    c = np.zeros(k + 1)
    c[k] = -1.0
    bounds = [(None, None)] * k + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(k), A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 2:
        return -np.inf, None
    assert res.status == 0
    return float(res.x[k]), res.x[:k]


def scipy_node_eps(inc, bp):
    return scipy_max_slack(inc)[0]


def one_period(inc, bp):
    """The one-period market whose root, priced 0, has increments inc with
    branch probabilities bp."""
    inc = np.atleast_2d(inc)
    tree = EventTree([None] + [0] * len(bp), [1.0, *bp])
    return MarketModel(tree, np.vstack([np.zeros(inc.shape[1]), inc]))


def root_decision(inc, bp):
    """check_na on ``one_period``: (certificate, root eps*, the root's
    one-step weights or None, its separating vector or None)."""
    cert = check_na(one_period(inc, bp))
    if cert.verdict == "NA":
        return cert, cert.node_eps[0], cert.density.z[1:] * np.asarray(bp), None
    return cert, cert.node_eps[0], None, cert.strategy.holdings[0]


class TestNodeLp:
    """The per-node LP, one root node at a time through ``check_na``."""

    def test_binomial_unique_weights(self):
        _, eps, q, _ = root_decision(np.array([[1.0], [-0.5]]), np.array([0.5, 0.5]))
        # the moment system pins q exactly: q = (1/3, 2/3)
        assert eps == pytest.approx(1 / 3, abs=1e-12)
        assert np.allclose(q, [1 / 3, 2 / 3], atol=1e-12)
        assert abs(float(q @ np.array([1.0, -0.5]))) < 1e-14

    def test_trinomial_max_interior(self):
        # increments (1, 0, -0.5): q1 = q3/2, best floor at eps = 1/4
        _, eps, q, _ = root_decision(np.array([[1.0], [0.0], [-0.5]]), np.ones(3) / 3)
        assert eps == pytest.approx(0.25, abs=1e-10)
        assert np.allclose(q, [0.25, 0.25, 0.5], atol=1e-9)

    def test_one_sided_increments_fail(self):
        inc = np.array([[0.5], [1.0]])
        cert, _, q, h = root_decision(inc, np.array([0.5, 0.5]))
        assert q is None and cert.fail_node == 0
        assert np.all(inc @ h > 1e-9)

    def test_degenerate_node_keeps_physical_weights(self):
        _, eps, q, _ = root_decision(np.zeros((3, 2)), np.array([0.2, 0.3, 0.5]))
        assert q.tolist() == [0.2, 0.3, 0.5]
        assert eps == 0.2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_unique_weight_systems_go_to_the_lp(self, lp_stacks):
        # four rank-1 two-branch nodes: a well-posed one, two whose system is
        # near-singular (equal and almost equal increments) and one whose
        # system is exactly singular, which aborts a stacked solve
        inc = np.array([[[1.0, 2.0], [-2.0, -4.0]],
                        [[1.0, 2.0], [1.0, 2.0]],
                        [[1.0, 2.0], [1.0, 2.0 + 1e-12]],
                        [[0.0, -1.0], [0.0, -1.0]]])
        A, b, c, Vh = arbitrage._max_slack_lps(inc)
        systems = A[:, [0, 2], :2]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(systems, np.array([0.0, 1.0]))
        assert np.abs(np.linalg.solve(systems[1:3], np.array([0.0, 1.0]))).min() > 1e11
        eps, q, rows, h = arbitrage._node_lps(inc, np.full((4, 2), 0.5))
        # the well-posed node passes in closed form: no LP rows, no H
        assert eps[0] == pytest.approx(1 / 3, abs=1e-15)
        assert np.allclose(q[0], [2 / 3, 1 / 3], rtol=0.0, atol=1e-15)
        assert not rows[0].any() and not h[0].any()
        # the near-singular ones fail in closed form: their weights have a
        # negative entry, and H is the ray of their signs
        assert (eps[1:3] < 0.0).all() and np.isnan(q[1:3]).all() and not rows[1:3].any()
        # only the exactly singular one takes the LP and keeps its outcome
        # bit for bit
        assert lp_stacks == [1]
        res = solve_lps(A[3:], b[3:], c)
        assert res.status[0] == "infeasible"
        assert np.isneginf(eps[3]) and np.isnan(q[3]).all()
        assert rows[3].tobytes() == A[3, :, :2].tobytes()
        assert h[3].tobytes() == (-(res.y[:, None, :2] @ Vh[3:])[:, 0])[0].tobytes()
        gains = np.einsum("gkd,gd->gk", inc[1:], h[1:])
        assert (gains.min(axis=1) >= 0.0).all() and (gains.max(axis=1) > 0.0).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_rank_one_vertex_matches_scipy(self, k, lp_stacks):
        # one direction u of 1, 2 or 3 assets; branch j moves a_j u, with
        # mixed-sign, one-signed (some, or all but one, a_j = 0) and
        # constant a
        rng = np.random.default_rng(k)
        n_closed = n_rays = 0
        for d in (1, 2, 3):
            inc = []
            for _ in range(30):
                u = rng.normal(size=d)
                a = rng.normal(size=k)
                kind = int(rng.integers(4))
                if kind == 1:
                    a = np.abs(a) * rng.choice([-1.0, 1.0])
                    a[rng.permutation(k)[: int(rng.integers(0, k))]] = 0.0
                elif kind == 2:
                    a[rng.permutation(k)[:2]] = 0.0
                elif kind == 3:
                    a = np.full(k, a[0])
                inc.append(np.outer(a, u))
            inc = np.array(inc)
            lp_stacks.clear()
            eps, q, rows, h = arbitrage._node_lps(inc, np.full(inc.shape[:2], 1.0 / k))
            # a zero increment rotates to round-off, which may have the other
            # sign: such a one-signed node reads 0 < eps* <= tol and takes the LP
            closed = ~rows.any(axis=(1, 2))
            n_closed += int(closed.sum())
            assert lp_stacks == ([] if closed.all() else [int((~closed).sum())])
            for g in range(len(inc)):
                ref, ref_q = scipy_max_slack(inc[g])
                if np.isfinite(ref):
                    assert eps[g] == pytest.approx(ref, abs=1e-12)
                else:
                    assert eps[g] <= 0.0
                if ref > EPS_POSITIVE_TOL:
                    assert np.abs(q[g] - ref_q).max() <= 1e-12
                else:
                    assert np.isnan(q[g]).all()
                if closed[g] and ref <= EPS_POSITIVE_TOL:
                    gains = inc[g] @ h[g]
                    assert gains.min() >= 0.0 and gains.max() > 0.0
                    n_rays += 1
        assert n_closed >= 0.9 * 90
        assert n_rays >= 20

    @pytest.mark.parametrize("seed", range(60))
    def test_eps_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        inc = rng.normal(size=(k, d))
        bp = rng.dirichlet(np.ones(k))
        _, eps, q, h = root_decision(inc, bp)
        ref = scipy_node_eps(inc, bp)
        if np.isinf(ref):
            assert q is None
        else:
            assert eps == pytest.approx(ref, abs=1e-8)
            assert (q is not None) == (ref > 1e-9)
        if q is not None:
            assert np.allclose(inc.T @ q, 0.0, atol=1e-10)
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(q > 0.0)
        else:
            gains = inc @ h
            assert gains.min() >= -1e-12 * np.abs(inc).max() and gains.max() > 1e-9


class TestCheckNa:
    def test_binomial_na(self, binomial):
        cert = check_na(binomial)
        assert cert.verdict == "NA"
        assert np.allclose(cert.density.z, [1.0, 2 / 3, 4 / 3], atol=1e-12)
        assert cert.emm_residual < 1e-12
        assert cert.node_eps[0] == pytest.approx(1 / 3, abs=1e-12)

    def test_two_period_product_density(self, two_period):
        cert = check_na(two_period)
        assert cert.verdict == "NA"
        # iid steps glue multiplicatively: leaf z in {4/9, 8/9, 8/9, 16/9}
        z_leaf = cert.density.z[two_period.tree.leaves]
        assert np.allclose(sorted(z_leaf), [4 / 9, 8 / 9, 8 / 9, 16 / 9], atol=1e-12)
        assert price_martingale_residual(two_period, cert.density) < 1e-12

    def test_constant_market_density_is_one(self, constant_market):
        cert = check_na(constant_market)
        assert cert.verdict == "NA"
        assert np.allclose(cert.density.z, 1.0, rtol=0, atol=0)
        assert all(e > 0 for e in cert.node_eps.values())

    def test_arbitrage_certificate_replays(self, arbitrage_market):
        cert = check_na(arbitrage_market)
        assert cert.verdict == "ARBITRAGE"
        assert cert.fail_node == 0
        assert cert.density is None
        assert cert.replay["min_gain"] >= -1e-12
        assert cert.replay["max_gain"] > 1e-9
        # replay the lifted strategy from zero initial capital
        w = wealth_from_units(arbitrage_market, cert.strategy, 0.0)
        gains = w.terminal(arbitrage_market.tree)
        assert gains.min() >= -1e-12
        assert gains.max() > 1e-9

    def test_round_off_gain_is_not_positive(self):
        from viatree import EventTree, MarketModel
        from viatree.arbitrage import _replay_arbitrage
        from viatree.markets import WealthKernel

        # 0.1 + 0.2 - 0.3 is 5.6e-17 in doubles and 0 in exact arithmetic
        t = EventTree([None, 0, 0], [1.0, 0.25, 0.75])
        m = MarketModel(tree=t, prices=np.array([[0.3], [0.1 + 0.2], [1.3]]))
        rep = _replay_arbitrage(WealthKernel(m), UnitStrategy(holdings=np.ones((3, 1))))
        assert rep["prob_positive"] == 0.75
        assert rep["min_gain"] == (0.1 + 0.2) - 0.3 > 0.0
        assert rep["max_gain"] == 1.3 - 0.3
        cert = check_na(m)
        assert cert.verdict == "ARBITRAGE"
        assert cert.replay["prob_positive"] == 0.75

    def test_deep_arbitrage_found_off_root(self, binomial):
        # hide the bad node at depth 1 of a two-period tree
        from viatree import EventTree, MarketModel

        t = EventTree([None, 0, 0, 1, 1, 2, 2], [1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        prices = np.array([[1.0], [2.0], [0.5], [2.5], [3.0], [0.4], [0.6]])
        m = MarketModel(tree=t, prices=prices)
        cert = check_na(m)
        assert cert.verdict == "ARBITRAGE"
        assert cert.fail_node == 1
        w = wealth_from_units(m, cert.strategy, 0.0)
        assert w.values[t.leaves].min() >= -1e-12
        assert w.values[t.leaves].max() > 1e-9
        # nodes scanned before the failure got their eps recorded
        assert 0 in cert.node_eps and 1 in cert.node_eps


class TestEmmAndSigma:
    def test_certificate_density_is_a_martingale(self, trinomial):
        dp = check_na(trinomial).density
        assert dp is not None
        assert price_martingale_residual(trinomial, dp) < 1e-10
        assert dp.martingale_residual(trinomial.tree) < 1e-10
        assert dp.z.min() > 0.0

    def test_no_density_under_arbitrage(self, arbitrage_market):
        assert check_na(arbitrage_market).density is None


class TestNupbr:
    def test_na_market_has_nupbr(self, binomial):
        res = check_nupbr(binomial)
        assert res.verdict == "NUPBR"
        assert res.certificate.verdict == "NA"

    def test_arbitrage_market_fails_nupbr(self, arbitrage_market):
        res = check_nupbr(arbitrage_market)
        assert res.verdict == "NO-NUPBR"
        assert res.certificate.strategy is not None
        # doubling the lifted strategy doubles the profit: unbounded upside
        s1 = res.certificate.strategy
        s2 = UnitStrategy(holdings=2.0 * s1.holdings)
        g1 = wealth_from_units(arbitrage_market, s1, 0.0).terminal(
            arbitrage_market.tree
        )
        g2 = wealth_from_units(arbitrage_market, s2, 0.0).terminal(
            arbitrage_market.tree
        )
        assert np.allclose(g2, 2.0 * g1, atol=1e-12)
        assert g1.min() >= -1e-12


class TestRandomMarkets:
    @pytest.mark.parametrize("seed", range(30))
    def test_na_by_construction_accepted(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        m = random_na_market(rng, d=d)
        cert = check_na(m)
        assert cert.verdict == "NA"
        assert cert.emm_residual < 1e-9
        assert cert.density.z[m.tree.leaves].min() > 0.0

    @pytest.mark.parametrize("seed", range(30))
    def test_random_market_verdict_matches_scipy(self, seed):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(1, 4))
        m = random_market(rng, d=d)
        cert = check_na(m)
        # reference verdict: every node LP must clear the interior threshold
        ref_na = True
        for v in m.tree.internal:
            inc = m.prices[m.tree.children[v]] - m.prices[v]
            if np.max(np.abs(inc)) < 1e-12:
                continue
            eps = scipy_node_eps(inc, m.tree.branch_prob[m.tree.children[v]])
            if not eps > 1e-9:
                ref_na = False
                break
        assert (cert.verdict == "NA") == ref_na
        if cert.verdict == "NA":
            assert price_martingale_residual(m, cert.density) < 1e-9
        else:
            assert cert.replay["min_gain"] >= -1e-12
            assert cert.replay["max_gain"] > 1e-9


class TestScaleFreeDecision:
    """The node LPs run on scale-free coordinates, so no unit of account,
    per-asset unit or sibling order changes a verdict."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 3),
        power=st.integers(-9, 9),
        arbitrage_free=st.booleans(),
    )
    def test_verdict_is_invariant(self, seed, d, power, arbitrage_free):
        rng = np.random.default_rng(seed)
        maker = random_na_market if arbitrage_free else random_market
        m = maker(rng, d=d, depth_range=(1, 4), branch_range=(2, 4))
        verdict = check_na(m).verdict
        assert verdict == "NA" or not arbitrage_free
        per_asset = 10.0 ** rng.uniform(-3.0, 3.0, size=d)
        for prices in (m.prices * 10.0**power, m.prices * per_asset):
            assert check_na(MarketModel(m.tree, prices)).verdict == verdict
        assert check_na(_permute_siblings(m, rng)).verdict == verdict

    def test_recipe_in_price_unit_1e6(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            m = random_na_market(rng, d=int(rng.integers(1, 4)))
            assert check_na(MarketModel(m.tree, 1e6 * m.prices)).verdict == "NA"

    def test_depth_10_market(self):
        # rounding breaks the exact collinearity of its two-branch nodes
        m = random_na_market(np.random.default_rng(1), d=2, depth_range=(10, 10),
                             branch_range=(2, 3))
        cert = check_na(m)
        assert cert.verdict == "NA"
        assert cert.emm_residual <= 1e-9 * np.abs(m.prices).max()

    def test_rank_deficient_two_branch_node(self):
        # two assets whose increments are collinear up to round-off (relative
        # singular values 1 and 4e-16): scaled alone, the LP reads eps* = 0;
        # on the singular vectors the round-off direction drops out
        inc = np.array([[0.00015633682031701568, 3.508457174111962],
                        [-0.00011007146983121885, -2.4701860841534846]])
        _, eps, q, _ = root_decision(inc, np.array([0.5, 0.5]))
        assert q is not None and eps > 0.4
        assert np.abs(inc.T @ q).max() <= 1e-12 * np.abs(inc).max()


def bessel_tree(n):
    """Binary tree of depth n stepping S -> S + dt/S +- sqrt(dt), p = 1/2,
    S0 = 1, dt = 1/n: the Bessel(3) drift, whose lowest path runs into the
    node where one increment is 0 up to round-off."""
    dt = 1.0 / n
    parent, prob, prices = [None], [1.0], [1.0]
    level = [0]
    for _ in range(n):
        nxt = []
        for v in level:
            for sign in (1.0, -1.0):
                parent.append(v)
                prob.append(0.5)
                prices.append(prices[v] + dt / prices[v] + sign * np.sqrt(dt))
                nxt.append(len(prices) - 1)
        level = nxt
    return MarketModel(EventTree(parent, prob), np.array(prices)[:, None])


class TestCertificateGate:
    """check_na returns an arbitrage certificate only if its replay meets
    criterion 2's bounds (gains >= -1e-12, max > 1e-9) times max(1, max|S|)."""

    def test_unsound_replay_raises(self):
        # node 254's LP reads eps* 1.6e-11; the dual's vector loses 1.1e-11
        m = bessel_tree(8)
        with pytest.raises(RuntimeError, match="at node 254") as exc:
            check_na(m)
        eps, low, bound, high = map(float, re.search(
            r"eps\* (\S+)\) fails its replay: min_gain (\S+) \(needs >= (\S+)\), "
            r"max_gain (\S+) \(needs >", str(exc.value)).groups())
        assert 0.0 < eps <= EPS_POSITIVE_TOL
        assert low < bound == float(f"{-1e-12 * np.abs(m.prices).max():.3g}")
        assert high > 0.7

    @pytest.mark.parametrize("n", [10, 12])
    def test_sound_replay_is_returned(self, n):
        m = bessel_tree(n)
        cert = check_na(m)
        scale = float(np.abs(m.prices).max())
        assert cert.verdict == "ARBITRAGE" and cert.fail_node == 510
        assert cert.replay["min_gain"] >= -1e-12 * scale
        assert cert.replay["max_gain"] > 1e-9 * scale
        if n == 12:
            # the loss misses the unscaled -1e-12, not the bound times max|S| = 4.9
            assert cert.replay["min_gain"] < -1e-12

    def test_unsound_closed_form_ray_falls_back_to_the_lp(self, lp_stacks):
        # test_verdict_is_invariant's seed=719, d=3, arbitrage_free=False in
        # per-asset units: the root's four increments have rank k - 1 = 3,
        # and the ray of its weights' signs loses 2.6e-06 by rounding (the
        # bound is -9.6e-09), so the root runs its own LP
        rng = np.random.default_rng(719)
        m = random_market(rng, d=3, depth_range=(1, 4), branch_range=(2, 4))
        assert check_na(m).verdict == "ARBITRAGE" and lp_stacks == []
        mu = MarketModel(m.tree, m.prices * 10.0 ** rng.uniform(-3.0, 3.0, size=3))
        cert = check_na(mu)
        assert cert.verdict == "ARBITRAGE" and cert.fail_node == 0
        assert lp_stacks == [1]
        inc = mu.prices[mu.tree.children[0]] - mu.prices[0]
        eps, _, h = arbitrage._solve_max_slack(*arbitrage._max_slack_lps(inc[None]))
        assert cert.node_eps[0] == eps[0]
        assert cert.strategy.holdings[0].tobytes() == h[0].tobytes()
        assert cert.replay["min_gain"] >= -1e-12 * np.abs(mu.prices).max()

    @pytest.mark.parametrize("unit", [1e-12, 1e-10, 1e-9, 1e6])
    def test_verdict_keeps_in_any_price_unit(self, unit):
        # gains scale with the unit; the lower bound's floor only loosens it
        m = load_fixture("arbitrage")
        base = check_na(m)
        cert = check_na(MarketModel(m.tree, unit * m.prices))
        assert cert.verdict == "ARBITRAGE" and cert.fail_node == base.fail_node
        assert cert.replay["max_gain"] == pytest.approx(unit * base.replay["max_gain"])


# ------------------------------------------------ one decision per model


def same_bits(a, b) -> bool:
    """Bitwise equality of two results: pickles store every float and array
    element exactly."""
    return pickle.dumps(a) == pickle.dumps(b)


def fresh(m):
    """A new model with copies of m's arrays, so nothing it keeps carries over."""
    return MarketModel(EventTree(m.tree.parent.copy(), m.tree.branch_prob.copy()), m.prices.copy())


@pytest.fixture
def sweeps(monkeypatch):
    """The model of every run of the uncached no-arbitrage sweep."""
    calls = []
    sweep = arbitrage._na_sweep

    def counted(m):
        calls.append(m)
        return sweep(m)

    monkeypatch.setattr(arbitrage, "_na_sweep", counted)
    return calls


class TestMemo:
    def test_repeated_calls_sweep_once(self, sweeps):
        m = random_na_market(np.random.default_rng(3), d=2)
        first = check_na(m)
        assert same_bits(check_na(m), first)
        assert same_bits(check_nupbr(m).certificate, first)
        assert same_bits(first, check_na(fresh(m)))
        assert len(sweeps) == 2  # m once, the fresh model once

    def test_in_place_price_change_decides_again(self, sweeps):
        m = random_na_market(np.random.default_rng(4), d=2, depth_range=(3, 3))
        t = m.tree
        assert check_na(m).verdict == "NA"
        # lift every child of node 1 above it: buy-and-hold arbitrage there
        m.prices[t.children[1]] = m.prices[1] + np.arange(1.0, t.children[1].size + 1)[:, None]
        cert = check_na(m)
        assert cert.verdict == "ARBITRAGE" and cert.fail_node == 1
        assert same_bits(cert, check_na(fresh(m)))
        assert len(sweeps) == 3

    def test_in_place_branch_prob_change_decides_again(self, sweeps):
        m = random_na_market(np.random.default_rng(5), d=1, depth_range=(3, 3))
        t = m.tree
        before = check_na(m)
        kids = t.children[0]
        t.branch_prob[kids] = t.branch_prob[kids][::-1]  # still sums to 1
        cert = check_na(m)
        assert not same_bits(cert.density, before.density)
        assert same_bits(cert, check_na(fresh(m)))
        assert len(sweeps) == 3

    def test_mutated_results_do_not_leak(self, arbitrage_market):
        m = random_na_market(np.random.default_rng(6), d=2)
        want = check_na(fresh(m))
        cert = check_na(m)
        cert.density.z[:] = 2.0
        cert.node_eps.clear()
        assert same_bits(check_na(m), want)
        bad = check_na(arbitrage_market)
        bad.strategy.holdings[:] = 0.0
        bad.replay["min_gain"] = 1.0
        assert same_bits(check_na(arbitrage_market), check_na(fresh(arbitrage_market)))

    def test_failed_replay_raises_on_every_call(self, sweeps):
        m = bessel_tree(8)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="at node 254"):
                check_na(m)
        assert len(sweeps) == 2
