"""Jump entropies, minimal-entropy densities, exponential duality, splicing."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from test_arbitrage import fresh, same_bits

from viatree import (
    ArbitrageError,
    DensityProcess,
    EventTree,
    StoppingTime,
    arbitrage,
    check_na,
    check_nupbr,
    concatenate_densities,
    delta_for_epsilon,
    entropy,
    entropy_hellinger,
    exp_utility,
    log_utility,
    maximize_utility,
    min_entropy_emm,
    numeraire_portfolio,
    price_martingale_residual,
    verify_value_bound,
    viability_under_measure,
)
from viatree.generators import (
    random_market,
    random_martingale_density,
    random_na_market,
    random_tree,
)

# E[V_T] for the binomial EMM density z = (1, 2/3, 4/3):
# 0.5*j(-1/3) + 0.5*j(1/3) with j(x) = (1+x)log(1+x) - x
BINOMIAL_ENTROPY = (math.log(2.0 / 3.0) / 3.0) + (2.0 / 3.0) * math.log(4.0 / 3.0)


class TestEntropyHellinger:
    def test_flat_density_has_zero_entropy(self, rng):
        t = random_tree(rng, depth_range=(2, 2))
        rep = entropy_hellinger(t, DensityProcess(z=np.ones(t.n_nodes)))
        assert np.all(rep.jump_terms == 0.0)
        assert rep.e_p_v_terminal == 0.0
        assert rep.e_q_h_terminal == 0.0
        assert rep.relative_entropy == 0.0

    def test_binomial_hand_value(self, binomial, one_period_binary_tree):
        z = check_na(binomial).density
        rep = entropy_hellinger(one_period_binary_tree, z)
        assert rep.e_p_v_terminal == pytest.approx(BINOMIAL_ENTROPY, abs=1e-14)
        assert rep.e_p_v_terminal == pytest.approx(0.056633, abs=1e-6)
        # one period: every identity collapses to the same number
        assert rep.e_q_h_terminal == pytest.approx(BINOMIAL_ENTROPY, abs=1e-14)
        assert rep.relative_entropy == pytest.approx(BINOMIAL_ENTROPY, abs=1e-14)

    def test_jump_terms_nonnegative(self, rng):
        for _ in range(30):
            t = random_tree(rng, depth_range=(1, 3))
            rep = entropy_hellinger(t, random_martingale_density(t, rng))
            assert np.all(rep.jump_terms >= 0.0)
            assert np.all(rep.v_process[1:] >= rep.v_process[t.parent[1:]])

    def test_compensator_is_predictable(self, rng):
        # siblings share h: it is decided by the parent's information
        t = random_tree(rng, depth_range=(2, 3))
        rep = entropy_hellinger(t, random_martingale_density(t, rng))
        for v in t.internal:
            kids = t.children[v]
            assert np.ptp(rep.h_process[kids]) == 0.0

    @pytest.mark.parametrize("seed", range(25))
    def test_one_period_identity(self, seed):
        # E[V_T] = E[Z_T log Z_T] on one-period trees
        rng = np.random.default_rng(seed)
        t = random_tree(rng, depth_range=(1, 1), branch_range=(2, 5))
        rep = entropy_hellinger(t, random_martingale_density(t, rng))
        assert rep.e_p_v_terminal == pytest.approx(rep.relative_entropy, abs=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_weighted_identity_any_depth(self, seed):
        # E[Z_T h_T] = E[Z_T log Z_T] at every depth
        rng = np.random.default_rng(seed)
        t = random_tree(rng, depth_range=(2, 4))
        rep = entropy_hellinger(t, random_martingale_density(t, rng))
        assert rep.e_q_h_terminal == pytest.approx(rep.relative_entropy, abs=1e-10)

    def test_plain_identity_breaks_beyond_one_period(self):
        # two-period binary, p = 1/2 everywhere; one-step density ratios
        # a = 1.5 out of the root, (b, c) = (1.8, 1.0) below: the plain
        # expectation weighs later jumps by p, the entropy weighs them by z
        t = EventTree([None, 0, 0, 1, 1, 2, 2], [1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        a, b, c = 1.5, 1.8, 1.0
        z = np.array([1.0, a, 2.0 - a, a * b, a * (2.0 - b), (2.0 - a) * c,
                      (2.0 - a) * (2.0 - c)])
        dp = DensityProcess(z=z)
        assert dp.martingale_residual(t) < 1e-15
        rep = entropy_hellinger(t, dp)
        assert rep.e_p_v_terminal == pytest.approx(0.31484413952538554, abs=1e-12)
        assert rep.relative_entropy == pytest.approx(0.4068601913175098, abs=1e-12)
        assert rep.e_q_h_terminal == pytest.approx(rep.relative_entropy, abs=1e-14)
        assert abs(rep.e_p_v_terminal - rep.relative_entropy) > 0.09

    def test_shape_mismatch_rejected(self, one_period_binary_tree, rng):
        t = random_tree(rng, depth_range=(2, 2))
        dp = random_martingale_density(t, rng)
        with pytest.raises(ValueError, match="nodes"):
            entropy_hellinger(one_period_binary_tree, dp)


def trinomial_entropy_oracle():
    """1-d reduction of the trinomial minimal-entropy problem.

    Martingale slice: q = (t/2, 1 - 1.5 t, t) for t in (0, 2/3); minimize
    the relative entropy against p = (1/3, 1/3, 1/3) by scalar search.
    """
    p = np.array([1.0, 1.0, 1.0]) / 3.0

    def kl(t):
        q = np.array([0.5 * t, 1.0 - 1.5 * t, t])
        return float(np.sum(q * np.log(q / p)))

    res = minimize_scalar(kl, bounds=(1e-6, 2.0 / 3.0 - 1e-6), method="bounded",
                          options={"xatol": 1e-12})
    t = res.x
    return np.array([0.5 * t, 1.0 - 1.5 * t, t]), res.fun


class TestMinEntropy:
    def test_binomial_unique_emm(self, binomial):
        res = min_entropy_emm(binomial)
        # one EMM only, so the minimizer is that EMM
        assert np.allclose(res.leaf_q, [1 / 3, 2 / 3], atol=1e-10)
        assert res.entropy == pytest.approx(BINOMIAL_ENTROPY, abs=1e-12)
        assert res.kkt_residual < 1e-8

    def test_trinomial_matches_scalar_oracle(self, trinomial):
        res = min_entropy_emm(trinomial)
        q_ref, kl_ref = trinomial_entropy_oracle()
        assert np.allclose(res.leaf_q, q_ref, atol=1e-3)
        assert res.entropy == pytest.approx(kl_ref, abs=1e-6)
        assert res.kkt_residual < 1e-8

    def test_constant_market_flat_density(self, constant_market):
        res = min_entropy_emm(constant_market)
        assert np.allclose(res.density.z, 1.0, atol=1e-10)
        assert res.entropy == pytest.approx(0.0, abs=1e-12)

    def test_entropy_below_glued_density(self, rng):
        # the minimizer cannot exceed the entropy of the sweep's own EMM
        for seed in range(10):
            r = np.random.default_rng(seed)
            m = random_na_market(r, d=int(r.integers(1, 3)))
            res = min_entropy_emm(m)
            glued = check_na(m).density
            rep = entropy_hellinger(m.tree, glued)
            assert res.entropy <= rep.relative_entropy + 1e-9
            assert price_martingale_residual(m, res.density) < 1e-8
            assert res.kkt_residual < 1e-8

    def test_arbitrage_raises_with_certificate(self, arbitrage_market):
        with pytest.raises(ArbitrageError) as exc:
            min_entropy_emm(arbitrage_market)
        assert exc.value.certificate.verdict == "ARBITRAGE"


class TestExpUtility:
    def test_binomial_closed_form(self, binomial):
        res = exp_utility(binomial)
        # stationarity of 0.5(e^-theta + e^(theta/2)): theta = ln(2)/1.5
        assert res.theta_hat.holdings[0, 0] == pytest.approx(
            math.log(2.0) / 1.5, abs=1e-10
        )
        want = 0.5 * (2.0 ** (-2.0 / 3.0) + 2.0 ** (1.0 / 3.0))
        assert res.value == pytest.approx(want, abs=1e-12)
        assert res.gradient_sup < 1e-8

    def test_binomial_scalar_oracle(self, binomial):
        def m(theta):
            return 0.5 * (math.exp(-theta) + math.exp(0.5 * theta))

        ref = minimize_scalar(m, bounds=(0.0, 2.0), method="bounded",
                              options={"xatol": 1e-12})
        res = exp_utility(binomial)
        assert res.value == pytest.approx(ref.fun, abs=1e-10)
        assert res.theta_hat.holdings[0, 0] == pytest.approx(ref.x, abs=1e-7)

    def test_duality_with_min_entropy(self, trinomial):
        res = exp_utility(trinomial)
        me = min_entropy_emm(trinomial)
        assert res.entropy_density_gap <= 1e-6
        assert np.allclose(
            res.density.z[trinomial.tree.leaves],
            me.density.z[trinomial.tree.leaves],
            atol=1e-6,
        )
        # log of the value equals the negative entropy: E = exp(-H(Q|P))
        assert res.log_value == pytest.approx(-me.entropy, abs=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_duality_on_random_markets(self, seed):
        rng = np.random.default_rng(seed)
        m = random_na_market(rng, d=int(rng.integers(1, 3)))
        res = exp_utility(m)
        assert res.gradient_sup < 1e-8
        assert res.density_link_residual < 1e-6
        assert res.entropy_density_gap <= 1e-6

    def test_arbitrage_raises(self, arbitrage_market):
        with pytest.raises(ArbitrageError):
            exp_utility(arbitrage_market)


def two_segment_fixture(rng, depth=3, dyadic=False):
    t = random_tree(rng, depth_range=(depth, depth), branch_range=(2, 3))
    cut = StoppingTime.of(t, np.arange(*t.level_offsets[1:3]))
    term = StoppingTime.terminal(t)
    if dyadic:
        segs = [dyadic_density(t, rng) for _ in range(2)]
    else:
        segs = [random_martingale_density(t, rng) for _ in range(2)]
    return t, [cut, term], segs


def dyadic_density(tree, rng):
    # one-step ratios are small dyadic rationals, so float products are exact
    z = np.ones(tree.n_nodes)
    for v in tree.internal:
        kids = tree.children[v]
        k = kids.size
        if k == 2:
            r = float(rng.choice([0.5, 0.75, 1.25, 1.5]))
            z[kids[0]] = z[v] * r
            z[kids[1]] = z[v] * (2.0 - r)
        else:
            z[kids] = z[v]
    return DensityProcess(z=z)


class TestConcatenation:
    def test_single_segment_is_identity(self, rng):
        t = random_tree(rng, depth_range=(3, 3))
        seg = random_martingale_density(t, rng)
        out = concatenate_densities(t, [StoppingTime.terminal(t)], [seg])
        assert np.array_equal(out.density.z, seg.z)
        assert out.report["positive"]

    def test_two_segments_martingale(self, rng):
        for seed in range(20):
            r = np.random.default_rng(seed)
            t, cuts, segs = two_segment_fixture(r)
            out = concatenate_densities(t, cuts, segs)
            assert out.report["positive"]
            assert out.report["martingale_residual"] < 1e-12
            assert out.density.z[0] == 1.0

    def test_segment_attribution(self, rng):
        t, cuts, segs = two_segment_fixture(rng)
        out = concatenate_densities(t, cuts, segs)
        seg_of = out.report["segment_of_node"]
        # depth-1 edges belong to segment 0, deeper edges to segment 1
        assert np.all(seg_of[np.arange(*t.level_offsets[1:3])] == 0)
        assert np.all(seg_of[np.arange(*t.level_offsets[2:4])] == 1)
        assert np.all(seg_of[np.arange(*t.level_offsets[3:5])] == 1)

    def test_splice_uses_segment_ratios(self, rng):
        t, cuts, segs = two_segment_fixture(rng)
        out = concatenate_densities(t, cuts, segs)
        z = out.density.z
        for c in range(1, t.n_nodes):
            p = int(t.parent[c])
            seg = segs[int(out.report["segment_of_node"][c])]
            assert z[c] / z[p] == pytest.approx(seg.z[c] / seg.z[p], rel=1e-12)

    def test_flat_equals_left_nested_bitwise(self, rng):
        for seed in range(15):
            r = np.random.default_rng(200 + seed)
            t = random_tree(r, depth_range=(3, 3), branch_range=(2, 3))
            c1 = StoppingTime.of(t, np.arange(*t.level_offsets[1:3]))
            c2 = StoppingTime.of(t, np.arange(*t.level_offsets[2:4]))
            term = StoppingTime.terminal(t)
            segs = [random_martingale_density(t, r) for _ in range(3)]
            flat = concatenate_densities(t, [c1, c2, term], segs)
            inner = concatenate_densities(t, [c1, term], segs[:2])
            nested = concatenate_densities(
                t, [c2, term], [inner.density, segs[2]]
            )
            assert np.array_equal(flat.density.z, nested.density.z)

    def test_associativity_exact_on_dyadic(self, rng):
        for seed in range(15):
            r = np.random.default_rng(300 + seed)
            t = random_tree(r, depth_range=(3, 3), branch_range=(2, 2))
            c1 = StoppingTime.of(t, np.arange(*t.level_offsets[1:3]))
            c2 = StoppingTime.of(t, np.arange(*t.level_offsets[2:4]))
            term = StoppingTime.terminal(t)
            segs = [dyadic_density(t, r) for _ in range(3)]
            flat = concatenate_densities(t, [c1, c2, term], segs)
            inner = concatenate_densities(t, [c1, term], segs[:2])
            left = concatenate_densities(t, [c2, term], [inner.density, segs[2]])
            tail = concatenate_densities(t, [c2, term], segs[1:])
            right = concatenate_densities(t, [c1, term], [segs[0], tail.density])
            assert np.array_equal(flat.density.z, left.density.z)
            assert np.array_equal(flat.density.z, right.density.z)

    def test_associativity_tight_on_random(self, rng):
        worst = 0.0
        for seed in range(15):
            r = np.random.default_rng(400 + seed)
            t = random_tree(r, depth_range=(3, 3), branch_range=(2, 3))
            c1 = StoppingTime.of(t, np.arange(*t.level_offsets[1:3]))
            c2 = StoppingTime.of(t, np.arange(*t.level_offsets[2:4]))
            term = StoppingTime.terminal(t)
            segs = [random_martingale_density(t, r) for _ in range(3)]
            flat = concatenate_densities(t, [c1, c2, term], segs).density.z
            tail = concatenate_densities(t, [c2, term], segs[1:])
            right = concatenate_densities(
                t, [c1, term], [segs[0], tail.density]
            ).density.z
            worst = max(worst, float(np.max(np.abs(right / flat - 1.0))))
        assert worst <= 1e-14

    def test_v_additivity(self, rng):
        t, cuts, segs = two_segment_fixture(rng)
        out = concatenate_densities(t, cuts, segs)
        assert out.report["v_additivity_gap"] < 1e-12

    def test_validation_errors(self, rng):
        t = random_tree(rng, depth_range=(2, 2), branch_range=(2, 2))
        seg = random_martingale_density(t, rng)
        c1 = StoppingTime.of(t, np.arange(*t.level_offsets[1:3]))
        term = StoppingTime.terminal(t)
        with pytest.raises(ValueError, match="one density per interval"):
            concatenate_densities(t, [c1, term], [seg])
        with pytest.raises(ValueError, match="at least one cut"):
            concatenate_densities(t, [], [])
        with pytest.raises(ValueError, match="nested"):
            concatenate_densities(t, [term, c1], [seg, seg])
        with pytest.raises(ValueError, match="terminal"):
            concatenate_densities(t, [c1], [seg])
        t2 = random_tree(rng, depth_range=(3, 3))
        with pytest.raises(ValueError, match="cover"):
            concatenate_densities(
                t, [c1, term], [seg, random_martingale_density(t2, rng)]
            )


# ------------------------------------------------ one recursion per model


@pytest.fixture
def solves(monkeypatch):
    """Counts of runs of the uncached NA sweep and exponential recursion."""
    calls = {"sweep": 0, "recursion": 0}
    sweep, solve = arbitrage._na_sweep, entropy._exp_solve

    def counted_sweep(m):
        calls["sweep"] += 1
        return sweep(m)

    def counted_solve(m, q):
        calls["recursion"] += 1
        return solve(m, q)

    monkeypatch.setattr(arbitrage, "_na_sweep", counted_sweep)
    monkeypatch.setattr(entropy, "_exp_solve", counted_solve)
    return calls


class TestMemo:
    def test_every_api_path_decides_once(self, solves):
        m = random_na_market(np.random.default_rng(11), d=2)
        check_na(m)
        check_nupbr(m)
        assert maximize_utility(m, log_utility()).status == "ok"
        assert numeraire_portfolio(m).status == "ok"
        assert viability_under_measure(m)["viable"]
        me, eu = min_entropy_emm(m), exp_utility(m)
        # the value bound solves through maximize_utility: one more memo hit
        assert verify_value_bound(m, delta_for_epsilon(m.tree, me.density.z[m.tree.leaves], 0.1))["passed"]
        assert solves == {"sweep": 1, "recursion": 1}
        other = fresh(m)
        assert same_bits(me, min_entropy_emm(other))
        assert same_bits(eu, exp_utility(other))

    def test_in_place_price_change_solves_again(self, solves):
        m = random_na_market(np.random.default_rng(12), d=1, depth_range=(3, 3))
        before = exp_utility(m)
        m.prices[m.tree.leaves] *= 1.5  # still arbitrage-free: every increment scales
        m.prices[m.tree.internal] *= 1.5
        after = exp_utility(m)
        assert solves == {"sweep": 2, "recursion": 2}
        assert not same_bits(after.theta_hat, before.theta_hat)
        assert same_bits(after, exp_utility(fresh(m)))

    def test_in_place_branch_prob_change_solves_again(self, solves):
        m = random_na_market(np.random.default_rng(13), d=2, depth_range=(3, 3))
        before = min_entropy_emm(m)
        kids = m.tree.children[0]
        m.tree.branch_prob[kids] = m.tree.branch_prob[kids][::-1]
        after = min_entropy_emm(m)
        assert solves == {"sweep": 2, "recursion": 2}
        assert not same_bits(after.density, before.density)
        assert same_bits(after, min_entropy_emm(fresh(m)))

    def test_mutated_densities_do_not_leak(self):
        m = random_na_market(np.random.default_rng(14), d=2)
        other = fresh(m)
        me = min_entropy_emm(m)
        me.density.z[:] = 3.0
        me.leaf_q[:] = 0.0
        eu = exp_utility(m)
        assert same_bits(eu, exp_utility(other))
        eu.theta_hat.holdings[:] = 1.0
        eu.density.z[:] = 3.0
        assert same_bits(min_entropy_emm(m), min_entropy_emm(other))

    def test_arbitrage_raises_each_goal_on_every_call(self, arbitrage_market, solves):
        for _ in range(2):
            with pytest.raises(ArbitrageError, match="no equivalent martingale density"):
                min_entropy_emm(arbitrage_market)
            with pytest.raises(ArbitrageError, match="infimum is not attained"):
                exp_utility(arbitrage_market)
        assert solves == {"sweep": 1, "recursion": 0}
