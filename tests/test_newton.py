"""The shared damped-Newton routine against the separate per-solver loops.

``newton_oracle`` keeps the loops that ``viatree.newton.damped_newton``
replaced.  The node log and power solvers, the log and CRRA recursions and
the custom-utility program must give the same bits, or raise the same
error, on random arbitrage-free markets in price units 1 and 1e6, with one
known exception: the custom-utility program at unit 1e6, whose objective is
flat to rounding near the optimum, where the shared routine accepts a trial
point with f_c == f + 1e-4 t slope, which the separate loop rejected.

The minimal-entropy and exponential-utility results now come from a node
recursion, not from the oracle's two dense leaf-space Newton loops, so they
are held to those loops within tolerances: where the dense loops converge
the density agrees with the dense minimal-entropy one within 1e-8 and the
exponential-utility log value with the dense one within 1e-12 relative;
where the dense exponential-utility loop stalls, the recursion must still
converge and pass its own duality and density-link checks.
"""

import re

import numpy as np
import pytest

import newton_oracle as oracle
import viatree.numeraire
from viatree import (
    ArbitrageError,
    EventTree,
    MarketModel,
    check_na,
    crra_utility,
    custom_utility,
    log_utility,
    maximize_utility,
    node_na_lp,
    numeraire_portfolio,
)
from viatree import entropy, utility
from viatree.generators import random_na_market
from viatree.newton import damped_newton
from viatree.numeraire import log_recursion, node_log_optimal
from viatree.utility import node_power_optimal

SEEDS = range(30)
UNITS = (1.0, 1e6)
SQRT = custom_utility(np.sqrt, lambda x: 0.5 / np.sqrt(x), name="sqrt")
STALLED = re.compile(r"stalled at (gradient|KKT residual)")
LINK_TOL = 1e-9  # density-link gate, relative to max(1, max|S|)


def _market(seed, unit):
    rng = np.random.default_rng(seed)
    m = random_na_market(rng, d=1 + seed % 3)
    return MarketModel(m.tree, unit * m.prices)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, RuntimeError, ValueError) as e:
        return type(e), str(e)


def _assert_same(new, old):
    """Equal bits in every field; ``iterations`` now counts Newton steps,
    where the separate entropy loops counted one more after converging."""
    assert type(new) is type(old)
    if isinstance(new, tuple) and len(new) == 2 and isinstance(new[0], type):
        assert new == old
        return
    if isinstance(new, tuple):
        for a, b in zip(new, old):
            _assert_same(a, b)
        return
    if hasattr(new, "__dataclass_fields__"):
        for name in new.__dataclass_fields__:
            if name != "iterations":
                _assert_same(getattr(new, name), getattr(old, name))
        return
    assert np.array_equal(new, old)


@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize("seed", SEEDS)
def test_node_solvers_and_recursions(seed, unit):
    m = _market(seed, unit)
    t = m.tree
    for v in t.internal:
        R, p = m.simple_returns(v), t.branch_prob[t.children[v]]
        _assert_same(_outcome(node_log_optimal, R, p), oracle.node_log_optimal(R, p))
        a = p * (1.0 + np.arange(p.size))
        for gamma in (0.5, 2.0):
            new = node_power_optimal(R, a / (1.0 - gamma), gamma)
            old = oracle.node_power_optimal(R, a / (1.0 - gamma), gamma)
            _assert_same(new[:3], old[:3])
            assert old[3] - new[3] in (0, 1)  # the separate loop counted steps + 1
    new_w, old_w = utility._step_weights(m, None), oracle._step_weights(m, None)
    _assert_same(utility._solve_log(m, new_w, 2.0), oracle._solve_log(m, old_w, 2.0))
    for gamma in (0.5, 2.0):
        _assert_same(
            utility._solve_crra(m, new_w, 2.0, gamma), oracle._solve_crra(m, old_w, 2.0, gamma)
        )
    sol = numeraire_portfolio(m)
    if sol.status != "ok":  # unit 1e6 can flip the NA verdict (a check_na defect)
        return
    for v in t.internal:
        pi, gnorm, _ = oracle.node_log_optimal(m.simple_returns(v), t.branch_prob[t.children[v]])
        assert np.array_equal(sol.fractions.fractions[v], pi)
        assert sol.node_gradients[int(v)] == gnorm


@pytest.mark.parametrize("seed", SEEDS)
def test_recursions_under_a_density(seed):
    m = _market(seed, 1.0)
    z = oracle.min_entropy_emm(m).density
    new_w, old_w = utility._step_weights(m, z), oracle._step_weights(m, z)
    assert np.array_equal(new_w, np.concatenate([old_w[int(v)] for v in m.tree.internal]))
    _assert_same(utility._solve_log(m, new_w, 1.0), oracle._solve_log(m, old_w, 1.0))
    _assert_same(utility._solve_crra(m, new_w, 1.0, 3.0), oracle._solve_crra(m, old_w, 1.0, 3.0))


def _assert_entropy_pair(m, me, eu):
    """The recursion's own checks: duality E = exp(-H(Q|P)) and a glued
    density under which prices are martingales."""
    assert eu.log_value == pytest.approx(-me.entropy, abs=1e-10)
    assert np.array_equal(eu.density.z, me.density.z)
    assert eu.density_link_residual <= LINK_TOL * max(1.0, float(np.max(np.abs(m.prices))))
    assert max(me.kkt_residual, eu.gradient_sup) < entropy.NODE_TOL


def _assert_matches_oracle(m):
    old_me, old_eu = _outcome(oracle.min_entropy_emm, m), _outcome(oracle.exp_utility, m)
    if check_na(m).verdict != "NA":  # unit 1e6 can flip the verdict (a check_na defect)
        for fn, old in ((entropy.min_entropy_emm, old_me), (entropy.exp_utility, old_eu)):
            with pytest.raises(ArbitrageError, match="^market admits arbitrage; "):
                fn(m)
            assert old[0] is ArbitrageError
        return old_me, old_eu
    me, eu = entropy.min_entropy_emm(m), entropy.exp_utility(m)
    _assert_entropy_pair(m, me, eu)
    if not isinstance(old_me, tuple):
        assert np.max(np.abs(me.density.z - old_me.density.z)) <= 1e-8
        assert me.entropy == pytest.approx(old_me.entropy, rel=1e-8, abs=1e-12)
    if isinstance(old_eu, tuple):  # the dense loop stalled
        assert old_eu[0] is RuntimeError and STALLED.search(old_eu[1])
    else:  # its density is only as close as its 1e-6 duality gate
        assert eu.log_value == pytest.approx(old_eu.log_value, rel=1e-12)
    return old_me, old_eu


@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize("seed", SEEDS)
def test_entropy_solvers(seed, unit):
    _assert_matches_oracle(_market(seed, unit))


DENSE_STALLS = {3: (9, 25, 28, 37), 4: (30,), 5: ()}


@pytest.mark.parametrize("depth", (3, 4, 5))
def test_entropy_recursion_on_the_recipe(depth):
    # every market converges and passes its checks, including the five on
    # which the dense exponential-utility loop stalls
    for seed in range(40):
        m = random_na_market(np.random.default_rng(seed), d=2, depth_range=(depth, depth))
        if seed in DENSE_STALLS[depth]:
            assert isinstance(_assert_matches_oracle(m)[1], tuple)
        else:
            _assert_entropy_pair(m, entropy.min_entropy_emm(m), entropy.exp_utility(m))


@pytest.mark.parametrize("seed", SEEDS)
def test_custom_program(seed):
    m = _market(seed, 1.0)
    _assert_same(
        _outcome(utility._solve_custom, m, utility._step_weights(m, None), 1.0, SQRT),
        _outcome(oracle._solve_custom, m, oracle._step_weights(m, None), 1.0, SQRT),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_custom_program_flat_objective(seed):
    # unit 1e6: equal bits, or a tie accepted where the separate loop
    # rejected it; never a stall the separate loop did not have
    m = _market(seed, 1e6)
    new = _outcome(utility._solve_custom, m, utility._step_weights(m, None), 1.0, SQRT)
    old = _outcome(oracle._solve_custom, m, oracle._step_weights(m, None), 1.0, SQRT)
    if isinstance(new, tuple):
        assert isinstance(old, tuple) and new[0] is old[0] is RuntimeError
        assert STALLED.search(new[1]) and STALLED.search(old[1])
    elif isinstance(old, tuple):
        assert STALLED.search(old[1]) and new.foc_residual < utility.CUSTOM_GRAD_TOL
    else:
        assert new.value == pytest.approx(old.value, rel=1e-12)
        assert np.allclose(new.strategy.holdings, old.strategy.holdings, rtol=1e-12, atol=0.0)
        assert new.foc_residual < utility.CUSTOM_GRAD_TOL


class TestEdgeCases:
    def test_degenerate_node(self):
        R = np.array([[1e-13, -1e-13], [-5e-13, 2e-13]])
        p = np.array([0.4, 0.6])
        _assert_same(node_log_optimal(R, p), oracle.node_log_optimal(R, p))
        assert node_log_optimal(R, p)[2] == 0
        _assert_same(node_power_optimal(R, -p, 2.0), oracle.node_power_optimal(R, -p, 2.0))
        assert node_power_optimal(R, -p, 2.0)[3] == 0

    def test_empty_null_space(self, binomial):
        # a complete one-period market: the martingale measure is unique
        new, old = entropy.min_entropy_emm(binomial), oracle.min_entropy_emm(binomial)
        assert old.iterations == 0 and old.kkt_residual == 0.0
        assert np.allclose(new.leaf_q, old.leaf_q, rtol=0.0, atol=1e-15)
        assert new.entropy == pytest.approx(old.entropy, rel=1e-14)
        assert new.kkt_residual < entropy.NODE_TOL

    def test_no_trading_variables(self):
        m = MarketModel(EventTree([None], [1.0]), np.array([[2.0]]))
        new, old = entropy.exp_utility(m), oracle.exp_utility(m)
        assert new.theta_hat.holdings.shape == old.theta_hat.holdings.shape == (1, 1)
        assert (new.value, new.log_value, new.density.z.tolist()) == (1.0, 0.0, [1.0])
        assert (old.value, old.log_value, old.density.z.tolist()) == (1.0, 0.0, [1.0])
        assert new.iterations == 0 and new.gradient_sup == 0.0
        assert entropy.min_entropy_emm(m).entropy == 0.0

    def test_holdings_beyond_the_old_cap(self):
        # tiny prices need unit holdings beyond the dense loop's 1e6 cap,
        # where that loop stalls; the recursion scales each node by
        # max|dS|, so it has no cap
        rng = np.random.default_rng(5)
        base = random_na_market(rng, d=int(rng.integers(1, 4)))
        m = MarketModel(base.tree, 1e-6 * base.prices)
        old = _assert_matches_oracle(m)[1]
        assert old[1].endswith("strategy cap 1e6 binding")
        new, unit = entropy.exp_utility(m), entropy.exp_utility(base)
        assert np.max(np.abs(new.theta_hat.holdings)) > 1e6
        h, h1 = 1e-6 * new.theta_hat.holdings, unit.theta_hat.holdings
        assert np.max(np.abs(h - h1)) <= 1e-9 * np.max(np.abs(h1))
        assert new.log_value == pytest.approx(unit.log_value, rel=1e-12)

    def test_domain_rejection_halves_the_step(self, monkeypatch):
        rejected = []

        def counting(evaluate, *args, **kwargs):
            def recorded(x):
                out = evaluate(x)
                rejected.append(out is None)
                return out
            return damped_newton(recorded, *args, **kwargs)

        monkeypatch.setattr(viatree.numeraire, "damped_newton", counting)
        # the second full Newton step leaves the domain 1 - pi/2 > 0
        R, p = np.array([[1.0], [-0.5]]), np.array([0.9, 0.1])
        _assert_same(node_log_optimal(R, p), oracle.node_log_optimal(R, p))
        assert sum(rejected) == 1
        assert node_log_optimal(R, p)[0] == pytest.approx(1.7, abs=1e-12)

    def test_zero_slope_falls_back_to_the_gradient(self):
        # a Hessian of zeros gives a zero Newton step, so the routine
        # steps along the gradient and halves once: x = 0 -> 2 -> 1
        def evaluate(x):
            grad = np.array([2.0 * (1.0 - x[0])])
            return -float((x[0] - 1.0) ** 2), grad, lambda: np.zeros((1, 1))

        x, f, _, gnorm, steps = damped_newton(evaluate, np.zeros(1), 1e-12, 10)
        assert (x[0], f, gnorm, steps) == (1.0, 0.0, 0.0, 1)

    def test_flat_objective_accepts_on_gradient_contraction(self):
        # f never rises, so only the gradient test can accept: 1 -> 0.85
        def evaluate(x):
            return 0.0, np.array([1.0 - x[0]]), lambda: np.array([[1.0 / 0.15]])

        x, _, _, gnorm, steps = damped_newton(evaluate, np.zeros(1), 1e-12, 1)
        assert (x[0], gnorm, steps) == (0.15, 0.85, 1)

    def test_armijo_accepts_a_small_rise(self):
        # slope 1 at x = 0; f(1) = 5e-4 clears f + 1e-4 t slope while the
        # gradient stays at 0.95, and every shorter step lowers f
        def evaluate(x):
            f = {0.0: 0.0, 1.0: 5e-4}.get(x[0], -1.0)
            return f, np.array([1.0 - 0.05 * x[0]]), lambda: np.eye(1)

        x, f, _, gnorm, steps = damped_newton(evaluate, np.zeros(1), 1e-12, 1)
        assert (x[0], f, gnorm, steps) == (1.0, 5e-4, 0.95, 1)

    def test_smaller_gradient_downhill_is_rejected(self):
        # x = 1 has the smaller gradient but a lower f: an overshoot, not
        # progress; the routine halves to x = 0.5, where f rises
        def evaluate(x):
            f = {0.0: 0.0, 1.0: -1e-3, 0.5: 1e-3}[x[0]]
            grad = {0.0: 1.0, 1.0: 0.5, 0.5: 0.95}[x[0]]
            return f, np.array([grad]), lambda: np.eye(1)

        x, f, _, gnorm, steps = damped_newton(evaluate, np.zeros(1), 1e-12, 1)
        assert (x[0], f, gnorm, steps) == (0.5, 1e-3, 0.95, 1)

    def test_stall_after_sixty_rejected_points(self):
        calls = []

        def evaluate(x):
            calls.append(x[0])
            return (0.0, np.ones(1), lambda: np.eye(1)) if x[0] == 0.0 else None

        x, _, _, gnorm, steps = damped_newton(evaluate, np.zeros(1), 1e-12, 10)
        assert (x[0], gnorm, steps) == (0.0, 1.0, 0)
        assert calls == [0.0] + [0.5**i for i in range(60)]


class TestStalls:
    """A node that is arbitrage-free (eps* about 0.5) whose log optimum puts
    one wealth factor near 1e-20, below what doubles can hold."""

    R = np.array([[8.762727220378311e-05], [-8.764638229516171e-05]])
    P = np.array([6.820990522168634e-20, 1.0])

    def _market(self):
        tree = EventTree([None, 0, 0], [1.0, *self.P])
        return MarketModel(tree, np.vstack([[1.0], 1.0 + self.R]))

    def test_node_is_arbitrage_free(self):
        assert node_na_lp(self.R, self.P).eps_star > 0.49

    def test_node_solver_raises(self):
        msg = r"did not reach gradient 1e-10 \(residual 4\.\d+e-05\)"
        with pytest.raises(RuntimeError, match=msg):
            node_log_optimal(self.R, self.P)
        # the separate loop returned the unconverged point
        assert oracle.node_log_optimal(self.R, self.P)[1] > 1e-5

    @pytest.mark.parametrize("solve", [
        log_recursion,
        numeraire_portfolio,
        lambda m: maximize_utility(m, log_utility()),
        lambda m: maximize_utility(m, crra_utility(0.5)),
    ])
    def test_recursions_name_the_node(self, solve):
        msg = r"^at node 0: .*(residual|gradient) \d\.\d+e-05"
        with pytest.raises(RuntimeError, match=msg):
            solve(self._market())

