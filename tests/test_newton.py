"""The stacked damped-Newton routine against the separate per-solver loops.

``newton_oracle`` keeps the loops that ``viatree.newton.damped_newton``
replaced.  The routine now solves a stack of node problems at once with one
batched ``eigh`` least-norm step per iteration, where the loops called
``lstsq`` node by node, so results differ from the loops in the last bits,
and at ill-conditioned nodes two optima whose gradients are both below
1e-10 differ in the fractions by up to 1e-4.  The node log and power
solvers, the log and CRRA recursions and the custom-utility program are
therefore held to the loops within tolerances: the same ok/raise outcome
and message, every node gradient below its tolerance, the log growth and
the CRRA value within 1e-12 relative, |1 - sum p/g| <= 1e-12 at every log
node after the polish, and ``verify_numeraire`` passing; the custom program
also keeps its holdings within 1e-6 of the loops' max|holdings|.  Its tree
Newton step is also held to CRRA(0.5) / 2 on the deep markets where the
dense loop stalled, to a peak memory under 1 KB per node, and to its stop
rule's edge cases.  The scalar rules of the routine (zero-slope fallback,
flat and Armijo acceptance, the downhill rejection, the 60-halving stall)
keep their exact values, alone and stacked beside each other.

The minimal-entropy and exponential-utility results come from a node
recursion, not from the oracle's two dense leaf-space Newton loops, so they
are held to those loops within tolerances: where the dense loops converge
the density agrees with the dense minimal-entropy one within 1e-8 and the
exponential-utility log value with the dense one within 1e-12 relative;
where the dense exponential-utility loop stalls, the recursion must still
converge and pass its own duality and density-link checks.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import newton_oracle as oracle
from viatree import (
    ArbitrageError,
    EventTree,
    MarketModel,
    check_na,
    crra_utility,
    custom_utility,
    log_utility,
    maximize_utility,
    numeraire_portfolio,
)
from viatree import entropy, numeraire, utility, verify_numeraire
from viatree.generators import random_na_market
from viatree.markets import WealthKernel
from viatree.newton import damped_newton, raise_stalled
from viatree.numeraire import log_optimal_stack, log_recursion
from viatree.utility import power_optimal_stack

SEEDS = range(30)
UNITS = (1.0, 1e6)
SQRT = custom_utility(np.sqrt, lambda x: 0.5 / np.sqrt(x), name="sqrt")
STALLED = re.compile(r"stalled at (gradient|KKT residual)")
LINK_TOL = 1e-9  # density-link gate, relative to max(1, max|S|)
REL = 1e-12  # log growth, CRRA and custom values against the loops
# custom-program holdings against the loops, relative to max|holdings|: the
# relative gate stops once the gradient is below 1e-8 x max(1, max|dS|),
# where the loops' absolute gate may take one more step; the 51 markets
# both sides solve differ by at most 7.8e-8
HOLD_REL = 1e-6
LOG_MESSAGE = re.compile(r"did not reach gradient 1e-10 \(residual \S+\)")
POWER_MESSAGE = re.compile(r"power-utility Newton stalled at gradient \S+ \(target 1e-10\)")


def _market(seed, unit):
    rng = np.random.default_rng(seed)
    m = random_na_market(rng, d=1 + seed % 3)
    return MarketModel(m.tree, unit * m.prices)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, RuntimeError, ValueError) as e:
        return type(e), str(e)


def _same_outcome(new, old, message):
    """Both raise the same error type with the solver's message, or both
    return; returns whether they returned."""
    failed = isinstance(new, tuple) and len(new) == 2 and isinstance(new[0], type)
    was = isinstance(old, tuple) and len(old) == 2 and isinstance(old[0], type)
    assert failed == was, (new, old)
    if failed:
        assert new[0] is old[0] and message.search(new[1]) and message.search(old[1])
    return not failed


def _log_node_checks(R, p, pi, gnorm, total=1.0):
    """First-order condition at a log node: the gradient below FOC_TOL and,
    after the polish, the one-step deflator weights p / g summing to
    ``total`` (1 for branch probabilities, sum p for reweighted ones)."""
    g = 1.0 + R @ pi
    assert np.all(g > 0.0) and gnorm < numeraire.FOC_TOL
    assert float(np.max(np.abs((p / g) @ R), initial=0.0)) < numeraire.FOC_TOL
    assert abs(total - float(np.sum(p / g))) <= REL
    return float(p @ np.log(g))


def _log_node(R, p):
    """One node as a G = 1 ``log_optimal_stack``: (pi, gradient sup norm, steps)."""
    pi, gnorm, steps = log_optimal_stack(R[None], p[None])
    return pi[0], float(gnorm[0]), int(steps[0])


def _power_node(R, a, gamma):
    """One node as a G = 1 ``power_optimal_stack``: (pi, objective, gradient
    sup norm, steps)."""
    pi, f, gnorm, steps = power_optimal_stack(R[None], a[None], gamma)
    return pi[0], float(f[0]), float(gnorm[0]), int(steps[0])


def _same_stall(stalled, old, message):
    """The stack's row stalls (gradient >= tol) exactly where the loop
    raises its solver message; returns whether both converged."""
    was = isinstance(old, tuple) and len(old) == 2 and isinstance(old[0], type)
    assert stalled == was, old
    if was:
        assert old[0] is RuntimeError and message.search(old[1])
    return not stalled


def _assert_log_node(R, p):
    new, old = _log_node(R, p), _outcome(oracle.node_log_optimal, R, p)
    if _same_stall(new[1] >= numeraire.FOC_TOL, old, LOG_MESSAGE):
        f = _log_node_checks(R, p, new[0], new[1])
        assert f == pytest.approx(float(p @ np.log(1.0 + R @ old[0])), rel=REL, abs=REL)


def _assert_power_node(R, a, gamma):
    new = _power_node(R, a, gamma)
    old = _outcome(oracle.node_power_optimal, R, a, gamma)
    if _same_stall(new[2] >= utility.FOC_TOL, old, POWER_MESSAGE):
        assert new[1] == pytest.approx(old[1], rel=REL)


def _assert_recursions(m, new_w, old_w, x0, gammas):
    new, old = utility._solve_log(m, new_w, x0), oracle._solve_log(m, old_w, x0)
    assert new.value == pytest.approx(old.value, rel=REL, abs=REL)
    assert new.foc_residual < numeraire.FOC_TOL
    fr = new.strategy.fractions
    R = WealthKernel(m).returns
    for v, e in _edge_groups(m.tree):
        w = new_w[e]
        _log_node_checks(R[e], w, fr[v], new.foc_residual, float(np.sum(w)))
    for gamma in gammas:
        new = utility._solve_crra(m, new_w, x0, gamma)
        old = oracle._solve_crra(m, old_w, x0, gamma)
        assert new.value == pytest.approx(old.value, rel=REL)
        assert new.foc_residual < utility.FOC_TOL


def _edge_groups(t):
    """(internal node, its range in ``EventTree.edges`` order)."""
    lo = 0
    for v in t.internal:
        yield v, slice(lo, lo + t.children[v].size)
        lo += t.children[v].size


@pytest.mark.parametrize("unit", UNITS)
@pytest.mark.parametrize("seed", SEEDS)
def test_node_solvers_and_recursions(seed, unit):
    m = _market(seed, unit)
    t, R = m.tree, WealthKernel(m).returns
    for v, e in _edge_groups(t):
        p = t.branch_prob[t.children[v]]
        _assert_log_node(R[e], p)
        a = p * (1.0 + np.arange(p.size))
        for gamma in (0.5, 2.0):
            _assert_power_node(R[e], a / (1.0 - gamma), gamma)
    _assert_recursions(m, utility._step_weights(m, None), oracle._step_weights(m, None),
                       2.0, (0.5, 2.0))
    sol = numeraire_portfolio(m)
    if sol.status != "ok":  # unit 1e6 can flip the NA verdict (a check_na defect)
        return
    assert max(sol.node_gradients.values()) < numeraire.FOC_TOL
    assert list(sol.node_gradients) == t.internal.tolist()
    for v, e in _edge_groups(t):
        p = t.branch_prob[t.children[v]]
        _log_node_checks(R[e], p, sol.fractions.fractions[v], sol.node_gradients[int(v)])
    assert verify_numeraire(m, sol.wealth, seed=seed)["passed"]


@pytest.mark.parametrize("seed", SEEDS)
def test_recursions_under_a_density(seed):
    m = _market(seed, 1.0)
    z = oracle.min_entropy_emm(m).density
    new_w, old_w = utility._step_weights(m, z), oracle._step_weights(m, z)
    assert np.array_equal(new_w, np.concatenate([old_w[int(v)] for v in m.tree.internal]))
    _assert_recursions(m, new_w, old_w, 1.0, (3.0,))


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


def _permute_siblings(m, rng):
    """The same market with every sibling group in a random order,
    renumbered breadth-first."""
    t = m.tree
    order, parent = [0], [None]
    for i in range(t.n_nodes):  # ``order`` grows while it is walked
        kids = rng.permutation(t.children[order[i]])
        order.extend(kids.tolist())
        parent.extend([i] * kids.size)
    order = np.array(order)
    return MarketModel(EventTree(parent, t.branch_prob[order]), m.prices[order])


def _values(m):
    w = utility._step_weights(m, None)
    log, crra = utility._solve_log(m, w, 1.0), utility._solve_crra(m, w, 1.0, 2.0)
    exp = entropy.exp_utility(m)
    assert log.foc_residual < numeraire.FOC_TOL and crra.foc_residual < utility.FOC_TOL
    assert exp.gradient_sup < entropy.NODE_TOL
    return log.value, crra.value, exp.log_value


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
def test_sibling_permutation_leaves_values_unchanged(seed, d):
    rng = np.random.default_rng(seed)
    m = random_na_market(rng, d=d, depth_range=(1, 4), branch_range=(2, 4))
    if check_na(m).verdict != "NA":  # rounding can break a d >= 2 two-branch node
        return
    base, permuted = _values(m), _values(_permute_siblings(m, rng))
    assert permuted == pytest.approx(base, rel=REL, abs=REL)


def _assert_same_holdings(new, old):
    h, ref = new.strategy.holdings, old.strategy.holdings
    assert np.max(np.abs(h - ref)) <= HOLD_REL * np.max(np.abs(ref))


def _custom_gate(m):
    return utility.CUSTOM_GRAD_TOL * max(1.0, float(np.max(np.abs(oracle.leaf_gain_matrix(m)))))


@pytest.mark.parametrize("seed", SEEDS)
def test_custom_program(seed):
    m = _market(seed, 1.0)
    new = _outcome(utility._solve_custom, m, utility._step_weights(m, None), 1.0, SQRT)
    old = _outcome(oracle._solve_custom, m, oracle._step_weights(m, None), 1.0, SQRT)
    if _same_outcome(new, old, STALLED):
        assert new.value == pytest.approx(old.value, rel=REL)
        _assert_same_holdings(new, old)
        assert new.foc_residual < _custom_gate(m)


@pytest.mark.parametrize("seed", SEEDS)
def test_custom_program_flat_objective(seed):
    # unit 1e6: the gradient is in price units, so the gate is relative to
    # max|dS|; every market converges, 9 of which stall the separate loop
    # with its absolute 1e-8 gate
    m = _market(seed, 1e6)
    new = utility._solve_custom(m, utility._step_weights(m, None), 1.0, SQRT)
    old = _outcome(oracle._solve_custom, m, oracle._step_weights(m, None), 1.0, SQRT)
    assert new.foc_residual < _custom_gate(m)
    if isinstance(old, tuple):
        assert old[0] is RuntimeError and STALLED.search(old[1])
    else:
        assert new.value == pytest.approx(old.value, rel=REL)
        _assert_same_holdings(new, old)


CUSTOM_STALLS = ((6, 2), (7, 1), (7, 2), (7, 3), (8, 1))  # (depth, seed)


def _deep_market(depth, seed):
    rng = np.random.default_rng(seed)
    return random_na_market(rng, d=2, depth_range=(depth, depth), branch_range=(2, 3))


def _sqrt_against_crra(m, **kwargs):
    """sqrt is CRRA(0.5) / 2, so both programs must give the same value."""
    w = utility._step_weights(m, None)
    res = utility._solve_custom(m, w, 1.0, SQRT, **kwargs)
    assert res.value == pytest.approx(utility._solve_crra(m, w, 1.0, 0.5).value / 2, rel=REL)
    return res


@pytest.mark.parametrize("depth, seed", CUSTOM_STALLS)
def test_custom_program_on_deep_trees(depth, seed):
    # the dense program raised "custom-utility program stalled" on all five
    _sqrt_against_crra(_deep_market(depth, seed))


def test_custom_program_memory_per_node():
    # the dense program's gain matrix and Hessian grew with the square of
    # the tree; the tree step keeps a few arrays per node
    m = _deep_market(8, 1)
    w = utility._step_weights(m, None)
    tracemalloc.start()
    try:
        utility._solve_custom(m, w, 1.0, SQRT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * m.tree.n_nodes


class TestCustomStopRule:
    def test_one_node_market(self):
        m = MarketModel(EventTree([None], [1.0]), np.array([[2.0]]))
        res = utility._solve_custom(m, utility._step_weights(m, None), 4.0, SQRT)
        assert (res.value, res.foc_residual) == (2.0, 0.0)
        assert res.strategy.holdings.tolist() == [[0.0]]

    def test_stops_at_the_gradient_floor(self):
        # leaf wealths near 1e-12 hold the rounding of the gradient above
        # its gate once the value is exact; the run stops there and is ok
        m = _deep_market(10, 4)
        res = _sqrt_against_crra(m)
        gate = utility.CUSTOM_GRAD_TOL * max(1.0, float(np.max(np.abs(WealthKernel(m).dS))))
        assert res.foc_residual > gate

    def test_gate_that_no_gradient_meets(self, monkeypatch):
        monkeypatch.setattr(utility, "CUSTOM_GRAD_TOL", 0.0)
        _sqrt_against_crra(_deep_market(5, 3))

    def test_arbitrage_market_stalls(self, arbitrage_market):
        m = arbitrage_market
        with pytest.raises(RuntimeError, match=r"^custom-utility program stalled at gradient"):
            utility._solve_custom(m, utility._step_weights(m, None), 1.0, SQRT)

    def test_accepted_points_are_evaluated_once(self):
        # a spy on U, which each evaluation of a feasible point reads once
        # at its leaf wealths: no point is read twice, and the last point
        # read is the optimum, so no line search runs after the stop test
        m = _deep_market(6, 1)
        seen = []

        def u(x):
            seen.append(x.tobytes())
            return np.sqrt(x)

        spy = custom_utility(u, lambda x: 0.5 / np.sqrt(x), name="spy")
        res = utility._solve_custom(m, utility._step_weights(m, None), 1.0, spy)
        assert len(seen) == len(set(seen)) > 10
        assert seen[-1] == res.wealth.values[m.tree.leaves].tobytes()


def _zero_slope(x, rows):
    # a Hessian of zeros gives a zero Newton step
    return -((x[:, 0] - 1.0) ** 2), 2.0 * (1.0 - x), np.zeros((len(rows), 1, 1))


def _flat(x, rows):
    # f never rises, so only the gradient test can accept
    return np.zeros(len(rows)), 1.0 - x, np.full((len(rows), 1, 1), 1.0 / 0.15)


def _armijo(x, rows):
    # slope 1 at x = 0; f(1) = 5e-4 clears f + 1e-4 t slope while the
    # gradient stays at 0.95, and every shorter step lowers f
    f = np.array([{0.0: 0.0, 1.0: 5e-4}.get(v, -1.0) for v in x[:, 0]])
    return f, 1.0 - 0.05 * x, np.ones((len(rows), 1, 1))


def _downhill(x, rows):
    # x = 1 has the smaller gradient but a lower f: an overshoot, not progress
    f = np.array([{0.0: 0.0, 1.0: -1e-3, 0.5: 1e-3}[v] for v in x[:, 0]])
    grad = np.array([[{0.0: 1.0, 1.0: 0.5, 0.5: 0.95}[v]] for v in x[:, 0]])
    return f, grad, np.ones((len(rows), 1, 1))


def _stall(x, rows):
    # every point but the start lies outside the domain
    f = np.where(x[:, 0] == 0.0, 0.0, -np.inf)
    return f, np.ones_like(x), np.ones((len(rows), 1, 1))


EDGE_CASES = (_zero_slope, _flat, _armijo, _downhill, _stall)


def _solve_one(evaluate, max_iter):
    x, f, grad, _, gnorm, steps = damped_newton(evaluate, np.zeros((1, 1)), 1e-12, max_iter)
    return x[0, 0], f[0], grad[0, 0], gnorm[0], steps[0]


class TestEdgeCases:
    def test_degenerate_node(self):
        R = np.array([[1e-13, -1e-13], [-5e-13, 2e-13]])
        p = np.array([0.4, 0.6])
        new, old = _log_node(R, p), oracle.node_log_optimal(R, p)
        assert new[0].tolist() == old[0].tolist() == [0.0, 0.0]
        assert new[1:] == old[1:] == (0.0, 0)
        new, old = _power_node(R, -p, 2.0), oracle.node_power_optimal(R, -p, 2.0)
        assert new[0].tolist() == old[0].tolist() == [0.0, 0.0]
        assert new[1] == pytest.approx(old[1], rel=1e-15) and old[1] == -1.0
        assert new[2:] == old[2:] == (0.0, 0)

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
            def recorded(x, rows):
                out = evaluate(x, rows)
                rejected.extend(np.isneginf(out[0]).tolist())
                return out
            return damped_newton(recorded, *args, **kwargs)

        monkeypatch.setattr(numeraire, "damped_newton", counting)
        # the second full Newton step leaves the domain 1 - pi/2 > 0
        R, p = np.array([[1.0], [-0.5]]), np.array([0.9, 0.1])
        new, old = _log_node(R, p), oracle.node_log_optimal(R, p)
        assert sum(rejected) == 1
        assert new[0] == pytest.approx(1.7, abs=1e-12) and old[0] == pytest.approx(1.7, abs=1e-12)
        assert new[2] == old[2]
        _log_node_checks(R, p, new[0], new[1])

    def test_zero_slope_falls_back_to_the_gradient(self):
        # the routine steps along the gradient and halves once: x = 0 -> 2 -> 1
        x, f, _, gnorm, steps = _solve_one(_zero_slope, 10)
        assert (x, f, gnorm, steps) == (1.0, 0.0, 0.0, 1)

    def test_flat_objective_accepts_on_gradient_contraction(self):
        # 1 -> 0.85
        x, _, _, gnorm, steps = _solve_one(_flat, 1)
        assert (x, gnorm, steps) == (0.15, 0.85, 1)

    def test_armijo_accepts_a_small_rise(self):
        x, f, _, gnorm, steps = _solve_one(_armijo, 1)
        assert (x, f, gnorm, steps) == (1.0, 5e-4, 0.95, 1)

    def test_smaller_gradient_downhill_is_rejected(self):
        # the routine halves to x = 0.5, where f rises
        x, f, _, gnorm, steps = _solve_one(_downhill, 1)
        assert (x, f, gnorm, steps) == (0.5, 1e-3, 0.95, 1)

    def test_stall_after_sixty_rejected_points(self):
        calls = []

        def evaluate(x, rows):
            calls.append(x[0, 0])
            return _stall(x, rows)

        x, _, _, gnorm, steps = _solve_one(evaluate, 10)
        assert (x, gnorm, steps) == (0.0, 1.0, 0)
        assert calls == [0.0] + [0.5**i for i in range(60)]

    def test_stacked_rows_are_independent(self):
        # the five cases as one G = 5 stack: each row gets exactly its own
        # G = 1 result, whatever its neighbours accept, halve or stall on
        def stacked(x, rows):
            parts = [EDGE_CASES[r](x[i : i + 1], rows[i : i + 1]) for i, r in enumerate(rows)]
            return tuple(np.concatenate(column) for column in zip(*parts))

        x, f, grad, _, gnorm, steps = damped_newton(stacked, np.zeros((5, 1)), 1e-12, 1)
        for r, case in enumerate(EDGE_CASES):
            alone = _solve_one(case, 1)
            assert (x[r, 0], f[r], grad[r, 0], gnorm[r], steps[r]) == alone
        assert steps.tolist() == [1, 1, 1, 1, 0]

    def test_rows_stop_on_their_own(self):
        # row 0 starts at its optimum; rows 1 and 2 take one exact Newton
        # step; row 3 reports a Hessian of zeros for its flat quadratic, so
        # it creeps along its gradient until max_iter stops it, without
        # holding the other rows back
        def quadratic(x, rows):
            c = np.array([[0.0], [2.0], [3.0], [1.0]])[rows]
            a = np.array([[1.0], [1.0], [1.0], [0.01]])[rows]
            return -np.sum(a * (x - c) ** 2, axis=1), 2.0 * a * (c - x), 2.0 * (a > 0.1)[:, :, None] * a[:, :, None]

        x, _, _, _, gnorm, steps = damped_newton(quadratic, np.zeros((4, 1)), 1e-12, 3)
        assert x[:3, 0].tolist() == [0.0, 2.0, 3.0] and steps.tolist() == [0, 1, 1, 3]
        assert gnorm[:3].tolist() == [0.0, 0.0, 0.0] and gnorm[3] > 0.0


class TestStalls:
    """A node that is arbitrage-free (eps* about 0.5) whose log optimum puts
    one wealth factor near 1e-20, below what doubles can hold."""

    R = np.array([[8.762727220378311e-05], [-8.764638229516171e-05]])
    P = np.array([6.820990522168634e-20, 1.0])

    def _market(self):
        tree = EventTree([None, 0, 0], [1.0, *self.P])
        return MarketModel(tree, np.vstack([[1.0], 1.0 + self.R]))

    def test_node_is_arbitrage_free(self):
        cert = check_na(self._market())
        assert cert.verdict == "NA" and cert.node_eps[0] > 0.49

    def test_node_solver_raises(self):
        msg = r"did not reach gradient 1e-10 \(residual 4\.\d+e-05\)"
        gnorm = _log_node(self.R, self.P)[1]
        with pytest.raises(RuntimeError, match=msg):
            raise_stalled(np.array([gnorm]), numeraire.FOC_TOL, [0], numeraire._log_stall)
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

