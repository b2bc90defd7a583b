"""Node solvers started from the kept no-arbitrage certificate.

The log stack, every CRRA level and every exponential level start where
their first-order condition turns the certificate's one-step martingale
weights q into the optimum's own weights (``least_norm_fit``).  Held here:

* where a node's martingale weights are unique, as at every node of the
  d = 2, 2-3 branch markets, the start is the optimum and no Newton step
  is taken (the cold start takes several);
* started and cold recursions agree: values within 1e-12 relative, every
  node gradient below its tolerance, and the same first stalled node;
* a row whose fit leaves the domain starts at 0, as a cold row does;
* every solution is least-norm: orthogonal to the null space of its
  node's increments (of its returns, for fractions), also for the
  exponential holdings, which a cold start let drift along that space.
"""

import numpy as np
import pytest

from viatree import (
    MarketModel,
    check_na,
    crra_utility,
    entropy,
    exp_utility,
    log_utility,
    maximize_utility,
    numeraire,
    utility,
)
from viatree.generators import random_na_market
from viatree.markets import WealthKernel, _step_weights
from viatree.newton import FOC_TOL, least_norm_fit
from viatree.numeraire import fraction_problems, log_optimal_stack, log_recursion
from viatree.utility import power_optimal_stack

GAMMAS = (0.5, 2.0)
REL = 1e-12
NULL_REL = 1e-9  # null-space component, relative to max|solution| at the node
RANK_CUT = 1e-12  # singular values below this times the largest span the null space


def _market(seed, unit):  # the markets of test_newton.py
    m = random_na_market(np.random.default_rng(seed), d=1 + seed % 3)
    return MarketModel(m.tree, unit * m.prices)


def _deep(seed):
    return random_na_market(np.random.default_rng(seed), d=2, depth_range=(6, 6),
                            branch_range=(2, 3))


def _weights(m):
    """(branch probabilities, the certificate's martingale weights)."""
    return _step_weights(m, None), _step_weights(m, check_na(m).density)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RuntimeError as e:
        return str(e)


def test_least_norm_fit_drops_zero_rows():
    A = np.array([[[1.0, 1.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 4.0]]])
    b = np.array([[2.0, 5.0], [2.0, 8.0]])
    x = least_norm_fit(A, b)
    assert x[0] == pytest.approx([1.0, 1.0], rel=1e-14)
    assert x[1] == pytest.approx([1.0, 2.0], rel=1e-14)


# ------------------------------------------------------------- step counts


@pytest.fixture
def newton_steps(monkeypatch):
    """Per damped_newton call of the log, power and exponential stacks,
    the accepted steps of its rows."""
    calls = {"numeraire": [], "utility": [], "entropy": []}
    for name, module in (("numeraire", numeraire), ("utility", utility), ("entropy", entropy)):
        newton = module.damped_newton

        def counted(*args, _newton=newton, _calls=calls[name], **kwargs):
            out = _newton(*args, **kwargs)
            _calls.append(out[-1].copy())
            return out

        monkeypatch.setattr(module, "damped_newton", counted)
    return calls


@pytest.mark.parametrize("seed", range(5))
def test_unique_weights_take_no_steps(seed, newton_steps):
    m = _deep(seed)
    w, q = _weights(m)

    def run(q):
        for calls in newton_steps.values():
            calls.clear()
        log_recursion(m, w, q)
        for gamma in GAMMAS:
            utility._solve_crra(m, w, 1.0, gamma, q)
        entropy._exp_solve(m, q)
        assert len(newton_steps["numeraire"]) == 1
        assert len(newton_steps["utility"]) == len(GAMMAS) * m.tree.horizon
        assert len(newton_steps["entropy"]) == m.tree.horizon
        return {name: [int(s.sum()) for s in calls] for name, calls in newton_steps.items()}

    cold, warm = run(None), run(q)
    assert all(n > 0 for calls in cold.values() for n in calls)
    assert all(n == 0 for calls in warm.values() for n in calls)


@pytest.mark.parametrize("seed", range(5))
def test_public_calls_start_from_the_certificate(seed, newton_steps):
    m = _deep(seed)
    assert maximize_utility(m, log_utility()).status == "ok"
    assert maximize_utility(m, crra_utility(2.0)).status == "ok"
    assert exp_utility(m).iterations == 0
    for calls in newton_steps.values():
        assert calls and all(int(s.max(initial=0)) == 0 for s in calls)


# --------------------------------------------------------------- agreement


def _assert_agree(cold, warm, value, gnorm, tol):
    """Both stall at the same first node, or both return the same value
    and the started one a gradient below ``tol``."""
    assert isinstance(cold, str) == isinstance(warm, str)
    if isinstance(cold, str):
        assert cold.split(":")[0] == warm.split(":")[0]
    else:
        assert value(warm) == pytest.approx(value(cold), rel=REL, abs=REL)
        assert gnorm(warm) < tol


@pytest.mark.parametrize("unit", (1.0, 1e6))
@pytest.mark.parametrize("seed", range(30))
def test_started_recursions_agree_with_cold_ones(seed, unit):
    m = _market(seed, unit)
    if check_na(m).verdict != "NA":  # unit 1e6 can flip the verdict; no certificate
        return
    w, q = _weights(m)
    _assert_agree(_outcome(log_recursion, m, w), _outcome(log_recursion, m, w, q),
                  lambda r: r[2], lambda r: r[1].max(initial=0.0), FOC_TOL)
    for gamma in GAMMAS:
        _assert_agree(_outcome(utility._solve_crra, m, w, 2.0, gamma),
                      _outcome(utility._solve_crra, m, w, 2.0, gamma, q),
                      lambda r: r.value, lambda r: r.foc_residual, FOC_TOL)
    _assert_agree(_outcome(entropy._exp_solve, m), _outcome(entropy._exp_solve, m, q),
                  lambda r: r[1][0], lambda r: r[3], entropy.NODE_TOL)


# ------------------------------------------------------------------ domain


# one asset, three branches: the martingale weights (e, 1 - 3e, 2e) are not
# unique, and at e = 0.01 the fit of the log condition is pi = 19.6, whose
# down factor 1 - 0.5 pi is negative
R_WIDE = np.array([[[1.0], [0.0], [-0.5]]])
P_WIDE = np.full((1, 3), 1.0 / 3.0)
Q_WIDE = np.array([[0.01, 0.97, 0.02]])
# the binomial node, whose martingale weights (1/3, 2/3) are unique
R_BIN = np.array([[[1.0], [-0.5], [0.0]]])
P_BIN = np.array([[0.5, 0.5, 0.0]])
Q_BIN = np.array([[1.0 / 3.0, 2.0 / 3.0, 1.0]])


def test_fit_outside_the_domain_starts_at_zero():
    R, p, q = (np.concatenate(pair) for pair in ((R_WIDE, R_BIN), (P_WIDE, P_BIN), (Q_WIDE, Q_BIN)))
    assert least_norm_fit(R_WIDE, P_WIDE / Q_WIDE - 1.0)[0, 0] == pytest.approx(19.6)
    _, start = fraction_problems(R, p, q=q)
    assert start[0].tolist() == [0.0]
    assert start[1, 0] == pytest.approx(0.5, rel=1e-14)  # the binomial's optimum
    cold, warm = log_optimal_stack(R, p), log_optimal_stack(R, p, q)
    assert warm[0][0].tobytes() == cold[0][0].tobytes() and warm[2][0] == cold[2][0] > 0
    assert warm[0][1, 0] == pytest.approx(0.5, rel=1e-14) and warm[2][1] == 0
    assert np.all(warm[1] < FOC_TOL)


def test_power_fit_outside_the_domain_starts_at_zero():
    # the same node twice, at the wide weights and at (1/4, 1/4, 1/2)
    R, q = np.concatenate([R_WIDE, R_WIDE]), np.concatenate([Q_WIDE, [[0.25, 0.25, 0.5]]])
    a = -np.concatenate([P_WIDE, P_WIDE])  # gamma = 2: a has the sign of 1 - gamma
    _, start = fraction_problems(R, a, 2.0, q)
    assert start[0].tolist() == [0.0]
    assert start[1, 0] != 0.0 and np.all(1.0 + R[1] @ start[1] > 0.0)
    cold, warm = power_optimal_stack(R, a, 2.0), power_optimal_stack(R, a, 2.0, q)
    assert warm[0][0].tobytes() == cold[0][0].tobytes() and warm[3][0] == cold[3][0] > 0
    assert warm[0][1, 0] == pytest.approx(cold[0][1, 0], rel=1e-9)
    assert warm[1][1] == pytest.approx(cold[1][1], rel=REL)
    assert np.all(warm[2] < FOC_TOL)


# ------------------------------------------------------------- least norm


def _null_component(A, x):
    """Norm of x's component in the null space of A's rows, relative to
    max|x|."""
    _, s, vt = np.linalg.svd(A)
    null = vt[int(np.sum(s > RANK_CUT * s.max(initial=0.0))):]
    scale = np.max(np.abs(x), initial=0.0)
    return float(np.linalg.norm(null @ x)) / scale if scale > 0.0 else 0.0


def _assert_least_norm(m):
    t, k = m.tree, WealthKernel(m)
    R = k.returns
    solutions = [
        (R, maximize_utility(m, log_utility()).strategy.fractions),
        (R, maximize_utility(m, crra_utility(2.0)).strategy.fractions),
        (k.dS, exp_utility(m).theta_hat.holdings),
    ]
    for i, v in enumerate(t.internal):
        e = slice(t.starts[i], t.starts[i] + t.sizes[i])
        for incr, x in solutions:
            assert _null_component(incr[e], x[v]) <= NULL_REL, (v, x[v])


@pytest.mark.parametrize("seed", range(40))
def test_solutions_are_least_norm(seed):
    rng = np.random.default_rng(seed)
    _assert_least_norm(random_na_market(rng, d=2, depth_range=(4, 4), branch_range=(2, 3)))


@pytest.mark.parametrize("ratio", (1.0, 3.0))
@pytest.mark.parametrize("seed", range(30))
def test_redundant_asset_gets_least_norm_holdings(seed, ratio):
    base = random_na_market(np.random.default_rng(seed), d=1, depth_range=(4, 4),
                            branch_range=(2, 3))
    _assert_least_norm(MarketModel(base.tree, np.hstack([base.prices, ratio * base.prices])))
