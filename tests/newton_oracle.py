"""The damped-Newton solvers as separate loops, kept as a test-only oracle.

Each function is the per-solver loop that ``viatree.newton.damped_newton``
replaced, unchanged: the node log and power problems, the log and CRRA
recursions and the custom-utility program (with per-node dict weights), and
the two dense leaf-space solvers that the entropy recursion replaced, the
minimal-entropy Newton in the null space of the martingale constraints and
the exponential-utility Newton over every (node, asset) holding, and the
dense leaf gain matrix that the custom loop and both dense loops read.
``tests/test_newton.py`` holds the library's stacked log, power and custom
solvers and its entropy recursion to these results within tolerances (the
custom loop keeps the old absolute 1e-8 gradient gate).  The entropy loops keep their own constants and result
types, so nothing here depends on what the library's entropy module holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from viatree.arbitrage import ArbitrageError, check_na
from viatree.markets import (
    DensityProcess,
    FractionStrategy,
    MarketModel,
    UnitStrategy,
    density_from_leaf_values,
    price_martingale_residual,
    wealth_from_fractions,
    wealth_from_units,
)
from viatree.utility import OptimalPortfolioResult

FOC_TOL = 1e-10
CUSTOM_GRAD_TOL = 1e-8
KKT_TOL = 1e-8
EXP_GRAD_TOL = 1e-8
THETA_CAP = 1e6
DUALITY_TOL = 1e-6


def leaf_gain_matrix(m: MarketModel) -> np.ndarray:
    """G[leaf, (internal node, asset)] = dS on the edge the leaf's path takes
    out of the node, so G @ theta are the terminal gains of unit holdings."""
    t = m.tree
    col = np.zeros(t.n_nodes, dtype=np.int64)
    col[t.internal] = np.arange(t.internal.size)
    G = np.zeros((t.leaves.size, t.internal.size, m.d))
    rows, node = np.arange(t.leaves.size), t.leaves
    for _ in range(t.horizon):
        up = t.parent[node]
        G[rows, col[up]] = m.prices[node] - m.prices[up]
        node = up
    return G.reshape(t.leaves.size, -1)


@dataclass
class MinEntropyResult:
    density: DensityProcess
    entropy: float
    kkt_residual: float
    leaf_q: np.ndarray
    iterations: int


@dataclass
class ExpUtilityResult:
    theta_hat: UnitStrategy
    value: float  # min E[exp(-(theta . S)_T)]
    log_value: float
    gradient_sup: float
    density: DensityProcess
    density_link_residual: float
    entropy_density_gap: float
    cap_hit: bool
    iterations: int


def node_log_optimal(
    returns,
    probs,
    tol: float = FOC_TOL,
    max_iter: int = 200,
) -> tuple[np.ndarray, float, int]:
    """Damped Newton for the one-step log-growth problem.

    Starts at pi = 0 and backtracks to keep every factor 1 + pi . R_j
    strictly positive.  Singular Hessians (redundant assets) fall back to
    the least-norm Newton step, so the returned maximizer is the minimal
    one.  Returns (pi, sup-norm of the gradient, iterations).
    """
    R = np.atleast_2d(np.asarray(returns, dtype=np.float64))
    p = np.asarray(probs, dtype=np.float64)
    k, d = R.shape
    pi = np.zeros(d)
    if np.max(np.abs(R)) < 1e-12:
        return pi, 0.0, 0

    def value(x):
        g = 1.0 + R @ x
        if np.any(g <= 0.0):
            return -np.inf
        return float(p @ np.log(g))

    f = value(pi)
    it = 0
    for it in range(1, max_iter + 1):
        g = 1.0 + R @ pi
        grad = (p / g) @ R
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < tol:
            # polish with full Newton steps while the gradient still drops;
            # quadratic convergence puts it near machine precision, so
            # downstream one-step ratio identities hold to ~1e-13
            for _ in range(3):
                if gnorm == 0.0:
                    break
                H = (R.T * (p / g**2)) @ R
                step, *_ = np.linalg.lstsq(H, grad, rcond=None)
                cand = pi + step
                gc = 1.0 + R @ cand
                if not np.all(gc > 0.0):
                    break
                grad_c = (p / gc) @ R
                gn_c = float(np.max(np.abs(grad_c)))
                if gn_c >= gnorm:
                    break
                pi, g, grad, gnorm = cand, gc, grad_c, gn_c
            return pi, gnorm, it - 1
        H = (R.T * (p / g**2)) @ R  # negated Hessian, positive semidefinite
        step, *_ = np.linalg.lstsq(H, grad, rcond=None)
        slope = float(grad @ step)
        if slope <= 0.0:  # numerically null direction; nudge along gradient
            step = grad
            slope = float(grad @ grad)
        t = 1.0
        moved = False
        while t > 1e-14:
            cand = pi + t * step
            gc = 1.0 + R @ cand
            if np.all(gc > 0.0):
                fc = float(p @ np.log(gc))
                gn_c = float(np.max(np.abs((p / gc) @ R)))
                # Armijo, or plain gradient contraction: near the optimum the
                # objective is flat to machine precision while Newton still
                # shrinks the gradient quadratically.
                if fc > f + 1e-4 * t * slope or gn_c <= 0.9 * gnorm:
                    pi = cand
                    f = fc
                    moved = True
                    break
            t *= 0.5
        if not moved:
            # no admissible improvement left at this scale
            return pi, gnorm, it
    g = 1.0 + R @ pi
    grad = (p / g) @ R
    gnorm = float(np.max(np.abs(grad)))
    if gnorm >= tol:
        raise RuntimeError(
            f"log-growth Newton did not reach gradient {tol} "
            f"(residual {gnorm}); is the node arbitrage-free?"
        )
    return pi, gnorm, it


def node_power_optimal(
    returns,
    weights,
    gamma: float,
    tol: float = FOC_TOL,
    max_iter: int = 200,
):
    """Maximize sum_j a_j (1 + pi . R_j)^(1-gamma) over feasible fractions.

    The continuation weights ``a_j`` share the sign of 1/(1-gamma), which
    makes the objective concave for every admissible gamma.  Returns
    (pi, objective at the optimum in the original scale, gradient sup
    norm, iterations).
    """
    R = np.atleast_2d(np.asarray(returns, dtype=np.float64))
    a = np.asarray(weights, dtype=np.float64)
    k, d = R.shape
    scale = float(np.sum(np.abs(a)))
    if scale == 0.0:
        raise ValueError("continuation weights are all zero")
    ah = a / scale
    one_m_g = 1.0 - gamma
    pi = np.zeros(d)
    if np.max(np.abs(R)) < 1e-12:
        return pi, float(np.sum(a)), 0.0, 0

    def phi_grad(x):
        g = 1.0 + R @ x
        if np.any(g <= 0.0):
            return -np.inf, None, None
        pw = g**one_m_g
        val = float(ah @ pw)
        grad = one_m_g * ((ah * g ** (-gamma)) @ R)
        return val, grad, g

    f, grad, g = phi_grad(pi)
    gnorm = float(np.max(np.abs(grad)))
    it = 0
    for it in range(1, max_iter + 1):
        if gnorm < tol:
            break
        curv = gamma * one_m_g * (ah * g ** (-gamma - 1.0))
        H = (R.T * curv) @ R  # negated Hessian; PSD for all gamma
        step, *_ = np.linalg.lstsq(H, grad, rcond=None)
        slope = float(grad @ step)
        if slope <= 0.0:
            step = grad
            slope = float(grad @ grad)
        t = 1.0
        moved = False
        while t > 1e-14:
            cand = pi + t * step
            fc, grad_c, gc = phi_grad(cand)
            if grad_c is not None:
                gn_c = float(np.max(np.abs(grad_c)))
                if fc > f + 1e-4 * t * slope or gn_c <= 0.9 * gnorm:
                    pi, f, grad, g, gnorm = cand, fc, grad_c, gc, gn_c
                    moved = True
                    break
            t *= 0.5
        if not moved:
            break
    if gnorm >= tol:
        raise RuntimeError(
            f"power-utility Newton stalled at gradient {gnorm} (target {tol})"
        )
    return pi, f * scale, gnorm, it


def _step_weights(m: MarketModel, measure: DensityProcess | None):
    t = m.tree
    out = {}
    for v in t.internal:
        kids = t.children[v]
        w = t.branch_prob[kids].copy()
        if measure is not None:
            w *= measure.z[kids] / measure.z[v]
        out[int(v)] = w
    return out


def _solve_log(m, weights, x0) -> OptimalPortfolioResult:
    t = m.tree
    fr = np.zeros_like(m.prices)
    offs = np.zeros(t.n_nodes)  # continuation term E[sum of log factors]
    foc = 0.0
    for v in reversed(t.internal):
        kids = t.children[v]
        w = weights[int(v)]
        R = (m.prices[kids] - m.prices[v]) / m.prices[v]
        pi, gnorm, _ = node_log_optimal(R, w)
        fr[v] = pi
        foc = max(foc, gnorm)
        step = np.log(1.0 + R @ pi)
        offs[v] = float(w @ (step + offs[kids]))
    strategy = FractionStrategy(fractions=fr)
    wealth = wealth_from_fractions(m, strategy, x0)
    return OptimalPortfolioResult(
        status="ok",
        value=float(np.log(x0) + offs[0]),
        strategy=strategy,
        wealth=wealth,
        foc_residual=foc,
        route="log-recursion",
    )


def _solve_crra(m, weights, x0, gamma) -> OptimalPortfolioResult:
    t = m.tree
    fr = np.zeros_like(m.prices)
    psi = np.empty(t.n_nodes)
    psi[t.leaves] = 1.0 / (1.0 - gamma)
    foc = 0.0
    for v in reversed(t.internal):
        kids = t.children[v]
        a = weights[int(v)] * psi[kids]
        R = (m.prices[kids] - m.prices[v]) / m.prices[v]
        pi, val, gnorm, _ = node_power_optimal(R, a, gamma)
        fr[v] = pi
        psi[v] = val
        foc = max(foc, gnorm)
    strategy = FractionStrategy(fractions=fr)
    wealth = wealth_from_fractions(m, strategy, x0)
    return OptimalPortfolioResult(
        status="ok",
        value=float(x0 ** (1.0 - gamma) * psi[0]),
        strategy=strategy,
        wealth=wealth,
        foc_residual=foc,
        route="crra-recursion",
    )


def _solve_custom(m, weights, x0, utility, tol=CUSTOM_GRAD_TOL, max_iter=300):
    t = m.tree
    # leaf weights under the chosen measure (``weights`` in edge order)
    step = np.concatenate([weights[int(v)] for v in t.internal])[None]
    qw = t.roll(step, 1.0, multiplicative=True)[0, t.leaves]
    G = leaf_gain_matrix(m)
    n = G.shape[1]
    theta = np.zeros(n)

    def full_wealth(th):
        h = np.zeros_like(m.prices)
        h[t.internal] = th.reshape(t.internal.size, m.d)
        return wealth_from_units(m, UnitStrategy(holdings=h), x0)

    def objective(th):
        w = full_wealth(th)
        if np.any(w.values <= 0.0):
            return -np.inf, None, None
        wl = w.values[t.leaves]
        val = float(qw @ utility.value(wl))
        grad = G.T @ (qw * utility.marginal(wl))
        return val, grad, wl

    f, grad, wl = objective(theta)
    gnorm = float(np.max(np.abs(grad)))
    for _ in range(max_iter):
        if gnorm < tol:
            break
        curv = -qw * utility.second(wl)  # positive weights
        H = (G.T * curv) @ G
        step, *_ = np.linalg.lstsq(H, grad, rcond=None)
        slope = float(grad @ step)
        if slope <= 0.0:
            step = grad
            slope = float(grad @ grad)
        ts = 1.0
        moved = False
        while ts > 1e-14:
            cand = theta + ts * step
            fc, grad_c, wl_c = objective(cand)
            if grad_c is not None:
                gn_c = float(np.max(np.abs(grad_c)))
                if fc > f + 1e-4 * ts * slope or gn_c <= 0.9 * gnorm:
                    theta, f, grad, wl, gnorm = cand, fc, grad_c, wl_c, gn_c
                    moved = True
                    break
            ts *= 0.5
        if not moved:
            break
    if gnorm >= tol:
        raise RuntimeError(
            f"custom-utility program stalled at gradient {gnorm} (target {tol})"
        )
    h = np.zeros_like(m.prices)
    h[t.internal] = theta.reshape(t.internal.size, m.d)
    strategy = UnitStrategy(holdings=h)
    wealth = full_wealth(theta)
    return OptimalPortfolioResult(
        status="ok",
        value=f,
        strategy=strategy,
        wealth=wealth,
        foc_residual=gnorm,
        route="concave-program",
    )


def min_entropy_emm(m: MarketModel, max_iter: int = 200) -> MinEntropyResult:
    """Martingale density minimizing E[Z_T log Z_T].

    Works on the leaf-measure formulation: the feasible set is the affine
    slice {M q = b, q > 0} of leaf masses whose node aggregates make every
    asset a martingale.  A strictly positive particular solution comes
    from the no-arbitrage sweep; Newton then runs in the null space of M,
    where the relative entropy is strictly convex.  Raises
    ``ArbitrageError`` when no positive solution exists.
    """
    cert = check_na(m)
    if cert.verdict != "NA":
        raise ArbitrageError(
            "market admits arbitrage; no equivalent martingale density exists",
            certificate=cert,
        )
    t = m.tree
    probs = t.unconditional_probs()
    pl = probs[t.leaves]
    # leaf-mass constraints: a martingale row per (internal node, asset), then
    # total mass; kept in C order, since BLAS results depend on the layout
    M = np.ascontiguousarray(np.vstack([leaf_gain_matrix(m).T, np.ones(t.leaves.size)]))
    b = np.zeros(M.shape[0])
    b[-1] = 1.0
    q0 = cert.density.z[t.leaves] * pl

    # least-squares polish of the particular solution onto {Mq = b}
    resid = b - M @ q0
    if np.max(np.abs(resid)) > 0.0:
        corr, *_ = np.linalg.lstsq(M, resid, rcond=None)
        q1 = q0 + corr
        if np.all(q1 > 0.0):
            q0 = q1

    u, s, vt = np.linalg.svd(M)
    tol = max(M.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    N = vt[rank:].T  # (n_leaf, k) orthonormal null-space basis

    def kkt(q):
        if N.shape[1] == 0:
            return 0.0
        return float(np.max(np.abs(N.T @ (np.log(q / pl) + 1.0))))

    q = q0
    it = 0
    if N.shape[1] > 0:
        obj = float(q @ np.log(q / pl))
        for it in range(1, max_iter + 1):
            g = N.T @ (np.log(q / pl) + 1.0)
            gnorm = float(np.max(np.abs(g)))
            if gnorm < 1e-12:
                break
            H = N.T @ (N / q[:, None])
            step, *_ = np.linalg.lstsq(H, -g, rcond=None)
            direction = N @ step
            alpha = 1.0
            accepted = False
            slope = float(g @ step)
            if slope > 0.0:  # lstsq artifact; fall back to steepest descent
                direction = -(N @ g)
                slope = -float(g @ g)
            for _ in range(60):
                qn = q + alpha * direction
                if np.all(qn > 0.0):
                    objn = float(qn @ np.log(qn / pl))
                    gn = float(np.max(np.abs(N.T @ (np.log(qn / pl) + 1.0))))
                    if objn <= obj + 1e-4 * alpha * slope or gn <= 0.9 * gnorm:
                        q, obj = qn, objn
                        accepted = True
                        break
                alpha *= 0.5
            if not accepted:
                break
    res_kkt = kkt(q)
    if res_kkt >= KKT_TOL:
        raise RuntimeError(
            f"minimal-entropy Newton stalled at KKT residual {res_kkt:.3e}"
        )
    z_leaf = q / pl
    density = density_from_leaf_values(t, z_leaf)
    return MinEntropyResult(
        density=density,
        entropy=float(q @ np.log(z_leaf)),
        kkt_residual=res_kkt,
        leaf_q=q,
        iterations=it,
    )


def exp_utility(m: MarketModel, max_iter: int = 200) -> ExpUtilityResult:
    """Minimize E[exp(-(theta . S)_T)] over unit strategies.

    The objective is handled in log space (logsumexp) so large gains do
    not overflow.  Its gradient at theta is exactly minus the martingale
    residual vector of the induced density exp(-G)/E[exp(-G)], so at the
    optimum that density is an equivalent martingale density; convex
    duality links it to the minimal-entropy one, and the result reports
    both residuals.  Strategies are capped at sup-norm 1e6; the cap can
    only bind when the market admits arbitrage, which is rejected first.
    """
    cert = check_na(m)
    if cert.verdict != "NA":
        raise ArbitrageError(
            "market admits arbitrage; exponential-utility infimum is not attained",
            certificate=cert,
        )
    t = m.tree
    probs = t.unconditional_probs()
    pl = probs[t.leaves]
    logp = np.log(pl)
    F = leaf_gain_matrix(m)
    n_var = F.shape[1]

    def eval_at(theta):
        a = logp - F @ theta
        mx = float(np.max(a))
        w = np.exp(a - mx)
        sw = float(np.sum(w))
        f = mx + np.log(sw)
        what = w / sw  # induced leaf measure
        grad = -(F.T @ what)
        return f, grad, what

    theta = np.zeros(n_var)
    cap_hit = False
    f, grad, what = eval_at(theta)
    it = 0
    for it in range(1, max_iter + 1):
        gnorm = float(np.max(np.abs(grad))) if n_var else 0.0
        if gnorm < 1e-10:
            break
        Fw = F * what[:, None]
        mean = F.T @ what
        H = F.T @ Fw - np.outer(mean, mean)
        step, *_ = np.linalg.lstsq(H, -grad, rcond=None)
        slope = float(grad @ step)
        if slope > 0.0:
            step = -grad
            slope = -float(grad @ grad)
        alpha = 1.0
        accepted = False
        for _ in range(60):
            tn = theta + alpha * step
            if float(np.max(np.abs(tn), initial=0.0)) > THETA_CAP:
                cap_hit = True
                tn = np.clip(tn, -THETA_CAP, THETA_CAP)
            fn, gn, wn = eval_at(tn)
            if fn <= f + 1e-4 * alpha * slope or float(
                np.max(np.abs(gn), initial=0.0)
            ) <= 0.9 * gnorm:
                theta, f, grad, what = tn, fn, gn, wn
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    gnorm = float(np.max(np.abs(grad), initial=0.0))
    if gnorm >= EXP_GRAD_TOL:
        raise RuntimeError(
            f"exponential-utility Newton stalled at gradient {gnorm:.3e}"
            + ("; strategy cap 1e6 binding" if cap_hit else "")
        )

    holdings = np.zeros_like(m.prices)
    holdings[t.internal] = theta.reshape(-1, m.d)
    z_leaf = what / pl
    density = density_from_leaf_values(t, z_leaf)
    link = price_martingale_residual(m, density)
    me = min_entropy_emm(m)
    gap = float(np.max(np.abs(density.z - me.density.z)))
    if gap > DUALITY_TOL:
        raise AssertionError(
            f"induced density deviates from the minimal-entropy density by {gap:.3e}"
        )
    return ExpUtilityResult(
        theta_hat=UnitStrategy(holdings),
        value=float(np.exp(f)),
        log_value=f,
        gradient_sup=gnorm,
        density=density,
        density_link_residual=link,
        entropy_density_gap=gap,
        cap_hit=cap_hit,
        iterations=it,
    )
