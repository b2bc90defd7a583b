"""Numeraire (growth-optimal) portfolio on event-tree markets.

At each internal node the growth-optimal fractions maximize the expected
one-step log growth  f(pi) = sum_j p_j log(1 + pi . R_j)  over the open
polytope where every wealth factor stays positive.  Under no-arbitrage
the maximizer exists and satisfies the first-order condition
E[R / (1 + pi . R)] = 0, which is exactly the numeraire property: the
wealth of any admissible strategy divided by the candidate's wealth is a
supermartingale (with equality one step at a time when the condition
holds exactly, so complete binary nodes exhibit true martingale ratios).
``fraction_problems`` poses the log and CRRA node stacks, started from the
martingale weights the no-arbitrage sweep keeps (``arbitrage._sweep``) and
tested on their wealth factors alone, so ``damped_newton`` evaluates each
start once.

``verify_numeraire`` and ``deflator_probe`` decide that property for any
candidate exactly, node by node: its one-step excess over every feasible
fraction is one small LP (``_node_excess``), bounded in closed form by the
kept no-arbitrage weights where they settle it.  On a finite tree the
optional-stopping form needs nothing more: the one-step inequalities glue
along any stopping-time cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arbitrage import NaCertificate, _sweep
from .markets import FractionStrategy, MarketModel, WealthProcess, _detached, wealth_from_fractions
from .newton import FOC_TOL, NEWTON_MAX_ITER, damped_newton, least_norm_fit, least_norm_step, raise_stalled
from .simplex import solve_lps
from .trees import EventTree, _bits

RATIO_TOL = 1e-8
DEFLATOR_TOL = 1e-10


def fraction_problems(R, a, gamma: float = 1.0, q=None):
    """``damped_newton``'s ``evaluate`` for rows maximizing
    sum_j a[i, j] phi(1 + pi . R[i, j]) over positive factors, phi = log for
    gamma = 1, else phi(g) = g^(1-gamma) with a of the sign of 1 - gamma,
    and the rows' start.  Edges with a = 0 and R = 0 pad a row to the
    common branch count; a node whose returns are all below 1e-12 is solved
    with R = 0 (pi stays 0).  The start is 0, or given one-step martingale
    weights q (padded with 1) the first-order condition inverted at q: at
    the optimum |a_j| phi'(g_j) is a multiple of the martingale weights, so
    where q are the node's only ones g_j = 1 + pi . R_j = kappa u_j with
    u_j = (|a_j| / q_j)^(1/gamma), and sum_j q_j g_j = 1 fixes kappa.
    ``least_norm_fit`` solves R pi = u / (q . u) - 1 for all rows at once;
    a row whose fit leaves the domain (some 1 + pi . R_j <= 0, as
    ``_fraction_values`` tests) starts at 0, so ``damped_newton``'s first
    call is the start's one evaluation."""
    R = np.where(np.max(np.abs(R), axis=(1, 2), keepdims=True, initial=0.0) < 1e-12, 0.0, R)
    start = np.zeros((R.shape[0], R.shape[2]))
    if q is not None:
        u = (np.abs(a) / q) ** (1.0 / gamma)
        start = least_norm_fit(R, u / np.sum(q * u, axis=1, keepdims=True) - 1.0)
        start[np.any(1.0 + (R @ start[:, :, None])[:, :, 0] <= 0.0, axis=1)] = 0.0
    return (lambda x, rows: _fraction_values(R, a, gamma, x, rows)), start


def _fraction_values(R, a, gamma, x, rows):
    """f, gradients and negated Hessians of the problems ``rows`` at their
    points x, f = -inf where a factor 1 + pi . R_j is not positive."""
    Rr, ar = R[rows], a[rows]
    g = 1.0 + (Rr @ x[:, :, None])[:, :, 0]
    inside = np.all(g > 0.0, axis=1)
    g = np.where(inside[:, None], g, 1.0)
    if gamma == 1.0:
        phi, u = np.log(g), ar / g
    else:
        phi, u = g ** (1.0 - gamma), (1.0 - gamma) * ar * g**-gamma
    f = np.where(inside, np.einsum("ij,ij->i", ar, phi), -np.inf)
    return f, (u[:, None, :] @ Rr)[:, 0, :], (Rr.transpose(0, 2, 1) * (gamma * u / g)[:, None, :]) @ Rr


def log_optimal_stack(R, p, q=None):
    """G one-step log-growth problems sum_j p[i, j] log(1 + pi . R[i, j]),
    from pi = 0 or the fit at martingale weights q (``fraction_problems``);
    least-norm steps give the minimal maximizer.  Converged rows whose
    gradient is above its rounding floor (``_gradient_floor``) get up to
    three full Newton steps while it still drops and stays above the floor,
    which puts it near machine precision, so one-step ratio identities hold
    to rounding; the first starts from the gradients and Hessians that
    ``damped_newton`` returns.  A row already at its floor, such as a
    certificate start where the martingale weights are unique, is not
    polished.  A step that rounds back onto a point of its row's polish
    path is not evaluated: that point's gradient is known and not smaller.
    Returns (pi, gradient sup norm, Newton steps) per row; a stalled row
    keeps a gradient >= ``FOC_TOL``."""
    evaluate, pi0 = fraction_problems(R, p, 1.0, q)
    pi, _, grad, hess, gnorm, steps = damped_newton(evaluate, pi0, FOC_TOL, NEWTON_MAX_ITER)
    floor = _gradient_floor(R, p, pi)
    rows = np.flatnonzero((gnorm < FOC_TOL) & (gnorm > floor))
    grad, hess = grad[rows], hess[rows]
    path = []  # pi before each full step: a row still polishing was accepted at every one
    for _ in range(3):
        path.append(pi.copy())
        cand = pi[rows] + least_norm_step(hess, grad)
        new = ~np.any([np.all(cand == at[rows], axis=1) for at in path], axis=0)
        rows, cand = rows[new], cand[new]
        if not rows.size:
            break
        f, grad, hess = evaluate(cand, rows)
        gn_c = np.max(np.abs(grad), axis=1)
        ok = (f > -np.inf) & (gn_c < gnorm[rows])
        pi[rows[ok]], gnorm[rows[ok]] = cand[ok], gn_c[ok]
        keep = ok & (gn_c > floor[rows])
        rows, grad, hess = rows[keep], grad[keep], hess[keep]
    return pi, gnorm, steps


def _gradient_floor(R, p, pi):
    """Per row, the gradient sup norm that rounding alone leaves at pi:
    16 eps times the largest sum_j |p_j R_jl / g_j| over assets l, with
    g_j = 1 + pi . R_j, which bounds the rounding error of those sums."""
    g = 1.0 + (R @ pi[:, :, None])[:, :, 0]
    terms = np.abs(p / g)[:, None, :] @ np.abs(R)
    return 16.0 * np.finfo(np.float64).eps * np.max(terms, axis=(1, 2), initial=0.0)


def _log_stall(gnorm) -> str:
    return (f"log-growth Newton did not reach gradient {FOC_TOL} "
            f"(residual {float(gnorm)}); is the node arbitrage-free?")


def log_recursion(m: MarketModel, weights: np.ndarray | None = None, q: np.ndarray | None = None):
    """Log-optimal fractions at every internal node.

    ``weights`` are the one-step probabilities in ``EventTree.edges`` order
    (the branch probabilities by default).  A node's fractions do not depend
    on its children, so all internal nodes form one ``log_optimal_stack``;
    the expected log growth is then summed leaves to root.  Given the kept
    sweep's martingale weights q, the stack starts where the deflator
    weights w / (1 + pi . R) are q, which is the optimum (0 Newton steps)
    where q are the node's only martingale weights.  Returns the
    fractions, the gradient sup norm per internal node (breadth-first) and
    the expected log growth of the optimal wealth under those weights.
    """
    t, k = m.tree, _sweep(m)[1]
    R = k.returns
    w = t.branch_prob[t.edges] if weights is None else weights
    pi, gnorms, _ = log_optimal_stack(t.stack(R, 0.0), t.stack(w, 0.0),
                                      None if q is None else t.stack(q, 1.0))
    raise_stalled(gnorms, FOC_TOL, t.internal, _log_stall)
    fr = np.zeros_like(m.prices)
    fr[t.internal] = pi
    growth = t.backward(w, np.zeros(t.n_nodes), np.log1p(k.edge_dot(fr[None], R)[0]))
    return fr, gnorms, growth[0]


@dataclass
class NumeraireSolution:
    status: str  # "ok" | "arbitrage"
    fractions: FractionStrategy | None = None
    wealth: WealthProcess | None = None
    foc_sup: float | None = None
    node_gradients: dict = field(default_factory=dict)
    log_growth: float | None = None
    certificate: NaCertificate | None = None


def numeraire_portfolio(m: MarketModel, x0: float = 1.0) -> NumeraireSolution:
    """Growth-optimal fractions, wealth and per-node FOC residuals.

    Fractions do not depend on x0 and wealth is exactly linear in it (the
    cumulative growth factors are accumulated once).  On an arbitrage
    market there is no numeraire portfolio; the arbitrage certificate is
    returned instead.
    """
    if not (np.isfinite(x0) and x0 > 0.0):
        raise ValueError(f"initial capital must be finite and positive, got {x0!r}")
    kept, _, q = _sweep(m)
    cert = _detached(kept)
    if cert.verdict != "NA":
        return NumeraireSolution(status="arbitrage", certificate=cert)
    t = m.tree
    fr, gnorms, growth = log_recursion(m, q=q)
    gradients = dict(zip(t.internal.tolist(), gnorms.tolist()))
    strategy = FractionStrategy(fractions=fr)
    wealth = wealth_from_fractions(m, strategy, x0)
    return NumeraireSolution(
        status="ok",
        fractions=strategy,
        wealth=wealth,
        foc_sup=max(gradients.values(), default=0.0),
        node_gradients=gradients,
        log_growth=float(growth),
        certificate=cert,
    )


def _node_excess(m: MarketModel, candidate: WealthProcess, tol: float):
    """Exact one-step excess of a candidate numeraire N at every internal node.

    With q_j = p_j N(v) / N(child_j), the excess
    e_v = sup over feasible pi of sum_j q_j (1 + pi . R_j) - 1 is, by LP
    duality, e_v = min{sum_j u_j : sum_j u_j X_j = 0, u_j >= q_j} - 1.
    The kept sweep's martingale weights q* (``_sweep``) give u = t q* with
    t = max_j q_j / q*_j, so max_j q_j / q*_j - 1 bounds e_v from above,
    exactly where q* are the node's only martingale weights; a node whose
    bound is <= ``tol`` keeps it.  Every other node solves the LP in
    y = u - q >= 0: A = X^T, b = -X^T q, cost 1, with X the increments
    divided by their max |dS|, in one ``solve_lps`` stack per branch
    count.  An infeasible LP (no martingale weights) gives +inf, as does
    an ARBITRAGE certificate's failing node.  Returns e (internal,), q and
    q* (None on ARBITRAGE), both per edge.
    """
    t, n = m.tree, candidate.values
    cert, k, q_star = _sweep(m)
    q = t.branch_prob[t.edges] * n[t.edge_parent] / n[t.edges]
    e = np.full(t.internal.size, np.inf)
    lp = np.ones(t.internal.size, dtype=bool)
    if q_star is not None:
        bound = np.maximum.reduceat(q / q_star, t.starts) - 1.0
        lp = bound > tol
        e[~lp] = bound[~lp]
    else:
        lp[cert.fail_node] = False  # internal node i is node i
    if lp.any():
        for size in np.unique(t.sizes[lp]):
            at = np.flatnonzero(lp & (t.sizes == size))
            edges = t.starts[at, None] + np.arange(size)
            X = k.dS[edges]
            top = np.abs(X).max(axis=(1, 2), keepdims=True)
            A = (X / np.where(top > 0.0, top, 1.0)).transpose(0, 2, 1)
            res = solve_lps(A, -(A @ q[edges][:, :, None])[:, :, 0], np.ones(size))
            value = q[edges].sum(axis=1) - 1.0 + res.x.sum(axis=1)  # NaN where not optimal
            e[at] = np.where(res.status == "optimal", value, np.inf)
    return e, q, q_star


def _compounded(t: EventTree, e: np.ndarray) -> float:
    """max over leaves of the product of (1 + e_v^+) along the path, - 1."""
    steps = np.repeat(1.0 + np.maximum(e, 0.0), t.sizes)
    return float(t.roll(steps[None], 1.0, multiplicative=True)[0, t.leaves].max()) - 1.0


def _reports(m: MarketModel, candidate: WealthProcess, tol: float = RATIO_TOL):
    """``verify_numeraire``'s and ``deflator_probe``'s reports on one
    ``_node_excess`` call at ``tol``.

    The model keeps the reports of the last candidate asked
    (``MarketModel.memo``, keyed by the candidate's wealth values as
    ``trees._bits`` compares them, its x0 and ``tol``), so asking both
    questions about one candidate runs one pass; a new candidate, x0 or
    ``tol`` replaces them.  These are the kept reports themselves: each
    public call returns a copy of its own (``dict``; every value is a
    number, a bool or None).  The candidate is checked
    (``_checked_candidate``) only when no kept reports match it: a kept key
    comes from a candidate that passed the check.
    """
    n, x0 = np.asarray(candidate.values), candidate.x0
    key = ("numeraire_reports", _bits(n), x0, tol)
    return m.memo(key, lambda: _excess_reports(m, _checked_candidate(m, n, x0), tol))


def _checked_candidate(m: MarketModel, n: np.ndarray, x0) -> WealthProcess:
    """The candidate numeraire with wealth ``n`` from ``x0``; the wealth
    must be one finite, strictly positive value per node and x0 finite and
    positive, else ``ValueError``."""
    size = m.tree.n_nodes
    if n.shape != (size,):
        raise ValueError(f"candidate numeraire wealth has shape {n.shape}, expected ({size},)")
    if not np.all(np.isfinite(n)):
        raise ValueError(f"candidate numeraire wealth at node {np.flatnonzero(~np.isfinite(n))[0]} is not finite")
    if np.any(n <= 0.0):
        raise ValueError("candidate numeraire wealth must be strictly positive")
    if not (np.isfinite(x0) and x0 > 0.0):
        raise ValueError(f"candidate initial capital must be finite and positive, got {x0!r}")
    return WealthProcess(x0=x0, values=n)


def _excess_reports(m: MarketModel, candidate: WealthProcess, tol: float):
    t = m.tree
    e, q, q_star = _node_excess(m, candidate, tol)
    cut = _compounded(t, e)
    gap = None
    if q_star is not None:
        binary = np.repeat(t.sizes == 2, t.sizes)
        gap = float(np.abs(q[binary] / q_star[binary] - 1.0).max(initial=0.0))
    excess = float(e.max(initial=-np.inf))
    verification = {
        "passed": bool(excess <= tol and cut <= tol),
        "worst_ratio_excess": excess,
        "worst_node": int(t.internal[np.argmax(e)]) if e.size else None,
        "binary_martingale_gap": gap,
        "worst_cut_excess": cut,
        "tol": tol,
    }
    x0 = candidate.x0
    base = float(t.unconditional_probs()[t.leaves] @ (x0 / candidate.terminal(t)))
    worst = x0 * (x0 / candidate.values[0] * (1.0 + cut) - 1.0)
    deflator = {
        "passed": bool(worst <= RATIO_TOL and base <= 1.0 + DEFLATOR_TOL),
        "deflator_expectation": base,
        "worst_excess": float(worst),
        "tol": RATIO_TOL,
    }
    return verification, deflator


def verify_numeraire(
    m: MarketModel,
    candidate: WealthProcess,
    n_strategies: int = 100,
    seed: int = 0,
    tol: float = RATIO_TOL,
) -> dict:
    """Check the defining supermartingale property of a candidate numeraire.

    X/N is a supermartingale for every admissible X exactly when no node
    has a positive one-step excess e_v (``_node_excess``).
    ``worst_cut_excess`` bounds E[X_tau / N_tau] / (X_0 / N_0) - 1 over
    every admissible X and stopping time tau, by compounding the node
    excesses along each path: on a finite tree optional stopping glues the
    one-step inequalities, so no cut is drawn.  The check passes when
    max e_v and that bound are both <= tol.
    Binary nodes are additionally held to the martingale equality:
    ``binary_martingale_gap`` is max |q_j / q*_j - 1| over their edges
    (None on an arbitrage market, which has no weights q*).

    The report shares one ``_node_excess`` pass with ``deflator_probe``'s
    (``_reports``): the model keeps the last candidate's reports until a
    new candidate, x0 or ``tol`` is asked, or its prices or tree arrays
    change, so asking both questions about one candidate runs one pass.

    ``n_strategies`` and ``seed`` are accepted and ignored: the check
    samples nothing.  They stay for callers written against the sampled
    check.
    """
    return dict(_reports(m, candidate, tol)[0])


def deflator_probe(
    m: MarketModel,
    candidate: WealthProcess,
    n: int = 200,
    seed: int = 0,
) -> dict:
    """Bound E[W_T x0 / N_T] - x0 over every admissible wealth W from x0.

    Compounding the node excesses of ``_node_excess`` along each path
    bounds it by x0 (x0 / N_0 G - 1), G the largest product of
    (1 + e_v^+) over a root-to-leaf path; the probe passes when that bound
    is <= ``RATIO_TOL`` and E[x0 / N_T] itself is <= 1 + ``DEFLATOR_TOL``.
    After ``verify_numeraire`` at its default ``tol`` on the same candidate
    and model the report is the kept one (``_reports``): no second pass.

    ``n`` and ``seed`` are accepted and ignored: the bound samples
    nothing.  They stay for callers written against the sampled probe.
    """
    return dict(_reports(m, candidate)[1])
