"""Numeraire (growth-optimal) portfolio on event-tree markets.

At each internal node the growth-optimal fractions maximize the expected
one-step log growth  f(pi) = sum_j p_j log(1 + pi . R_j)  over the open
polytope where every wealth factor stays positive.  Under no-arbitrage
the maximizer exists and satisfies the first-order condition
E[R / (1 + pi . R)] = 0, which is exactly the numeraire property: the
wealth of any admissible strategy divided by the candidate's wealth is a
supermartingale (with equality one step at a time when the condition
holds exactly, so complete binary nodes exhibit true martingale ratios).

The optional-stopping form of that statement needs no separate machinery
on a finite tree: the one-step inequalities glue along any stopping-time
cut, which is what ``verify_numeraire`` samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arbitrage import NaCertificate, check_na
from .markets import (
    FractionStrategy,
    MarketModel,
    WealthKernel,
    WealthProcess,
    _step_weights,
    wealth_from_fractions,
    wealth_from_units,
)
from .newton import FOC_TOL, NEWTON_MAX_ITER, damped_newton, least_norm_fit, least_norm_step, raise_stalled
from .trees import EventTree, StoppingTime

RATIO_TOL = 1e-8
DEFLATOR_TOL = 1e-10
SAMPLE_BOX = 2.0  # sampled fractions start uniform on [-SAMPLE_BOX, SAMPLE_BOX]
SAMPLE_MARGIN = 1e-6  # least wealth factor of a sampled fraction
STOP_PROB = 0.35  # chance that a random cut stops a non-root branch
N_CUTS = 3  # random stopping-time cuts of verify_numeraire


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
    a row whose fit leaves the domain starts at 0."""
    R = np.where(np.max(np.abs(R), axis=(1, 2), keepdims=True) < 1e-12, 0.0, R)

    def evaluate(x, rows):
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

    start = np.zeros((R.shape[0], R.shape[2]))
    if q is not None:
        u = (np.abs(a) / q) ** (1.0 / gamma)
        start = least_norm_fit(R, u / np.sum(q * u, axis=1, keepdims=True) - 1.0)
        start[np.isneginf(evaluate(start, np.arange(R.shape[0]))[0])] = 0.0
    return evaluate, start


def log_optimal_stack(R, p, q=None):
    """G one-step log-growth problems sum_j p[i, j] log(1 + pi . R[i, j]),
    from pi = 0 or the fit at martingale weights q (``fraction_problems``);
    least-norm steps give the minimal maximizer.  Converged rows
    get up to three full Newton steps while the gradient still drops, which
    puts it near machine precision, so one-step ratio identities hold to
    ~1e-13.  Returns (pi, gradient sup norm, Newton steps) per row; a
    stalled row keeps a gradient >= ``FOC_TOL``."""
    evaluate, pi0 = fraction_problems(R, p, q=q)
    pi, _, grad, gnorm, steps = damped_newton(evaluate, pi0, FOC_TOL, NEWTON_MAX_ITER)
    rows = np.flatnonzero((gnorm < FOC_TOL) & (gnorm > 0.0))
    _, grad, hess = evaluate(pi[rows], rows)
    for _ in range(3):
        if not rows.size:
            break
        cand = pi[rows] + least_norm_step(hess, grad)
        f, grad, hess = evaluate(cand, rows)
        gn_c = np.max(np.abs(grad), axis=1)
        ok = (f > -np.inf) & (gn_c < gnorm[rows])
        pi[rows[ok]], gnorm[rows[ok]] = cand[ok], gn_c[ok]
        keep = ok & (gn_c > 0.0)
        rows, grad, hess = rows[keep], grad[keep], hess[keep]
    return pi, gnorm, steps


def _log_stall(gnorm) -> str:
    return (f"log-growth Newton did not reach gradient {FOC_TOL} "
            f"(residual {float(gnorm)}); is the node arbitrage-free?")


def log_recursion(m: MarketModel, weights: np.ndarray | None = None, q: np.ndarray | None = None):
    """Log-optimal fractions at every internal node.

    ``weights`` are the one-step probabilities in ``EventTree.edges`` order
    (the branch probabilities by default).  A node's fractions do not depend
    on its children, so all internal nodes form one ``log_optimal_stack``;
    the expected log growth is then summed leaves to root.  Given the kept
    certificate's martingale weights q, the stack starts where the deflator
    weights w / (1 + pi . R) are q, which is the optimum (0 Newton steps)
    where q are the node's only martingale weights.  Returns the
    fractions, the gradient sup norm per internal node (breadth-first) and
    the expected log growth of the optimal wealth under those weights.
    """
    t, k = m.tree, WealthKernel(m)
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
    if x0 <= 0.0:
        raise ValueError(f"initial capital must be positive, got {x0!r}")
    cert = check_na(m)
    if cert.verdict != "NA":
        return NumeraireSolution(status="arbitrage", certificate=cert)
    t = m.tree
    fr, gnorms, growth = log_recursion(m, q=_step_weights(m, cert.density))
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


def _feasible_fractions(k: WealthKernel, rng: np.random.Generator, n: int) -> np.ndarray:
    """n strategies' uniform draws in one block, then each offending
    (strategy, node) row halved until its wealth factors clear the margin.
    Halving is exact, so it is counted on the row's smallest factor."""
    fr = np.zeros((n,) + k.market.prices.shape)
    fr[:, k.tree.internal] = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, (n, k.tree.internal.size, k.market.d))
    low = np.minimum.reduceat(k.edge_dot(fr, k.returns), k.tree.starts, axis=1)
    scale = np.ones_like(low)
    while np.any(bad := 1.0 + low * scale < SAMPLE_MARGIN):
        scale[bad] *= 0.5
    fr[:, k.tree.internal] *= scale[:, :, None]
    return fr


def sample_feasible_fractions(m: MarketModel, rng: np.random.Generator) -> FractionStrategy:
    """Uniform box draw per node, halved until all wealth factors clear
    the positivity margin.  Draws d uniforms per internal node in
    breadth-first order, as each strategy of ``verify_numeraire`` does."""
    fr = _feasible_fractions(WealthKernel(m), rng, 1)
    return FractionStrategy(fractions=fr[0])


def random_stopping_time(tree: EventTree, rng: np.random.Generator) -> StoppingTime:
    """A random cut: walk from the root, stopping each branch independently."""
    cut = []
    stack = [0]
    while stack:
        v = stack.pop()
        kids = tree.children[v]
        if kids.size == 0 or (v != 0 and rng.random() < STOP_PROB):
            cut.append(v)
        else:
            stack.extend(int(c) for c in kids)
    return StoppingTime.of(tree, cut)


def verify_numeraire(
    m: MarketModel,
    candidate: WealthProcess,
    strategies=None,
    n_strategies: int = 100,
    seed: int = 0,
    tol: float = RATIO_TOL,
) -> dict:
    """Check the defining supermartingale property of a candidate numeraire.

    For each test strategy W and every internal node v the one-step ratio
    expectation E[W(child)/N(child) | v] must not exceed W(v)/N(v) + tol.
    Three random stopping-time cuts check the optional-stopping form, and
    binary nodes are additionally held to the martingale equality.

    Sampled strategies draw from ``seed`` in the order strategy, internal
    node (breadth-first), asset, and the cuts draw after them.  Sampled
    strategies are evaluated in blocks of about ``BLOCK_ENTRIES``
    node-asset entries; given ones in one block.
    """
    t = m.tree
    if np.any(candidate.values <= 0.0):
        raise ValueError("candidate numeraire wealth must be strictly positive")
    k = WealthKernel(m)
    rng = np.random.default_rng(seed)
    if strategies is None:
        if n_strategies < 1:
            raise ValueError(f"n_strategies must be at least 1, got {n_strategies!r}")
        # the cuts draw after the strategies: skip past the strategy draws,
        # draw the cuts, then rewind and redraw one block at a time
        start = rng.bit_generator.state
        for b in k.blocks(n_strategies):
            rng.uniform(size=(b.stop - b.start, t.internal.size, m.d))
        cuts = [random_stopping_time(t, rng) for _ in range(N_CUTS)]
        rng.bit_generator.state = start
        wealths = (candidate.x0 * k.growth(_feasible_fractions(k, rng, b.stop - b.start))
                   for b in k.blocks(n_strategies))
    else:
        strategies = list(strategies)
        if not strategies:
            raise ValueError("strategies must not be empty")
        n_strategies = len(strategies)
        wealths = [np.stack([
            (wealth_from_fractions if isinstance(s, FractionStrategy) else wealth_from_units)(
                m, s, candidate.x0).values for s in strategies
        ])]
        cuts = [random_stopping_time(t, rng) for _ in range(N_CUTS)]
    p = t.unconditional_probs()
    cut_nodes = [np.asarray(cut.nodes) for cut in cuts]
    bp = t.branch_prob[t.edges]
    ratio_excess = cut_excess = -np.inf  # <= tol required
    binary_gap = 0.0
    for w in wealths:
        ratio = w / candidate.values
        gap = np.add.reduceat(bp * ratio[:, t.edges], t.starts, axis=1) - ratio[:, t.internal]
        ratio_excess = max(ratio_excess, gap.max(initial=-np.inf))
        binary_gap = max(binary_gap, np.abs(gap[:, t.sizes == 2]).max(initial=0.0))
        for c in cut_nodes:  # sequential sums, not BLAS: blocks cannot change a bit
            ev = np.cumsum(p[c] * ratio[:, c], axis=1)[:, -1]
            cut_excess = max(cut_excess, float(np.max(ev - ratio[:, 0])))
    passed = ratio_excess <= tol and cut_excess <= tol
    return {
        "passed": bool(passed),
        "worst_ratio_excess": float(ratio_excess),
        "binary_martingale_gap": float(binary_gap),
        "worst_cut_excess": float(cut_excess),
        "cuts": [{"cut": list(cut.nodes)} for cut in cuts],
        "n_strategies": n_strategies,
        "tol": tol,
    }


def admissible_unit_strategies(m: MarketModel, rng: np.random.Generator, n: int, x0: float):
    """n random admissible unit strategies, one block of about
    ``BLOCK_ENTRIES`` node-asset entries at a time, as (holdings, terminal
    wealths, scaled flags).  Holdings are standard normal, drawn in the order
    strategy, internal node (breadth-first), asset; a strategy dipping below
    0 from zero capital is scaled so its wealth from ``x0`` stays >= 0."""
    t = m.tree
    k = WealthKernel(m)
    for b in k.blocks(n):
        h = np.zeros((b.stop - b.start, t.n_nodes, m.d))
        h[:, t.internal] = rng.standard_normal((len(h), t.internal.size, m.d))
        low = k.units(h, 0.0).min(axis=1)
        scaled = low < 0.0
        h[scaled] *= (x0 / -low[scaled])[:, None, None]
        yield h, k.units(h, x0)[:, t.leaves], scaled


def deflator_probe(
    m: MarketModel,
    candidate: WealthProcess,
    n: int = 200,
    seed: int = 0,
) -> dict:
    """Probe the deflator x0 / N against sampled admissible wealths.

    Samples unit strategies, scales each so its wealth from x0 stays
    nonnegative, and checks E[W_T * x0 / N_T] <= x0 + ``RATIO_TOL``.  Also
    reports E[x0 / N_T] itself, which cannot exceed 1 + 1e-10.  Holdings
    draw from ``seed`` in the order strategy, internal node, asset, and are
    evaluated in blocks (``admissible_unit_strategies``).
    """
    t = m.tree
    if np.any(candidate.values <= 0.0):
        raise ValueError("candidate numeraire wealth must be strictly positive")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    x0 = candidate.x0
    rng = np.random.default_rng(seed)
    p_leaf = t.unconditional_probs()[t.leaves]
    defl_T = x0 / candidate.terminal(t)
    base = float(p_leaf @ defl_T)
    worst = -np.inf
    for _, w_T, _ in admissible_unit_strategies(m, rng, n, x0):
        ev = np.cumsum(p_leaf * (w_T * defl_T), axis=1)[:, -1]  # sequential, not BLAS
        worst = max(worst, float(np.max(ev - x0)))
    passed = worst <= RATIO_TOL and base <= 1.0 + DEFLATOR_TOL
    return {
        "passed": bool(passed),
        "deflator_expectation": base,
        "worst_excess": float(worst),
        "n": n,
        "tol": RATIO_TOL,
    }
