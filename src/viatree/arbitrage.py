"""No-arbitrage decisions, martingale densities and arbitrage certificates.

On a finite leveled event tree, absence of arbitrage is equivalent to a
per-node one-period condition: at every internal node the origin must lie
in the relative interior of the convex hull of the outgoing price
increments.  That condition is decided by a small LP per node,

    maximize  eps   s.t.  sum_j q_j dS_j = 0 (per asset),
                          sum_j q_j = 1,  q_j >= eps,

whose optimum eps* is strictly positive exactly when an interior
martingale weight vector q exists.  Gluing the per-node weights
multiplicatively yields an equivalent martingale measure; on failure the
LP dual supplies a separating vector H with H.dS_j >= 0 for all branches
and > 0 for at least one, which lifts to a one-period arbitrage strategy.

Every verdict ships with a replayable certificate: the density's
martingale residuals on the NA side, the strategy's terminal gains on the
arbitrage side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .markets import (
    DensityProcess,
    MarketModel,
    UnitStrategy,
    WealthKernel,
    price_martingale_residual,
    wealth_from_units,
)
from .simplex import SimplexError, solve_lp, solve_lps

DEGENERATE_TOL = 1e-12
EPS_POSITIVE_TOL = 1e-9
AMBIGUITY_BAND = 1e-9
EMM_RESIDUAL_TOL = 1e-9
GAIN_ROUNDOFF = 1e-12  # gains below this share of max |gain| count as zero
# Internal nodes a depth level needs before ``check_na`` stacks the LPs of
# that level and every deeper one; smaller levels go node by node.
STACK_MIN = 12


class ArbitrageError(RuntimeError):
    """Raised by operations that require an arbitrage-free market."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@dataclass
class NodeNaResult:
    eps_star: float
    q: np.ndarray | None = None  # interior one-step martingale weights
    separating: np.ndarray | None = None  # H with H.dS_j >= 0, some > 0
    degenerate: bool = False
    note: str = ""

    @property
    def is_na(self) -> bool:
        return self.q is not None


def _max_slack_lps(inc: np.ndarray):
    """LP data for max eps s.t. sum q_j dS_j = 0, sum q_j = 1, q_j >= eps,
    one LP per (k, d) increment block of the (G, k, d) stack ``inc``.

    Substituting r_j = q_j - eps >= 0 and splitting eps = e+ - e- gives an
    equality-form LP in (r, e+, e-) >= 0.
    """
    G, k, d = inc.shape
    sigma = inc.sum(axis=1)  # column sums of increments
    A = np.zeros((G, d + 1, k + 2))
    A[:, :d, :k] = inc.transpose(0, 2, 1)
    A[:, :d, k] = sigma
    A[:, :d, k + 1] = -sigma
    A[:, d, :k] = 1.0
    A[:, d, k] = k
    A[:, d, k + 1] = -k
    b = np.zeros((G, d + 1))
    b[:, d] = 1.0
    c = np.zeros(k + 2)
    c[k] = -1.0
    c[k + 1] = 1.0
    return A, b, c


def _separating_vector(inc: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Best-effort separating vector via  max sum_j H.dS_j  s.t.
    H.dS_j >= 0 for all j and |H_i| <= 1.  The box keeps the LP bounded;
    a positive optimum certifies one-period arbitrage."""
    k, d = inc.shape
    # variables: h+ (d), h- (d), s (k slacks), u+ (d), u- (d)
    n = 2 * d + k + 2 * d
    A = np.zeros((k + 2 * d, n))
    A[:k, :d] = inc
    A[:k, d : 2 * d] = -inc
    A[:k, 2 * d : 2 * d + k] = -np.eye(k)
    A[k : k + d, :d] = np.eye(d)
    A[k : k + d, 2 * d + k : 3 * d + k] = np.eye(d)
    A[k + d :, d : 2 * d] = np.eye(d)
    A[k + d :, 3 * d + k :] = np.eye(d)
    b = np.concatenate([np.zeros(k), np.ones(2 * d)])
    gain_sum = inc.sum(axis=0)
    c = np.zeros(n)
    c[:d] = -gain_sum
    c[d : 2 * d] = gain_sum
    res = solve_lp(A, b, c)
    if res.status != "optimal":
        return None, 0.0
    h = res.x[:d] - res.x[d : 2 * d]
    return h, float(-res.objective)


def node_na_lp(
    increments,
    branch_probs,
    tol_pos: float = EPS_POSITIVE_TOL,
) -> NodeNaResult:
    """Decide one-period no-arbitrage for the increments out of one node.

    Returns interior weights q when eps* > tol_pos; otherwise a separating
    vector.  A fully degenerate node (all increments below 1e-12 in sup
    norm) keeps the physical branch probabilities as its weights, so a
    constant market gets the density that is identically one.
    """
    inc = np.atleast_2d(np.asarray(increments, dtype=np.float64))
    bp = np.asarray(branch_probs, dtype=np.float64)
    k = inc.shape[0]
    if bp.shape != (k,):
        raise ValueError(f"expected {k} branch probabilities, got {bp.shape}")

    if np.max(np.abs(inc)) < DEGENERATE_TOL:
        return NodeNaResult(
            eps_star=float(bp.min()), q=bp.copy(), degenerate=True,
            note="degenerate node: all increments ~ 0",
        )

    A, b, c = _max_slack_lps(inc[None])
    A, b = A[0], b[0]
    res = solve_lp(A, b, c)
    if res.status == "optimal":
        eps = float(res.x[k] - res.x[k + 1])
        if abs(eps) < AMBIGUITY_BAND:
            res = solve_lp(A, b, c, tol=1e-13)  # re-solve in the ambiguity band
            if res.status == "optimal":
                eps = float(res.x[k] - res.x[k + 1])
        if res.status == "optimal" and eps > tol_pos:
            q = res.x[:k] + eps
            q = _project_weights(inc, q)
            return NodeNaResult(eps_star=eps, q=q)
        sep, gain = _separating_vector(inc)
        return NodeNaResult(
            eps_star=eps if res.status == "optimal" else -np.inf,
            separating=sep,
            note=f"max-slack eps*={eps!r}; separating gain sum {gain!r}",
        )
    # No q at all solves the moment system: strong arbitrage. The phase-1
    # Farkas dual certifies it, but report the polished vector from the
    # separating LP.
    sep, gain = _separating_vector(inc)
    return NodeNaResult(
        eps_star=-np.inf,
        separating=sep,
        note=f"moment system infeasible; separating gain sum {gain!r}",
    )


def _project_weights(inc: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Least-norm correction of q onto {q: inc.T q = 0, sum q = 1}."""
    k = inc.shape[0]
    M = np.vstack([inc.T, np.ones((1, k))])
    target = np.zeros(M.shape[0])
    target[-1] = 1.0
    resid = M @ q - target
    corr, *_ = np.linalg.lstsq(M, resid, rcond=None)
    out = q - corr
    return out if np.all(out > 0.0) else q


@dataclass
class NaCertificate:
    """Replayable outcome of the global no-arbitrage decision."""

    verdict: str  # "NA" | "ARBITRAGE"
    density: DensityProcess | None = None
    emm_residual: float | None = None
    node_eps: dict = field(default_factory=dict)
    fail_node: int | None = None
    strategy: UnitStrategy | None = None
    replay: dict = field(default_factory=dict)


def check_na(m: MarketModel, tol_pos: float = EPS_POSITIVE_TOL) -> NaCertificate:
    """Global no-arbitrage decision with a glued EMM or a lifted strategy.

    Internal nodes are scanned breadth-first; the first failing node (if
    any) supplies the separating vector, lifted to a one-period unit
    strategy that is zero elsewhere.
    """
    t = m.tree
    node_eps: dict[int, float] = {}
    w = np.empty(t.n_nodes)  # one-step martingale weight of each edge, by child
    for v, r in _node_results(m, tol_pos):
        node_eps[v] = r.eps_star
        if not r.is_na:
            strategy = _lift_separating(m, v, r.separating)
            replay = _replay_arbitrage(m, strategy)
            return NaCertificate(
                verdict="ARBITRAGE",
                node_eps=node_eps,
                fail_node=v,
                strategy=strategy,
                replay=replay,
            )
        w[t.children[v]] = r.q

    z = np.ones(t.n_nodes)
    off = t.level_offsets
    for lo, hi in zip(off[1:-1], off[2:]):
        z[lo:hi] = z[t.parent[lo:hi]] * w[lo:hi] / t.branch_prob[lo:hi]
    density = DensityProcess(z=z)
    return NaCertificate(
        verdict="NA",
        density=density,
        emm_residual=price_martingale_residual(m, density),
        node_eps=node_eps,
    )


def _node_results(m: MarketModel, tol_pos: float):
    """(node, ``node_na_lp`` result) for every internal node, breadth-first.

    Levels with fewer than ``STACK_MIN`` nodes run node by node.  From the
    first level that reaches it, the LPs of all remaining nodes are solved
    in one ``solve_lps`` call per branch count; a node the stack does not
    settle (not optimal, eps* in the ambiguity band or at most ``tol_pos``,
    degenerate) is re-run through ``node_na_lp`` when its turn comes.
    """
    t = m.tree
    off = t.level_offsets
    for lo, hi in zip(off[:-2], off[1:-1]):
        if hi - lo >= STACK_MIN:
            yield from _stacked_results(m, lo, tol_pos)
            return
        for v in range(lo, hi):
            yield v, node_na_lp(m.increments(v), t.branch_prob[t.children[v]], tol_pos)


def _stacked_results(m: MarketModel, lo: int, tol_pos: float):
    """``_node_results`` for the internal nodes from ``lo`` on, stacked."""
    t = m.tree
    nodes = np.arange(lo, t.level_offsets[-2])
    sizes = np.bincount(t.parent[1:], minlength=t.n_nodes)
    first = np.cumsum(sizes) - sizes  # first edge of each node in t.edges
    ks, group = np.unique(sizes[nodes], return_inverse=True)
    row = np.empty(nodes.size, dtype=np.int64)
    stacks = []
    for g, k in enumerate(ks.tolist()):
        at = np.flatnonzero(group == g)
        row[at] = np.arange(at.size)
        kids = t.edges[first[nodes[at], None] + np.arange(k)]
        inc = m.prices[kids] - m.prices[nodes[at], None]
        X = np.full((at.size, k + 2), np.nan)  # NaN where no LP was solved
        lp = np.flatnonzero(np.abs(inc).max(axis=(1, 2)) >= DEGENERATE_TOL)
        if lp.size:
            try:
                X[lp] = solve_lps(*_max_slack_lps(inc[lp])).x
            except SimplexError:  # node_na_lp raises it again on its node
                pass
        eps = X[:, k] - X[:, k + 1]
        settled = ~(np.abs(eps) < AMBIGUITY_BAND) & (eps > tol_pos)
        stacks.append((k, inc, t.branch_prob[kids], X, eps.tolist(), settled.tolist()))
    for v, g, i in zip(nodes.tolist(), group.tolist(), row.tolist()):
        k, inc, bp, X, eps, settled = stacks[g]
        if settled[i]:
            q = _project_weights(inc[i], X[i, :k] + eps[i])
            yield v, NodeNaResult(eps_star=eps[i], q=q)
        else:
            yield v, node_na_lp(inc[i], bp[i], tol_pos)


def _lift_separating(m: MarketModel, node: int, h: np.ndarray) -> UnitStrategy:
    holdings = np.zeros_like(m.prices)
    holdings[node] = h
    return UnitStrategy(holdings=holdings)


def _replay_arbitrage(m: MarketModel, s: UnitStrategy) -> dict:
    """Run the certificate from zero initial capital and summarize gains."""
    w = wealth_from_units(m, s, 0.0)
    gains = w.terminal(m.tree)
    p = m.tree.unconditional_probs()[m.tree.leaves]
    positive = gains > GAIN_ROUNDOFF * np.max(np.abs(gains))
    return {
        "min_gain": float(gains.min()),
        "max_gain": float(gains.max()),
        "prob_positive": float(p[positive].sum()),
        "expected_gain": float(p @ gains),
    }


def find_emm(m: MarketModel, tol_pos: float = EPS_POSITIVE_TOL) -> DensityProcess | None:
    """The glued interior martingale density, or None under arbitrage."""
    cert = check_na(m, tol_pos)
    return cert.density if cert.verdict == "NA" else None


@dataclass
class NupbrResult:
    verdict: str  # "NUPBR" | "NO-NUPBR"
    explanation: str
    certificate: NaCertificate


def check_nupbr(m: MarketModel) -> NupbrResult:
    """Decide NUPBR via existence of a local martingale density.

    On a finite tree local martingale densities and martingale densities
    coincide, so the decision reduces to the same per-node LP sweep used
    for no-arbitrage; NUPBR holds iff that density set is non-empty.
    """
    return _nupbr(check_na(m))


def _nupbr(cert: NaCertificate) -> NupbrResult:
    """The NUPBR verdict carried by a no-arbitrage certificate."""
    if cert.verdict == "NA":
        return NupbrResult(
            verdict="NUPBR",
            explanation=(
                "a strictly positive martingale density exists (glued from "
                "per-node interior weights), hence no unbounded profit with "
                "bounded risk"
            ),
            certificate=cert,
        )
    return NupbrResult(
        verdict="NO-NUPBR",
        explanation=(
            "no local martingale density exists on a finite tree once a node "
            "admits a separating vector; the lifted one-period strategy "
            "scales to unbounded profit with bounded risk"
        ),
        certificate=cert,
    )


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


def empirical_boundedness_probe(
    m: MarketModel,
    n_strategies: int = 200,
    seed: int = 0,
    x0: float = 1.0,
) -> dict:
    """Quantiles of terminal wealth over random admissible strategies.

    Draws unit strategies with standard normal holdings, scales each so the
    wealth from ``x0`` stays nonnegative at every node, and pools the
    terminal values (weighted by leaf probability).  Holdings draw from
    ``seed`` in the order strategy, internal node, asset, and are evaluated
    in blocks (``admissible_unit_strategies``).  The probe is
    diagnostic only: a bounded-looking table is evidence, not a proof of
    NUPBR, which is why the decision procedure is the LP sweep.
    """
    if n_strategies < 1:
        raise ValueError(f"n_strategies must be at least 1, got {n_strategies!r}")
    t = m.tree
    rng = np.random.default_rng(seed)
    p_leaf = t.unconditional_probs()[t.leaves]
    vals, scaled = [], 0
    for _, w_T, flags in admissible_unit_strategies(m, rng, n_strategies, x0):
        vals.append(w_T.ravel())
        scaled += int(flags.sum())
    vals = np.concatenate(vals)
    wts = np.tile(p_leaf / n_strategies, n_strategies)
    order = np.argsort(vals)
    vals = vals[order]
    cum = np.cumsum(wts[order])
    cum /= cum[-1]
    quantiles = {
        q: float(vals[np.searchsorted(cum, q, side="left")])
        for q in (0.5, 0.9, 0.99)
    }
    return {
        "n_strategies": n_strategies,
        "seed": seed,
        "x0": x0,
        "quantiles": quantiles,
        "max_observed": float(vals.max()),
        "strategies_scaled": scaled,
        "note": "diagnostic probe; the LP sweep is the decision procedure",
    }
