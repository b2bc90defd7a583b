"""Test-only oracle: the no-arbitrage sweep as a plain per-node loop.

This is ``check_na`` before its LPs were stacked and conditioned: every
internal node, in breadth-first order, runs its own max-slack LP in raw
price units through the one-LP ``solve_lp`` of ``simplex_oracle``,
re-solves it at a tighter pivot tolerance when eps* falls in the ambiguity
band, polishes its weights with one ``lstsq`` per node, finds the
separating vector of the first failing node with a second LP, and the
density is glued one node at a time.  The constants and helpers of that
sweep are kept here, so the oracle does not move with the library.
"""

from dataclasses import dataclass

import numpy as np
from simplex_oracle import solve_lp

from viatree.arbitrage import NaCertificate, _lift_separating, _replay_arbitrage
from viatree.markets import DensityProcess, MarketModel, WealthKernel, price_martingale_residual

DEGENERATE_TOL = 1e-12
EPS_POSITIVE_TOL = 1e-9
AMBIGUITY_BAND = 1e-9


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


def _max_slack_lp(inc: np.ndarray):
    """LP data for max eps s.t. sum q_j dS_j = 0, sum q_j = 1, q_j >= eps.

    Substituting r_j = q_j - eps >= 0 and splitting eps = e+ - e- gives an
    equality-form LP in (r, e+, e-) >= 0.
    """
    k, d = inc.shape
    sigma = inc.sum(axis=0)  # column sums of increments
    A = np.zeros((d + 1, k + 2))
    A[:d, :k] = inc.T
    A[:d, k] = sigma
    A[:d, k + 1] = -sigma
    A[d, :k] = 1.0
    A[d, k] = k
    A[d, k + 1] = -k
    b = np.zeros(d + 1)
    b[d] = 1.0
    c = np.zeros(k + 2)
    c[k] = -1.0
    c[k + 1] = 1.0
    return A, b, c


def _separating_vector(inc: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Best-effort separating vector via  max sum_j H.dS_j  s.t.
    H.dS_j >= 0 for all j and |H_i| <= 1, in raw price units."""
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

    A, b, c = _max_slack_lp(inc)
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


def check_na(m: MarketModel, tol_pos: float = EPS_POSITIVE_TOL) -> NaCertificate:
    """Global no-arbitrage decision with a glued EMM or a lifted strategy.

    Internal nodes are scanned breadth-first; the first failing node (if
    any) supplies the separating vector, lifted to a one-period unit
    strategy that is zero elsewhere.
    """
    t = m.tree
    node_eps: dict[int, float] = {}
    weights: dict[int, np.ndarray] = {}
    for v in t.internal:
        kids = t.children[v]
        r = node_na_lp(m.prices[kids] - m.prices[v], t.branch_prob[kids], tol_pos)
        node_eps[int(v)] = r.eps_star
        if not r.is_na:
            strategy = _lift_separating(m, int(v), r.separating)
            replay = _replay_arbitrage(WealthKernel(m), strategy)
            return NaCertificate(
                verdict="ARBITRAGE",
                node_eps=node_eps,
                fail_node=int(v),
                strategy=strategy,
                replay=replay,
            )
        weights[int(v)] = r.q

    z = np.ones(t.n_nodes)
    for v in t.internal:
        kids = t.children[v]
        z[kids] = z[v] * weights[int(v)] / t.branch_prob[kids]
    density = DensityProcess(z=z)
    return NaCertificate(
        verdict="NA",
        density=density,
        emm_residual=price_martingale_residual(m, density),
        node_eps=node_eps,
    )
