"""Entropy functionals of density processes on event trees.

Four related tools live here:

* ``entropy_hellinger`` turns a positive density process Z into its jump
  entropies.  With x = z(child)/z(parent) - 1 the jump term is
  j(x) = (1+x)log(1+x) - x >= 0; the pathwise sum V^E accumulates j along
  each path, and the compensator h^E adds, at every node, the conditional
  expectation of the next jump term (so h^E is predictable and V^E - h^E
  is a martingale under the tree probabilities).
* ``min_entropy_emm`` finds the martingale density minimizing the relative
  entropy E[Z_T log Z_T] by Newton iteration on the affine slice of leaf
  measures satisfying the node martingale constraints.
* ``exp_utility`` minimizes E[exp(-(theta . S)_T)] over unit strategies;
  the normalized terminal weight exp(-G)/E[exp(-G)] is again a martingale
  density, and by convex duality it matches the minimal-entropy one.
* ``concatenate_densities`` splices segment densities along a nested
  sequence of stopping times, taking multiplicative increments from the
  n-th segment on the n-th interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arbitrage import ArbitrageError, check_na
from .markets import (
    DensityProcess,
    MarketModel,
    UnitStrategy,
    density_from_leaf_values,
    leaf_gain_matrix,
    price_martingale_residual,
)
from .newton import damped_newton
from .trees import EventTree, StoppingTime, crossed_by, cuts_nested

KKT_TOL = 1e-8
EXP_GRAD_TOL = 1e-8
THETA_CAP = 1e6
DUALITY_TOL = 1e-6


@dataclass
class EntropyReport:
    """Jump entropies of a density process.

    jump_terms[c] is j(dN) on the edge into node c (0 at the root),
    v_process the running pathwise sum, h_process the predictable
    compensator.  The terminal expectations are taken over leaves:
    e_p_v_terminal under the tree probabilities, e_q_h_terminal under the
    reweighted (density) measure, relative_entropy = E[Z_T log Z_T].
    """

    jump_terms: np.ndarray
    v_process: np.ndarray
    h_process: np.ndarray
    e_p_v_terminal: float
    e_q_h_terminal: float
    relative_entropy: float


def entropy_hellinger(tree: EventTree, Z: DensityProcess) -> EntropyReport:
    """Jump terms, pathwise sum V^E, and compensator h^E of a density.

    For martingale densities two identities are worth knowing.  The
    density-weighted compensator always recovers the relative entropy:
    E[z_T h^E_T] = E[Z_T log Z_T].  The plain expectation E[V^E_T] equals
    the same quantity on one-period trees (the linear terms of j vanish
    conditionally), but on deeper trees later one-step entropies are
    weighted by the tree probabilities in E[V^E_T] and by the density in
    E[Z_T log Z_T], so the two agree only when the density is flat over
    the earlier levels.
    """
    z = Z.z
    if z.shape != (tree.n_nodes,):
        raise ValueError(
            f"density has {z.shape} values for a tree with {tree.n_nodes} nodes"
        )
    jump = np.zeros(tree.n_nodes)
    dn = np.zeros(tree.n_nodes)
    dn[1:] = z[1:] / z[tree.parent[1:]] - 1.0
    # (1+x)log(1+x) - x is >= 0 for x > -1; clip the rounding dust at 0.
    raw = (1.0 + dn[1:]) * np.log1p(dn[1:]) - dn[1:]
    if np.any(raw < -1e-12):
        bad = int(np.flatnonzero(raw < -1e-12)[0]) + 1
        raise AssertionError(f"negative jump term at node {bad}: {raw[bad - 1]!r}")
    jump[1:] = np.maximum(raw, 0.0)

    v = np.zeros(tree.n_nodes)
    v[1:] = jump[1:]
    for c in range(1, tree.n_nodes):
        v[c] += v[tree.parent[c]]

    h = np.zeros(tree.n_nodes)
    for p in tree.internal:
        kids = tree.children[p]
        inc = float(tree.branch_prob[kids] @ jump[kids])
        h[kids] = h[p] + inc

    probs = tree.unconditional_probs()
    pl = probs[tree.leaves]
    zl = z[tree.leaves]
    return EntropyReport(
        jump_terms=jump,
        v_process=v,
        h_process=h,
        e_p_v_terminal=float(pl @ v[tree.leaves]),
        e_q_h_terminal=float(pl @ (zl * h[tree.leaves])),
        relative_entropy=float(pl @ (zl * np.log(zl))),
    )


@dataclass
class MinEntropyResult:
    density: DensityProcess
    entropy: float
    kkt_residual: float
    leaf_q: np.ndarray
    iterations: int


def min_entropy_emm(m: MarketModel, max_iter: int = 200) -> MinEntropyResult:
    """Martingale density minimizing E[Z_T log Z_T].

    Works on the leaf-measure formulation: the feasible set is the affine
    slice {M q = b, q > 0} of leaf masses whose node aggregates make every
    asset a martingale.  A strictly positive particular solution comes
    from the no-arbitrage sweep; Newton then runs in the null space of M,
    where the relative entropy is strictly convex.  Raises
    ``ArbitrageError`` when no positive solution exists.
    """
    return _min_entropy_emm(m, check_na(m), max_iter)


def _min_entropy_emm(m: MarketModel, cert, max_iter: int = 200) -> MinEntropyResult:
    """``min_entropy_emm`` from the market's no-arbitrage certificate."""
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

    def evaluate(q):  # maximize -E[Z log Z] over the slice q + span(N)
        if not np.all(q > 0.0):
            return None
        lq = np.log(q / pl)
        return -float(q @ lq), -(N.T @ (lq + 1.0)), lambda: N.T @ (N / q[:, None])

    q, _, _, res_kkt, it = damped_newton(
        evaluate, q0, 1e-12, max_iter, lift=lambda step: N @ step
    )
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


def exp_utility(m: MarketModel, max_iter: int = 200) -> ExpUtilityResult:
    """Minimize E[exp(-(theta . S)_T)] over unit strategies.

    The objective is handled in log space (logsumexp) so large gains do
    not overflow.  Its gradient at theta is exactly minus the martingale
    residual vector of the induced density exp(-G)/E[exp(-G)], so at the
    optimum that density is an equivalent martingale density; convex
    duality links it to the minimal-entropy one, and the result reports
    both residuals.  Trial strategies are clipped to sup-norm 1e6, and
    ``cap_hit`` reports whether any was.
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

    def induced(theta):  # log E[exp(-G)] and the leaf measure exp(-G)/E[exp(-G)]
        a = logp - F @ theta
        mx = float(np.max(a))
        w = np.exp(a - mx)
        sw = float(np.sum(w))
        return mx + np.log(sw), w / sw

    def evaluate(theta):  # maximize -log E[exp(-G)]
        f, what = induced(theta)
        mean = F.T @ what
        return -f, mean, lambda: F.T @ (F * what[:, None]) - np.outer(mean, mean)

    cap_hit = False

    def cap(theta):
        nonlocal cap_hit
        if float(np.max(np.abs(theta), initial=0.0)) > THETA_CAP:
            cap_hit = True
            theta = np.clip(theta, -THETA_CAP, THETA_CAP)
        return theta

    theta, _, _, gnorm, it = damped_newton(
        evaluate, np.zeros(F.shape[1]), 1e-10, max_iter, project=cap
    )
    if gnorm >= EXP_GRAD_TOL:
        raise RuntimeError(
            f"exponential-utility Newton stalled at gradient {gnorm:.3e}"
            + ("; strategy cap 1e6 binding" if cap_hit else "")
        )
    f, what = induced(theta)

    holdings = np.zeros_like(m.prices)
    holdings[t.internal] = theta.reshape(-1, m.d)
    z_leaf = what / pl
    density = density_from_leaf_values(t, z_leaf)
    link = price_martingale_residual(m, density)
    me = _min_entropy_emm(m, cert)
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


@dataclass
class ConcatenationResult:
    density: DensityProcess
    report: dict = field(default_factory=dict)


def concatenate_densities(
    tree: EventTree,
    cuts: list[StoppingTime],
    segments: list[DensityProcess],
) -> ConcatenationResult:
    """Splice densities along nested stopping times.

    Edge (parent -> child) belongs to segment n when the parent has
    crossed cuts 1..n-1 but not cut n; the spliced density takes its
    multiplicative increment on that edge from segment n.  Each node's
    value is computed as segment_value * K with a single constant K per
    entered segment (K fixed where the path enters the segment), so the
    splice of one segment over the whole horizon returns that segment's
    values bitwise, and left-nested splices match the flat call exactly.

    The report checks positivity, the plain martingale residual of the
    result, per-segment residuals, and additivity of the pathwise jump
    entropy V^E across segments.
    """
    if len(cuts) != len(segments):
        raise ValueError(
            f"{len(cuts)} cuts but {len(segments)} segments; need one density "
            "per interval"
        )
    if not cuts:
        raise ValueError("need at least one cut (the terminal one)")
    for a, b in zip(cuts[:-1], cuts[1:]):
        if not cuts_nested(tree, a, b):
            raise ValueError("cuts must be nested and increasing")
    if sorted(cuts[-1].nodes) != sorted(int(v) for v in tree.leaves):
        raise ValueError("the last cut must be the terminal one (all leaves)")
    for k, seg in enumerate(segments):
        if seg.z.shape != (tree.n_nodes,):
            raise ValueError(f"segment {k} does not cover the tree")

    crossed = np.array([crossed_by(tree, cut) for cut in cuts])  # (n_seg, n_nodes)
    seg_of = np.zeros(tree.n_nodes, dtype=np.int64)  # segment owning the edge into c
    z = np.empty(tree.n_nodes)
    K = np.empty(tree.n_nodes)
    jump_add = np.zeros(tree.n_nodes)
    z[0] = 1.0
    K[0] = 1.0
    seg_of[0] = 0
    for c in range(1, tree.n_nodes):
        p = int(tree.parent[c])
        n = int(np.argmin(crossed[:, p]))  # first cut the parent has not crossed
        seg_of[c] = n
        zs = segments[n].z
        K[c] = z[p] / zs[p] if n != seg_of[p] else K[p]
        z[c] = zs[c] * K[c]
        x = zs[c] / zs[p] - 1.0
        jump_add[c] = max((1.0 + x) * np.log1p(x) - x, 0.0)

    out = DensityProcess(z)
    v_add = np.zeros(tree.n_nodes)
    for c in range(1, tree.n_nodes):
        v_add[c] = v_add[int(tree.parent[c])] + jump_add[c]
    rep = entropy_hellinger(tree, out)
    report = {
        "positive": bool(np.all(z > 0.0)),
        "martingale_residual": out.martingale_residual(tree),
        "segment_martingale_residuals": [
            seg.martingale_residual(tree) for seg in segments
        ],
        "v_additivity_gap": float(np.max(np.abs(rep.v_process - v_add))),
        "segment_of_node": seg_of,
    }
    return ConcatenationResult(density=out, report=report)
