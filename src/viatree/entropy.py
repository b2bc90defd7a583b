"""Entropy functionals of density processes on event trees.

Four related tools live here:

* ``entropy_hellinger`` turns a positive density process Z into its jump
  entropies.  With x = z(child)/z(parent) - 1 the jump term is
  j(x) = (1+x)log(1+x) - x >= 0; the pathwise sum V^E accumulates j along
  each path, and the compensator h^E adds, at every node, the conditional
  expectation of the next jump term (so h^E is predictable and V^E - h^E
  is a martingale under the tree probabilities).
* ``exp_utility`` minimizes E[exp(-(theta . S)_T)] over unit strategies,
  and ``min_entropy_emm`` finds the martingale density minimizing the
  relative entropy E[Z_T log Z_T].  The two are dual and factor node by
  node, so one leaves-to-root recursion (``_exp_recursion``) solves both:
  the normalized terminal weight exp(-G)/E[exp(-G)] of the optimal
  holdings is the minimal-entropy density, and log of the optimal value is
  minus its entropy.  The recursion depends on the market alone, so it
  runs once per model (``MarketModel.memo``), as does the ``check_na``
  verdict both gate on: on an unchanged model the second of the two calls
  reuses both, and each call copies the density and holdings it returns
  (``_detached``).
* ``concatenate_densities`` splices segment densities along a nested
  sequence of stopping times, taking multiplicative increments from the
  n-th segment on the n-th interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arbitrage import ArbitrageError, _sweep
from .markets import (
    DensityProcess,
    MarketModel,
    UnitStrategy,
    _detached,
    density_from_leaf_values,
    price_martingale_residual,
    wealth_from_units,
)
from .newton import damped_newton, least_norm_fit, raise_stalled
from .trees import EventTree, StoppingTime, crossed_by, cuts_nested

NODE_TOL = 1e-12
DUALITY_TOL = 1e-6
# a martingale density's |E[z_T h^E_T] - H| is round-off up to max(ABS, REL * (1 + H))
HELLINGER_ABS_TOL, HELLINGER_REL_TOL = 1e-9, 1e-10


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

    e = tree.edges
    v = tree.roll(jump[e][None], 0.0)[0]
    inc = np.zeros(tree.n_nodes)  # E[next jump term | node]
    inc[tree.internal] = tree.sums(tree.branch_prob[e] * jump[e])
    h = tree.roll(inc[tree.edge_parent][None], 0.0)[0]

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
    kkt_residual: float  # worst node gradient of the recursion, in max|dS| units
    leaf_q: np.ndarray
    iterations: int


def _exp_recursion(m: MarketModel, goal: str):
    """``_exp_solve``'s holdings, log V, density, worst node gradient and
    Newton steps, run once per model (``MarketModel.memo``) and returned as
    the model keeps them.  An arbitrage verdict of ``check_na`` raises
    ``ArbitrageError`` saying that ``goal`` fails, on every call."""
    cert, _, q = _sweep(m)
    if cert.verdict != "NA":
        raise ArbitrageError(f"market admits arbitrage; {goal}", certificate=_detached(cert))
    return m.memo("exp_recursion", lambda: _exp_solve(m, q))


def _exp_solve(m: MarketModel, q: np.ndarray | None = None):
    """Exponential utility node by node, leaves to root.

    V = 1 at the leaves and V(v) = min_h sum_j p_j V(j) exp(-h . dS_j) over
    the edges out of v (Frittelli 2000).  Each node maximizes the concave
    -logsumexp(log p_j + log V(j) - h . X_j) in X = dS / max|dS|, so its
    tolerance does not depend on the price unit; the gradient is the node's
    martingale residual, in units of max|dS|, under the minimizing one-step
    weights q_j = p_j V(j) exp(-h . dS_j) / V(v).  Each depth level is one
    ``damped_newton`` stack; a level that stalls raises ``RuntimeError``.
    Given the kept sweep's martingale weights q, a level starts where
    they are the minimizing weights, X h = b - q . b with
    b = log p + log V(j) - log q (``least_norm_fit``), which is the optimum
    (0 Newton steps) where q are the node's only martingale weights.
    Returns the unit holdings, log V per node, the density glued from the
    weights q, the worst node gradient and the Newton steps.
    """
    t, k = m.tree, _sweep(m)[1]
    logp = np.log(t.branch_prob[t.edges])
    scale = np.maximum.reduceat(np.abs(k.dS).max(axis=1, initial=0.0), t.starts)
    scale[scale == 0.0] = 1.0
    h = np.zeros((t.internal.size, m.d))  # per node, in units of X
    log_v = np.zeros(t.n_nodes)
    gnorms = np.zeros(t.internal.size)
    steps = 0

    def evaluate(hr, rows):  # -logsumexp(a - X h) of the current level, its gradient and -Hessian
        Xr = Xs[rows]
        b = a[rows] - (Xr @ hr[:, :, None])[:, :, 0]
        mx = b.max(axis=1)
        w = np.exp(b - mx[:, None])
        sw = w.sum(axis=1)
        w /= sw[:, None]
        mean = (w[:, None, :] @ Xr)[:, 0, :]
        Xc = Xr - mean[:, None, :]  # centered, so a flat direction's eigenvalue stays at rounding
        return -(mx + np.log(sw)), mean, (Xc.transpose(0, 2, 1) * w[:, None, :]) @ Xc

    for nv in reversed(t.node_levels):
        Xs = t.stack(k.dS, 0.0, nv) / scale[nv, None, None]
        a = t.stack(logp + log_v[t.edges], -np.inf, nv)
        if q is not None:
            qs = t.stack(q, 1.0, nv)
            b = np.where(np.isfinite(a), a - np.log(qs), 0.0)  # 0 on padded edges
            h[nv] = least_norm_fit(Xs, b - np.sum(qs * b, axis=1, keepdims=True))
        h[nv], f, _, _, gnorms[nv], n = damped_newton(evaluate, h[nv], NODE_TOL, 200)
        raise_stalled(gnorms[nv], NODE_TOL, t.internal[nv], lambda g: (
            f"exponential-utility Newton stalled at gradient {g:.3e} (target {NODE_TOL})"))
        log_v[t.internal[nv]] = -f
        steps += int(n.sum())
    holdings = np.zeros_like(m.prices)
    holdings[t.internal] = h / scale[:, None]
    log_ratio = log_v[t.edges] - k.edge_dot(holdings[None], k.dS)[0] - log_v[t.edge_parent]  # log(q_j / p_j)
    z = t.roll(np.exp(log_ratio)[None], 1.0, multiplicative=True)[0]
    return holdings, log_v, DensityProcess(z), float(gnorms.max(initial=0.0)), steps


def min_entropy_emm(m: MarketModel) -> MinEntropyResult:
    """Martingale density minimizing E[Z_T log Z_T].

    By duality with exponential utility the minimizer factors node by
    node: its one-step weights are those of ``_exp_recursion``, glued
    multiplicatively.  Raises ``ArbitrageError`` when no equivalent
    martingale density exists.
    """
    goal = "no equivalent martingale density exists"
    _, _, density, worst, steps = _exp_recursion(m, goal)
    t = m.tree
    z_leaf = density.z[t.leaves]
    leaf_q = t.unconditional_probs()[t.leaves] * z_leaf
    return MinEntropyResult(
        density=_detached(density),
        entropy=float(leaf_q @ np.log(z_leaf)),
        kkt_residual=worst,
        leaf_q=leaf_q,
        iterations=steps,
    )


@dataclass
class ExpUtilityResult:
    theta_hat: UnitStrategy
    value: float  # min E[exp(-(theta . S)_T)]
    log_value: float
    gradient_sup: float  # worst node gradient of the recursion, in max|dS| units
    density: DensityProcess
    density_link_residual: float
    entropy_density_gap: float
    iterations: int


def exp_utility(m: MarketModel) -> ExpUtilityResult:
    """Minimize E[exp(-(theta . S)_T)] over unit strategies.

    ``_exp_recursion`` gives the optimal holdings, the value in log space
    (so large gains do not overflow) and the glued density of the
    minimizing one-step weights, which is the minimal-entropy martingale
    density.  The result reports that density's price martingale residual
    and its distance to exp(-G_T) / E[exp(-G_T)], the density built from
    the holdings' own terminal gains G_T; the two agree by convex duality.
    """
    holdings, log_v, density, worst, steps = _exp_recursion(
        m, "exponential-utility infimum is not attained")
    t = m.tree
    theta = UnitStrategy(_detached(holdings))
    pl = t.unconditional_probs()[t.leaves]
    a = np.log(pl) - wealth_from_units(m, theta, 0.0).terminal(t)
    w = np.exp(a - np.max(a))
    own = density_from_leaf_values(t, w / (np.sum(w) * pl))
    gap = float(np.max(np.abs(own.z - density.z)))
    if gap > DUALITY_TOL:
        raise AssertionError(
            f"induced density deviates from the minimal-entropy density by {gap:.3e}"
        )
    return ExpUtilityResult(
        theta_hat=theta,
        value=float(np.exp(log_v[0])),
        log_value=float(log_v[0]),
        gradient_sup=worst,
        density=_detached(density),
        density_link_residual=price_martingale_residual(m, density),
        entropy_density_gap=gap,
        iterations=steps,
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
    zs = np.array([seg.z for seg in segments])
    c = np.arange(1, tree.n_nodes)
    # the edge into c belongs to the first segment whose cut its parent has not crossed
    seg_of = np.zeros(tree.n_nodes, dtype=np.int64)
    seg_of[c] = np.argmin(crossed[:, tree.parent[c]], axis=0)
    x = zs[seg_of[c], c] / zs[seg_of[c], tree.parent[c]] - 1.0
    jump_add = np.concatenate(([0.0], np.maximum((1.0 + x) * np.log1p(x) - x, 0.0)))
    z, K = np.ones(tree.n_nodes), np.ones(tree.n_nodes)  # K: the factor of the node's segment
    for lv in tree.edge_levels:
        c, p = tree.edges[lv], tree.edge_parent[lv]
        n = seg_of[c]
        K[c] = np.where(n != seg_of[p], z[p] / zs[n, p], K[p])
        z[c] = zs[n, c] * K[c]

    out = DensityProcess(z)
    v_add = tree.roll(jump_add[tree.edges][None], 0.0)[0]
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
