"""No-arbitrage decisions, martingale densities and arbitrage certificates.

On a finite leveled event tree, absence of arbitrage is equivalent to a
per-node one-period condition (Dalang, Morton and Willinger 1990): at every
internal node the origin must lie in the relative interior of the convex
hull of the outgoing price increments.  That condition is decided by a
small LP per node,

    maximize  eps   s.t.  sum_j q_j dS_j = 0 (per asset),
                          sum_j q_j = 1,  q_j >= eps,

whose optimum eps* is strictly positive exactly when an interior
martingale weight vector q exists.  The LP is built on scale-free
coordinates: each node's increments are divided by their max |dS| and
rotated onto their singular vectors, with singular values below
``DEGENERATE_TOL`` times the largest set to zero.  That is a positive
scaling and an orthogonal change of asset coordinates, which leave eps*
and q unchanged in exact arithmetic, so the verdict does not depend on the
price unit.  Gluing the per-node weights multiplicatively yields an
equivalent martingale measure; at the first failing node a separate LP
finds a vector H with H.dS_j >= 0 for all branches and > 0 for at least
one, which lifts to a one-period arbitrage strategy.

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
)
from .simplex import solve_lp, solve_lps
from .trees import EventTree

DEGENERATE_TOL = 1e-12
EPS_POSITIVE_TOL = 1e-9
GAIN_ROUNDOFF = 1e-12  # gains below this share of max |gain| count as zero
# Node LPs that ``_node_lps`` solves in one ``solve_lps`` stack rather than
# one by one through ``solve_lp``, and internal nodes a depth level needs
# before ``check_na`` decides it together with every deeper level.
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
    """LP data for max eps s.t. sum q_j X_j = 0, sum q_j = 1, q_j >= eps,
    one LP per (k, d) increment block of the (G, k, d) stack ``inc``.

    X is the block on scale-free coordinates: divided by its max |dS|, then
    U S of its thin SVD with singular values below ``DEGENERATE_TOL`` times
    the largest set to zero, padded with zero columns to d.  Substituting
    r_j = q_j - eps >= 0 and splitting eps = e+ - e- gives an equality-form
    LP in (r, e+, e-) >= 0.
    """
    G, k, d = inc.shape
    U, s, _ = np.linalg.svd(inc / np.abs(inc).max(axis=(1, 2), keepdims=True),
                            full_matrices=False)
    s[s < DEGENERATE_TOL * s[:, :1]] = 0.0
    X = np.zeros_like(inc)
    X[:, :, : s.shape[1]] = U * s[:, None, :]
    sigma = X.sum(axis=1)  # column sums of increments
    A = np.zeros((G, d + 1, k + 2))
    A[:, :d, :k] = X.transpose(0, 2, 1)
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


def _node_lps(inc: np.ndarray, bp: np.ndarray, tol_pos: float):
    """Decide G nodes with k branches each from their (G, k, d) increments
    and (G, k) branch probabilities.

    Returns eps* (G,), the unprojected interior weights q (G, k), NaN in
    the rows with eps* <= tol_pos, and the rows each q must satisfy, the
    LP's (G, d + 1, k) moment and sum rows (``_project_weights``).  A node
    whose increments are all below ``DEGENERATE_TOL`` keeps its branch
    probabilities, with eps* their minimum and zero rows.  Fewer than
    ``STACK_MIN`` LPs are solved one by one, more in one stack.
    """
    G, k, d = inc.shape
    eps, q = bp.min(axis=1), bp.copy()
    rows = np.zeros((G, d + 1, k))
    lp = np.flatnonzero(np.abs(inc).max(axis=(1, 2)) >= DEGENERATE_TOL)
    if lp.size:
        A, b, c = _max_slack_lps(inc[lp])
        if lp.size >= STACK_MIN:
            X = solve_lps(A, b, c).x  # NaN rows where not optimal
        else:
            X = np.full((lp.size, k + 2), np.nan)
            for i in range(lp.size):
                res = solve_lp(A[i], b[i], c)
                if res.status == "optimal":
                    X[i] = res.x
        e = X[:, k] - X[:, k + 1]
        eps[lp] = np.where(np.isnan(e), -np.inf, e)
        q[lp] = np.where((e > tol_pos)[:, None], X[:, :k] + e[:, None], np.nan)
        rows[lp] = A[:, :, :k]
    return eps, q, rows


def _project_weights(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Least-norm corrections of a stack of weights q (G, k) onto
    {q: rows q = (0, ..., 0, 1)}, one batched pseudo-inverse; a node whose
    corrected weights leave the open simplex keeps q.  Zero rows leave q
    as it is."""
    target = np.zeros(rows.shape[1])
    target[-1] = 1.0
    resid = (rows @ q[:, :, None])[:, :, 0] - target
    out = q - (np.linalg.pinv(rows) @ resid[:, :, None])[:, :, 0]
    return np.where(np.all(out > 0.0, axis=1, keepdims=True), out, q)


def _separating_vector(inc: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Best-effort separating vector via  max sum_j H.dS_j  s.t.
    H.dS_j >= 0 for all j and |H_i| <= 1, on the increments divided by
    their max |dS|.  The box keeps the LP bounded; a positive optimum
    certifies one-period arbitrage."""
    inc = inc / np.abs(inc).max()
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
    """Decide one-period no-arbitrage for the increments out of one node:
    the one-node call of ``_node_lps``.

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
    eps, q, rows = _node_lps(inc[None], bp[None], tol_pos)
    eps = float(eps[0])
    if not np.isnan(q[0, 0]):
        return NodeNaResult(
            eps_star=eps, q=_project_weights(rows, q)[0],
            degenerate=bool(np.max(np.abs(inc)) < DEGENERATE_TOL),
        )
    sep, gain = _separating_vector(inc)
    return NodeNaResult(
        eps_star=eps, separating=sep,
        note=f"max-slack eps*={eps!r}; separating gain sum {gain!r}",
    )


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

    Internal nodes are decided breadth-first, in arrays, one ``_node_lps``
    call per branch count: one depth level at a time while levels have
    fewer than ``STACK_MIN`` internal nodes, then all remaining nodes at
    once.  The first failing node ends the sweep: its separating vector is
    lifted to a one-period unit strategy that is zero elsewhere, and
    ``node_eps`` stops at it.  When every node passes, the weights of all
    nodes are projected in one batched call, in the LP's coordinates, and
    glued into the density one depth level at a time.
    """
    t = m.tree
    k = WealthKernel(m)
    eps = np.empty(t.internal.size)
    q = np.empty(t.edges.size)  # one-step martingale weight of each edge
    rows = np.empty((t.edges.size, m.d + 1))  # the LP rows of each weight
    for nodes in _sweep(t):
        for size in sorted(set(t.sizes[nodes].tolist())):
            at = nodes[t.sizes[nodes] == size]
            e = t.starts[at, None] + np.arange(size)
            eps[at], q[e], r = _node_lps(k.dS[e], t.branch_prob[t.edges[e]], tol_pos)
            rows[e] = r.transpose(0, 2, 1)
        failed = nodes[np.isnan(q[t.starts[nodes]])]
        if failed.size:
            i = int(failed[0])
            v = int(t.internal[i])
            sep, _ = _separating_vector(k.dS[t.starts[i] : t.starts[i] + t.sizes[i]])
            strategy = _lift_separating(m, v, sep)
            return NaCertificate(
                verdict="ARBITRAGE",
                node_eps=dict(zip(t.internal[: i + 1].tolist(), eps[: i + 1].tolist())),
                fail_node=v,
                strategy=strategy,
                replay=_replay_arbitrage(k, strategy),
            )

    # padded branch slots get weight 1 and zero rows, which they keep
    real = np.arange(t.sizes.max(initial=0)) < t.sizes[:, None]
    q = _project_weights(t.stack(rows, 0.0).transpose(0, 2, 1), t.stack(q, 1.0))[real]
    step = q / t.branch_prob[t.edges]
    density = DensityProcess(z=t.roll(step[None], 1.0, multiplicative=True)[0])
    return NaCertificate(
        verdict="NA",
        density=density,
        emm_residual=price_martingale_residual(m, density),
        node_eps=dict(zip(t.internal.tolist(), eps.tolist())),
    )


def _sweep(t: EventTree):
    """Internal-node indices in the blocks ``check_na`` decides together:
    one depth level at a time until a level has ``STACK_MIN`` nodes, then
    all remaining ones."""
    for nv in t.node_levels:
        if nv.stop - nv.start >= STACK_MIN:
            yield np.arange(nv.start, t.internal.size)
            return
        yield np.arange(nv.start, nv.stop)


def _lift_separating(m: MarketModel, node: int, h: np.ndarray) -> UnitStrategy:
    holdings = np.zeros_like(m.prices)
    holdings[node] = h
    return UnitStrategy(holdings=holdings)


def _replay_arbitrage(k: WealthKernel, s: UnitStrategy) -> dict:
    """Run the certificate from zero initial capital and summarize gains."""
    t = k.tree
    gains = k.units(s.holdings[None], 0.0)[0, t.leaves]
    p = t.unconditional_probs()[t.leaves]
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
