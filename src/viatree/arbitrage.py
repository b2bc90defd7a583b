"""No-arbitrage decisions, martingale densities and arbitrage certificates.

On a finite leveled event tree, absence of arbitrage is equivalent to a
per-node one-period condition (Dalang, Morton and Willinger 1990): at every
internal node the origin must lie in the relative interior of the convex
hull of the outgoing price increments.  That condition is the max-slack
problem

    maximize  eps   s.t.  sum_j q_j dS_j = 0 (per asset),
                          sum_j q_j = 1,  q_j >= eps,

whose optimum eps* is strictly positive exactly when an interior
martingale weight vector q exists; a node passes when eps* exceeds
``EPS_POSITIVE_TOL``, a one-asset node when eps* > 0.  It is posed on
scale-free coordinates: each node's increments are divided by their max
|dS| and, with two or more assets, rotated onto their singular vectors,
with singular values below ``DEGENERATE_TOL`` times the largest set to
zero; one asset's column is its own basis and takes no SVD.  That is a
positive scaling and an orthogonal change of asset coordinates, which
leave eps* and q unchanged in exact arithmetic, so the verdict does not
depend on a price unit common to all assets.

Most nodes are decided in closed form from the rank r of their k
increments on those coordinates.  At r = k - 1 the one-step market is
complete (Harrison and Pliska 1981): q is the unique solution of a k x k
linear system and eps* = min q.  At r = k no weights exist.  At r = 1 the
problem is one-dimensional and its optimum is a vertex with one formula,
which decides every one-asset node by an exact sign (Goldberg 1991): > 0
exactly when the increments take both signs.  A failing closed-form node
gets a vector H with H.dS_j >= 0 for all branches and > 0 for at least
one: from the signs of q at r = k - 1, from X H = 1 at r = k, from |x| at
r = 1.  The other nodes of two or more assets (1 < r < k - 1, a singular
system, or 0 < eps* <= ``EPS_POSITIVE_TOL``) solve the problem as a small
LP, whose dual row gives H.  H lifts to a one-period arbitrage strategy;
should rounding spoil a closed-form H so that its replay fails, the node
runs its own LP.  Gluing the per-node weights multiplicatively yields an
equivalent martingale measure.

Every verdict ships with a replayable certificate: the density's
martingale residuals on the NA side, the strategy's terminal gains on the
arbitrage side.  The decision depends on the market alone, so it is made
once per model (``MarketModel.memo``): ``check_na``, ``check_nupbr`` and
every solver that gates on the verdict share one sweep and one threshold
until the model's prices or tree arrays change.  Library code reads the
kept record of certificate, kernel and weights itself (``_sweep``);
``check_na`` returns a copy of the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .markets import (
    DensityProcess,
    MarketModel,
    UnitStrategy,
    WealthKernel,
    _detached,
    price_martingale_residual,
)
from .simplex import _solve_each, solve_lps

DEGENERATE_TOL = 1e-12
EPS_POSITIVE_TOL = 1e-9  # d >= 2 only: a one-asset node passes when eps* > 0
GAIN_ROUNDOFF = 1e-12  # gains below this share of max |gain| count as zero
# criterion 2's bounds on an arbitrage replay: the least gain times
# max(1, max|S|), the largest times max|S|, so a verdict keeps in any unit
REPLAY_MIN_GAIN = -1e-12
REPLAY_MAX_GAIN = 1e-9


class ArbitrageError(RuntimeError):
    """Raised by operations that require an arbitrage-free market."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


def _max_slack_lps(inc: np.ndarray):
    """LP data for max eps s.t. sum q_j X_j = 0, sum q_j = 1, q_j >= eps,
    one LP per (k, d) increment block of the (G, k, d) stack ``inc``.

    X is the block on scale-free coordinates: divided by its max |dS|, then
    for d >= 2 U S of its thin SVD with singular values below
    ``DEGENERATE_TOL`` times the largest set to zero, padded with zero
    columns to d.  A d = 1 block is its own basis: X is the scaled column
    and Vh = 1, with no SVD (a column's one singular value is never cut).
    Substituting r_j = q_j - eps >= 0 and splitting eps = e+ - e- gives an
    equality-form LP in (r, e+, e-) >= 0.  Returns A, b, c and the
    (G, r, d) right singular vectors Vh, which map X's first r coordinates
    back to assets.
    """
    G, k, d = inc.shape
    scaled = inc / np.abs(inc).max(axis=(1, 2), keepdims=True)
    if d == 1:  # one column is its own basis
        X, Vh = scaled, np.ones((G, 1, 1))
    else:
        U, s, Vh = np.linalg.svd(scaled, full_matrices=False)
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
    return A, b, c, Vh


def _node_lps(inc: np.ndarray, bp: np.ndarray, s: np.ndarray):
    """Decide G nodes with k branches each from their (G, k, d) increments,
    (G, k) branch probabilities and (G, d) prices.

    Most nodes are decided in closed form from the rank r of their
    scale-free increments X (``_max_slack_lps``):

    - r = k: no weights meet the moment rows, so eps* = -inf;
    - r = k - 1: q is unique and solves [X_r^T; 1^T] q = (0, ..., 0, 1) on
      X's r nonzero coordinates, one batched call, and eps* = min q;
    - r = 1 and k >= 3, and every one-asset node: X is one column x, and
      with x turned so that sum x >= 0, the optimum is the vertex
      q = eps* off branch j = argmin x and 1 - (k - 1) eps* on it, with
      eps* = x_j / (k x_j - sum x) (-inf where the denominator is not
      negative: x is constant).  That is the largest vertex value
      x_j / (k x_j - sum x) at most 1/k, found without the comparison
      with 1/k, which rounding could tip where sum x = 0.  No rounding
      tips its sign: it is > 0 exactly when x takes both signs.

    A node with eps* > ``EPS_POSITIVE_TOL`` (> 0 at d = 1) is NA with
    weights q.  A node with eps* <= 0 fails, and H solves X H = g for gains
    g >= 0 that are positive somewhere: g = 1 at r = k; at r = k - 1,
    g_j = q_i and g_i = -q_j with i = argmax q and j = argmin q, divided by
    the larger of the two, which is orthogonal to q and so lies in X's
    range; at r = 1, g = |x|.  X's columns are orthogonal, so
    H = Vh^T (X^T g / |X_l|^2).
    Every other node (d >= 2: 1 < r < k - 1, a singular or non-finite
    system, 0 < eps* <= ``EPS_POSITIVE_TOL``) runs the max-slack LP, all in
    one ``solve_lps`` stack, whose results do not depend on which LPs share
    it (``_solve_max_slack``).

    Returns eps* (G,), the interior weights q (G, k), NaN in the failing
    rows, the (G, d) separating vectors H, 0 where the node passes in
    closed form, and the (G,) mask of the nodes the LP decided.  A node
    whose max |dS| is not above ``DEGENERATE_TOL`` times its own max |S|
    keeps its branch probabilities, with eps* their minimum, and H = 0.
    """
    G, k, d = inc.shape
    eps, q = bp.min(axis=1), bp.copy()
    h = np.zeros((G, d))
    lp = np.zeros(G, dtype=bool)
    live = np.flatnonzero(np.abs(inc).max(axis=(1, 2)) > DEGENERATE_TOL * np.abs(s).max(axis=1))
    if not live.size:
        return eps, q, h, lp
    A, b, c, Vh = _max_slack_lps(inc[live])
    XT = A[:, :d, :k]  # X^T: the nonzero singular values fill its first rows
    r = XT.any(axis=2).sum(axis=1)
    e = np.full(live.size, np.nan)  # closed-form eps*, NaN where the LP decides
    w = np.full((live.size, k), np.nan)  # closed-form weights
    g = np.zeros((live.size, k))  # the gains X H = g of a failing node
    e[r == k] = -np.inf
    g[r == k] = 1.0
    unique = np.flatnonzero((r == k - 1) & (d > 1))  # one asset: the vertex formula below
    if unique.size:
        rhs = np.broadcast_to(np.eye(k)[-1], (unique.size, k))
        w[unique] = _solve_each(A[unique][:, np.r_[: k - 1, d], :k], rhs, lambda i: np.nan)
        unique = unique[np.isfinite(w[unique]).all(axis=1)]
        lo, hi = w[unique].argmin(axis=1), w[unique].argmax(axis=1)
        low, high = w[unique, lo], w[unique, hi]
        e[unique] = low
        top = np.maximum(high, -low)  # scales the largest gain to 1
        g[unique, lo] = high / top
        g[unique, hi] = -low / top
    one = np.flatnonzero((r == 1) & (k >= 3 or d == 1))  # else rank 1 is rank k - 1
    if one.size:
        x = XT[one, 0]
        total = x.sum(axis=1)
        x = np.where(total[:, None] < 0.0, -x, x)  # eps* is the same for -x
        j, n = x.argmin(axis=1), np.arange(one.size)
        den = k * x[n, j] - np.abs(total)
        e1 = np.divide(x[n, j], den, out=np.full(one.size, -np.inf), where=den < 0.0)
        e[one] = e1
        w[one] = np.where(np.arange(k) == j[:, None], 1.0 - (k - 1) * e1[:, None], e1[:, None])
        g[one] = np.abs(x)
    passed, failed = e > (EPS_POSITIVE_TOL if d > 1 else 0.0), e <= 0.0
    eps[live[passed]], q[live[passed]] = e[passed], w[passed]
    if failed.any():
        at = live[failed]
        eps[at], q[at] = e[failed], np.nan
        XTf = XT[failed]
        norm2 = (XTf * XTf).sum(axis=2)
        hr = np.divide((XTf @ g[failed][:, :, None])[:, :, 0], norm2,
                       out=np.zeros_like(norm2), where=norm2 > 0.0)
        h[at] = (hr[:, None, : Vh.shape[1]] @ Vh[failed])[:, 0]
    rest = ~(passed | failed)
    if rest.any():
        at = live[rest]
        eps[at], q[at], h[at] = _solve_max_slack(A[rest], b[rest], c, Vh[rest])
        lp[at] = True
    return eps, q, h, lp


def _solve_max_slack(A, b, c, Vh):
    """Run a stack of ``_max_slack_lps`` LPs: eps* (-inf where infeasible),
    the interior weights q (NaN where eps* <= ``EPS_POSITIVE_TOL``) and the
    separating vectors H = -Vh^T y of the dual rows y.  In the LP's
    coordinates X_j, an optimal y has y_mom.X_j <= -y_sum = eps* and
    sum_j H.X_j = 1 - k eps*, so where eps* <= 0 every gain H.dS_j is
    >= 0 and their sum is positive; a Farkas ray has H.X_j >= y_sum > 0
    for every j."""
    k = A.shape[2] - 2
    res = solve_lps(A, b, c)
    e = res.x[:, k] - res.x[:, k + 1]  # NaN where not optimal
    q = np.where((e > EPS_POSITIVE_TOL)[:, None], res.x[:, :k] + e[:, None], np.nan)
    h = -(res.y[:, None, : Vh.shape[1]] @ Vh)[:, 0]
    return np.where(np.isnan(e), -np.inf, e), q, h


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


def check_na(m: MarketModel) -> NaCertificate:
    """Global no-arbitrage decision with a glued EMM or a lifted strategy.

    Every internal node is decided, in arrays, by one ``_node_lps`` call
    per branch count.  The failing node with the lowest breadth-first
    index names the certificate: its separating vector, in closed form or
    from its LP's dual row, is lifted to a one-period unit strategy that is
    zero elsewhere, and ``node_eps`` stops at it.  When every node passes,
    the weights, in closed form or recomputed by ``solve_lps`` from each
    LP's original data, are glued into the density one depth level at a
    time.  An arbitrage certificate whose least gain is below
    ``REPLAY_MIN_GAIN`` times max(1, max|S|), or whose largest is not above
    ``REPLAY_MAX_GAIN`` times max|S|, proves nothing: a closed-form one is
    replaced by the node's LP certificate, and an LP one raises
    ``RuntimeError``.

    The sweep (``_na_sweep``) runs once per model; later calls on an
    unchanged model return a copy of its certificate (``MarketModel.memo``).
    A certificate that fails the replay gate is not kept, so it raises on
    every call.
    """
    return _detached(_sweep(m)[0])


def _sweep(m: MarketModel) -> tuple[NaCertificate, WealthKernel, np.ndarray | None]:
    """The model's kept ``_na_sweep`` record, not a copy: the certificate,
    the market's ``WealthKernel`` and the read-only one-step martingale
    weight of each edge (None on ARBITRAGE), for library code that only
    reads it and returns no part of it."""
    return m.memo("check_na", lambda: _na_sweep(m))


def _na_sweep(m: MarketModel):
    """``_sweep``'s record, computed afresh."""
    t = m.tree
    k = WealthKernel(m)
    eps = np.empty(t.internal.size)
    q = np.empty(t.edges.size)  # one-step martingale weight of each edge
    h = np.empty((t.internal.size, m.d))  # separating vector of each node
    lp = np.empty(t.internal.size, dtype=bool)  # the nodes the LP decided
    for size in sorted(set(t.sizes.tolist())):
        at = np.flatnonzero(t.sizes == size)
        e = t.starts[at, None] + np.arange(size)
        eps[at], q[e], h[at], lp[at] = _node_lps(k.dS[e], t.branch_prob[t.edges[e]],
                                                 m.prices[t.internal[at]])
    failed = np.flatnonzero(np.isnan(q[t.starts]))
    if failed.size:
        i = int(failed[0])
        v = int(t.internal[i])
        top = float(np.max(np.abs(m.prices)))
        low, high = REPLAY_MIN_GAIN * max(1.0, top), REPLAY_MAX_GAIN * top

        def sound(replay):
            return replay["min_gain"] >= low and replay["max_gain"] > high

        strategy = _lift_separating(m, v, h[i])
        replay = _replay_arbitrage(k, strategy)
        if not sound(replay) and not lp[i]:
            # rounding spoiled a closed-form ray (an ill-conditioned X):
            # the node's own LP gives the certificate
            e = t.starts[i] + np.arange(t.sizes[i])
            eps[i : i + 1], _, h[i : i + 1] = _solve_max_slack(*_max_slack_lps(k.dS[e][None]))
            strategy = _lift_separating(m, v, h[i])
            replay = _replay_arbitrage(k, strategy)
        if not sound(replay):
            raise RuntimeError(
                f"arbitrage certificate at node {v} (eps* {eps[i]:.3g}) fails its "
                f"replay: min_gain {replay['min_gain']:.3g} (needs >= {low:.3g}), "
                f"max_gain {replay['max_gain']:.3g} (needs > {high:.3g})"
            )
        return NaCertificate(
            verdict="ARBITRAGE",
            node_eps=dict(zip(t.internal[: i + 1].tolist(), eps[: i + 1].tolist())),
            fail_node=v,
            strategy=strategy,
            replay=replay,
        ), k, None

    q.flags.writeable = False
    density = DensityProcess(z=t.roll((q / t.branch_prob[t.edges])[None], 1.0, multiplicative=True)[0])
    return NaCertificate(
        verdict="NA",
        density=density,
        emm_residual=price_martingale_residual(m, density),
        node_eps=dict(zip(t.internal.tolist(), eps.tolist())),
    ), k, q


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


@dataclass
class NupbrResult:
    verdict: str  # "NUPBR" | "NO-NUPBR"
    certificate: NaCertificate


def check_nupbr(m: MarketModel) -> NupbrResult:
    """Decide NUPBR via existence of a local martingale density.

    On a finite tree local martingale densities and martingale densities
    coincide, so the decision is the same per-node sweep as for
    no-arbitrage: NUPBR holds iff a strictly positive martingale density
    exists, and the certificate carries it.  Otherwise the certificate's
    lifted one-period strategy scales to unbounded profit with bounded
    risk.
    """
    cert = check_na(m)
    return NupbrResult("NUPBR" if cert.verdict == "NA" else "NO-NUPBR", cert)
