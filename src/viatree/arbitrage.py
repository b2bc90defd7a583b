"""No-arbitrage decisions, martingale densities and arbitrage certificates.

On a finite leveled event tree, absence of arbitrage is equivalent to a
per-node one-period condition (Dalang, Morton and Willinger 1990): at every
internal node the origin must lie in the relative interior of the convex
hull of the outgoing price increments.  That condition is decided by a
small LP per node,

    maximize  eps   s.t.  sum_j q_j dS_j = 0 (per asset),
                          sum_j q_j = 1,  q_j >= eps,

whose optimum eps* is strictly positive exactly when an interior
martingale weight vector q exists; a node passes when eps* exceeds
``EPS_POSITIVE_TOL``.  The LP is built on scale-free coordinates: each
node's increments are divided by their max |dS| and rotated onto their
singular vectors, with singular values below ``DEGENERATE_TOL`` times the
largest set to zero.  That is a positive
scaling and an orthogonal change of asset coordinates, which leave eps*
and q unchanged in exact arithmetic, so the verdict does not depend on the
price unit.  Gluing the per-node weights multiplicatively yields an
equivalent martingale measure.  At a failing node the same LP's dual row
gives a vector H with H.dS_j >= 0 for all branches and > 0 for at least
one, which lifts to a one-period arbitrage strategy.

Every verdict ships with a replayable certificate: the density's
martingale residuals on the NA side, the strategy's terminal gains on the
arbitrage side.  The decision depends on the market alone, so it is made
once per model (``MarketModel.memo``): ``check_na``, ``check_nupbr`` and
every solver that gates on the verdict share one sweep and one threshold
until the model's prices or tree arrays change; each call gets a copy.
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
from .simplex import solve_lps

DEGENERATE_TOL = 1e-12
EPS_POSITIVE_TOL = 1e-9
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
    U S of its thin SVD with singular values below ``DEGENERATE_TOL`` times
    the largest set to zero, padded with zero columns to d.  Substituting
    r_j = q_j - eps >= 0 and splitting eps = e+ - e- gives an equality-form
    LP in (r, e+, e-) >= 0.  Returns A, b, c and the (G, r, d) right
    singular vectors Vh, which map X's first r coordinates back to assets.
    """
    G, k, d = inc.shape
    U, s, Vh = np.linalg.svd(inc / np.abs(inc).max(axis=(1, 2), keepdims=True),
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
    return A, b, c, Vh


def _node_lps(inc: np.ndarray, bp: np.ndarray):
    """Decide G nodes with k branches each from their (G, k, d) increments
    and (G, k) branch probabilities, in one ``solve_lps`` stack.

    Returns eps* (G,), the unprojected interior weights q (G, k), NaN in
    the rows with eps* <= ``EPS_POSITIVE_TOL``, the rows each q must
    satisfy, the LP's (G, d + 1, k) moment and sum rows
    (``_project_weights``), and the (G, d) vectors H = -Vh^T y of the LP's
    dual rows y.  In the LP's coordinates X_j, an optimal y has
    y_mom.X_j <= -y_sum = eps* and sum_j H.X_j = 1 - k eps*, so where
    eps* <= 0 every gain H.dS_j is >= 0 and their sum is positive; a
    Farkas ray has H.X_j >= y_sum > 0 for every j.  A node whose
    increments are all below ``DEGENERATE_TOL`` keeps its branch
    probabilities, with eps* their minimum, zero rows and H = 0.
    """
    G, k, d = inc.shape
    eps, q = bp.min(axis=1), bp.copy()
    rows = np.zeros((G, d + 1, k))
    h = np.zeros((G, d))
    lp = np.flatnonzero(np.abs(inc).max(axis=(1, 2)) >= DEGENERATE_TOL)
    if lp.size:
        A, b, c, Vh = _max_slack_lps(inc[lp])
        res = solve_lps(A, b, c)
        e = res.x[:, k] - res.x[:, k + 1]  # NaN where not optimal
        eps[lp] = np.where(np.isnan(e), -np.inf, e)
        q[lp] = np.where((e > EPS_POSITIVE_TOL)[:, None], res.x[:, :k] + e[:, None], np.nan)
        rows[lp] = A[:, :, :k]
        h[lp] = -(res.y[:, None, : Vh.shape[1]] @ Vh)[:, 0]
    return eps, q, rows, h


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
    index names the certificate: the separating vector from its LP's dual
    row is lifted to a one-period unit strategy that is zero elsewhere,
    and ``node_eps`` stops at it.  When every node passes, the weights of
    all nodes are projected in one batched call, in the LP's coordinates,
    and glued into the density one depth level at a time.  An arbitrage
    certificate whose least gain is below ``REPLAY_MIN_GAIN`` times
    max(1, max|S|), or whose largest is not above ``REPLAY_MAX_GAIN`` times
    max|S|, raises ``RuntimeError``: it proves nothing.

    The sweep (``_na_sweep``) runs once per model; later calls on an
    unchanged model return a copy of its certificate (``MarketModel.memo``).
    A certificate that fails the replay gate is not kept, so it raises on
    every call.
    """
    return m.memo("check_na", lambda: _na_sweep(m))


def _na_sweep(m: MarketModel) -> NaCertificate:
    """``check_na``'s decision, computed afresh."""
    t = m.tree
    k = WealthKernel(m)
    eps = np.empty(t.internal.size)
    q = np.empty(t.edges.size)  # one-step martingale weight of each edge
    rows = np.empty((t.edges.size, m.d + 1))  # the LP rows of each weight
    h = np.empty((t.internal.size, m.d))  # separating vector of each node
    for size in sorted(set(t.sizes.tolist())):
        at = np.flatnonzero(t.sizes == size)
        e = t.starts[at, None] + np.arange(size)
        eps[at], q[e], r, h[at] = _node_lps(k.dS[e], t.branch_prob[t.edges[e]])
        rows[e] = r.transpose(0, 2, 1)
    failed = np.flatnonzero(np.isnan(q[t.starts]))
    if failed.size:
        i = int(failed[0])
        v = int(t.internal[i])
        strategy = _lift_separating(m, v, h[i])
        replay = _replay_arbitrage(k, strategy)
        top = float(np.max(np.abs(m.prices)))
        low, high = REPLAY_MIN_GAIN * max(1.0, top), REPLAY_MAX_GAIN * top
        if not (replay["min_gain"] >= low and replay["max_gain"] > high):
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
    coincide, so the decision is the same per-node LP sweep as for
    no-arbitrage: NUPBR holds iff a strictly positive martingale density
    exists, and the certificate carries it.  Otherwise the certificate's
    lifted one-period strategy scales to unbounded profit with bounded
    risk.
    """
    cert = check_na(m)
    return NupbrResult("NUPBR" if cert.verdict == "NA" else "NO-NUPBR", cert)
