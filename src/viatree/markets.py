"""Discounted market models on event trees, strategies, wealth and densities.

Prices are already discounted (there is no bank-account column), so
martingale statements are about the price vectors themselves.  A trading
strategy is predictable by construction: holdings or fractions are chosen
at a node and applied over its outgoing edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import EventTree, StoppingTime

MARTINGALE_FLAG_TOL = 1e-12
BLOCK_ENTRIES = 1 << 14  # node-asset entries per strategy block; bounds memory


@dataclass
class MarketModel:
    """A d-asset discounted market on a leveled event tree."""

    tree: EventTree
    prices: np.ndarray  # shape (n_nodes, d)
    label: str = ""

    def __post_init__(self):
        self.prices = np.atleast_2d(np.asarray(self.prices, dtype=np.float64))
        if self.prices.shape[0] != self.tree.n_nodes:
            raise ValueError(
                f"prices has {self.prices.shape[0]} rows for "
                f"{self.tree.n_nodes} nodes"
            )
        if self.prices.shape[1] < 1:
            raise ValueError("market needs at least one asset")

    @property
    def d(self) -> int:
        return self.prices.shape[1]

    def increments(self, v: int) -> np.ndarray:
        """Price increments S(child) - S(v), one row per child of v."""
        kids = self.tree.children[v]
        return self.prices[kids] - self.prices[v]

    def simple_returns(self, v: int) -> np.ndarray:
        """Componentwise simple returns over the edges out of v."""
        base = self.prices[v]
        if np.any(base == 0.0):
            raise ValueError(
                f"simple returns undefined at node {v}: a price component is 0"
            )
        return self.increments(v) / base


def validate_market(m: MarketModel) -> list[str]:
    """Collect rule violations; an empty list means the market is valid."""
    problems = []
    if not np.all(np.isfinite(m.prices)):
        problems.append("prices contain NaN or infinity")
    if m.prices.shape[1] < 1:
        problems.append("market has no assets")
    # Tree-level invariants are enforced by EventTree's constructor; re-run
    # the probability sums here so a mutated tree is still caught.
    for v in m.tree.internal:
        s = m.tree.branch_prob[m.tree.children[v]].sum()
        if abs(s - 1.0) > 1e-12:
            problems.append(f"branch probabilities at node {v} sum to {s!r}")
    return problems


@dataclass
class UnitStrategy:
    """Holdings in units of each asset, chosen per internal node."""

    holdings: np.ndarray  # shape (n_nodes, d); rows at leaves are unused

    def __post_init__(self):
        self.holdings = np.atleast_2d(np.asarray(self.holdings, dtype=np.float64))


@dataclass
class FractionStrategy:
    """Wealth fractions invested in each asset, chosen per internal node."""

    fractions: np.ndarray  # shape (n_nodes, d); rows at leaves are unused

    def __post_init__(self):
        self.fractions = np.atleast_2d(np.asarray(self.fractions, dtype=np.float64))


@dataclass
class WealthProcess:
    x0: float
    values: np.ndarray  # shape (n_nodes,)

    def terminal(self, tree: EventTree) -> np.ndarray:
        return self.values[tree.leaves]


@dataclass
class DensityProcess:
    """Strictly positive density process with z(root) = 1."""

    z: np.ndarray  # shape (n_nodes,)

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        if self.z.ndim != 1:
            raise ValueError("density values must be a flat per-node array")
        if self.z[0] != 1.0:
            raise ValueError(f"density must start at 1, got z(root)={self.z[0]!r}")
        if not np.all(np.isfinite(self.z)):
            bad = int(np.flatnonzero(~np.isfinite(self.z))[0])
            raise ValueError(f"density value at node {bad} is not finite")
        if np.any(self.z <= 0.0):
            bad = int(np.flatnonzero(self.z <= 0.0)[0])
            raise ValueError(
                f"density must be strictly positive; node {bad} has z={self.z[bad]!r}"
            )

    def martingale_residual(self, tree: EventTree) -> float:
        """sup over internal nodes of |E[z(child) | node] - z(node)|."""
        k = TreeLevels(tree)
        gap = k.sums(tree.branch_prob[k.child] * self.z[k.child]) - self.z[k.nodes]
        return float(np.abs(gap).max(initial=0.0))

    def is_martingale(self, tree: EventTree, tol: float = MARTINGALE_FLAG_TOL) -> bool:
        return self.martingale_residual(tree) <= tol

    def expectation_at(self, tree: EventTree, cut: StoppingTime) -> float:
        """E[z at the cut]; equals 1 for martingale densities (optional stopping)."""
        p = tree.unconditional_probs()
        return float(sum(p[v] * self.z[v] for v in cut.nodes))

    def step_weights(self, tree: EventTree, v: int) -> np.ndarray:
        """One-step reweighted probabilities branch_prob * z(child)/z(node)."""
        kids = tree.children[v]
        return tree.branch_prob[kids] * self.z[kids] / self.z[v]


class TreeLevels:
    """Price-free sums over an event tree, one depth level at a time, of
    per-edge arrays in ``EventTree.edges`` order, where sibling groups and
    depth levels are contiguous ranges."""

    def __init__(self, t: EventTree):
        self.child, self.parent = t.edges, t.parent[t.edges]
        self.starts = np.flatnonzero(np.diff(self.parent, prepend=-1))
        self.sizes = np.diff(self.starts, append=self.child.size)
        self.nodes = t.internal  # the parent of each sibling group
        off = t.level_offsets - 1
        self.levels = [slice(lo, hi) for lo, hi in zip(off[1:-1], off[2:])]
        # every node above the terminal depth is internal, so the internal
        # nodes of depth L are nodes[node_levels[L]], whose edges are levels[L]
        self.node_levels = [slice(lo, hi) for lo, hi in
                            zip(t.level_offsets[:-2], t.level_offsets[1:-1])]

    def stack(self, per_edge: np.ndarray, fill: float, rows=slice(None)) -> np.ndarray:
        """Per-edge values as an (internal node, branch slot, ...) array for
        the internal nodes ``rows``, padded with ``fill`` past each node's
        own branches."""
        sizes = self.sizes[rows]
        slot = np.arange(sizes.max(initial=0))
        real = slot < sizes[:, None]
        out = per_edge[np.where(real, self.starts[rows, None] + slot, 0)]
        out[~real] = fill
        return out

    def sums(self, per_edge: np.ndarray) -> np.ndarray:
        """Sums of per-edge values (along axis 0) over each internal node's edges."""
        return np.add.reduceat(per_edge, self.starts, axis=0)

    def backward(self, weights: np.ndarray, values: np.ndarray, step=None) -> np.ndarray:
        """v(node) = sum of weights_j (step_j + v(child_j)) over the node's
        edges, one depth level at a time from the leaf entries of ``values``
        (an (n_nodes,) array; its other entries are overwritten)."""
        v = np.array(values, dtype=np.float64)
        for lv, nv in zip(reversed(self.levels), reversed(self.node_levels)):
            term = v[self.child[lv]] if step is None else step[lv] + v[self.child[lv]]
            v[self.nodes[nv]] = np.add.reduceat(weights[lv] * term, self.starts[nv] - lv.start)
        return v

    def roll(self, steps: np.ndarray, start: float, multiplicative: bool = False):
        """Wealth from its root value and per-edge steps, level by level."""
        w = np.empty((steps.shape[0], self.child.size + 1))
        w[:, 0] = start
        for lv in self.levels:
            up = w[:, self.parent[lv]]
            w[:, self.child[lv]] = up * steps[:, lv] if multiplicative else up + steps[:, lv]
        return w


class WealthKernel(TreeLevels):
    """Wealth of many strategies on one market at once.  Strategies are
    (S, n_nodes, d) arrays; wealth, an (S, n_nodes) array, is rolled forward
    one depth level at a time.  Sums run in asset order, not through BLAS."""

    def __init__(self, m: MarketModel):
        super().__init__(m.tree)
        self.market = m
        self.dS = m.prices[self.child] - m.prices[self.parent]

    @property
    def returns(self) -> np.ndarray:
        """Simple returns per edge; internal prices must be nonzero."""
        zero = np.any(self.market.prices[self.nodes] == 0.0, axis=1)
        if np.any(zero):
            raise ValueError(
                f"simple returns undefined at node {self.nodes[np.argmax(zero)]}: "
                "a price component is 0"
            )
        return self.dS / self.market.prices[self.parent]

    def blocks(self, n: int) -> list[slice]:
        """Ranges of n strategies, each about BLOCK_ENTRIES node-asset entries."""
        step = max(1, BLOCK_ENTRIES // self.market.prices.size)
        return [slice(i, min(i + step, n)) for i in range(0, n, step)]

    def edge_dot(self, per_node: np.ndarray, incr: np.ndarray) -> np.ndarray:
        """(S, n_edges) array of incr[e] . per_node[s, parent[e]]."""
        out = per_node[:, self.parent, 0] * incr[:, 0]
        for i in range(1, incr.shape[1]):
            out += per_node[:, self.parent, i] * incr[:, i]
        return out

    def units(self, holdings: np.ndarray, x0: float) -> np.ndarray:
        return self.roll(self.edge_dot(holdings, self.dS), x0)

    def growth(self, fractions: np.ndarray) -> np.ndarray:
        """Cumulative wealth factors; names the first infeasible edge of
        the first infeasible strategy."""
        step = 1.0 + self.edge_dot(fractions, self.returns)
        if np.any(bad := step <= 0.0):
            s = np.argmax(bad.any(axis=1))
            g = np.searchsorted(self.starts, np.argmax(bad[s]), side="right") - 1
            lo = self.starts[g]
            e = lo + np.argmin(step[s, lo : lo + self.sizes[g]])
            raise ValueError(
                f"fraction strategy infeasible: wealth factor {step[s, e]!r} <= 0 "
                f"on edge {self.parent[e]} -> {self.child[e]}"
            )
        return self.roll(step, 1.0, multiplicative=True)


def wealth_from_units(m: MarketModel, s: UnitStrategy, x0: float) -> WealthProcess:
    """Self-financing wealth W(child) = W(node) + holdings(node) . dS."""
    h = s.holdings
    if h.shape != m.prices.shape:
        raise ValueError(
            f"holdings shape {h.shape} does not match prices {m.prices.shape}"
        )
    return WealthProcess(x0=float(x0), values=WealthKernel(m).units(h[None], x0)[0])


def wealth_from_fractions(m: MarketModel, s: FractionStrategy, x0: float) -> WealthProcess:
    """Multiplicative wealth with one-step factor 1 + fractions . returns.

    The cumulative factor is accumulated once and scaled by ``x0`` at the
    end, so rescaling the initial capital rescales wealth with a single
    multiplication per node.
    """
    f = s.fractions
    if f.shape != m.prices.shape:
        raise ValueError(
            f"fractions shape {f.shape} does not match prices {m.prices.shape}"
        )
    return WealthProcess(x0=float(x0), values=x0 * WealthKernel(m).growth(f[None])[0])


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


def self_financing_residual(m: MarketModel, s: UnitStrategy, w: WealthProcess) -> float:
    """sup over edges of |dW - holdings . dS| for a unit-strategy wealth."""
    k = WealthKernel(m)
    dw = w.values[k.child] - w.values[k.parent]
    return float(np.abs(dw - k.edge_dot(s.holdings[None], k.dS)[0]).max(initial=0.0))


def price_martingale_residual(m: MarketModel, dp: DensityProcess) -> float:
    """sup over internal nodes and assets of the one-step density-weighted
    price increment |E[(z(child)/z(node)) dS | node]|."""
    k = WealthKernel(m)
    wts = m.tree.branch_prob[k.child] * dp.z[k.child] / dp.z[k.parent]
    return float(np.abs(k.sums(wts[:, None] * k.dS)).max(initial=0.0))


def density_from_leaf_values(tree: EventTree, leaf_z: np.ndarray) -> DensityProcess:
    """Extend strictly positive leaf density values to a full density process
    by one-step conditional expectations (so the result is a martingale)."""
    leaf_z = np.asarray(leaf_z, dtype=np.float64)
    if leaf_z.shape != (tree.leaves.size,):
        raise ValueError(
            f"expected {tree.leaves.size} leaf values, got shape {leaf_z.shape}"
        )
    if np.any(leaf_z <= 0.0) or not np.all(np.isfinite(leaf_z)):
        raise ValueError("leaf density values must be finite and strictly positive")
    z = np.empty(tree.n_nodes)
    z[tree.leaves] = leaf_z
    z = TreeLevels(tree).backward(tree.branch_prob[tree.edges], z)
    if abs(z[0] - 1.0) > 1e-9:
        raise ValueError(
            f"leaf values do not aggregate to a density: E[z_T] = {z[0]!r} != 1"
        )
    z[0] = 1.0
    return DensityProcess(z=z)
