"""Discounted market models on event trees, strategies, wealth and densities.

Prices are already discounted (there is no bank-account column), so
martingale statements are about the price vectors themselves.  A trading
strategy is predictable by construction: holdings or fractions are chosen
at a node and applied over its outgoing edges.  Kernels read the tree's edge
layout; ``WealthKernel`` adds the prices: per-edge increments and returns.

A model keeps the results of the decisions that depend on it alone
(``MarketModel.memo``) for as long as its prices and tree arrays are
bitwise what they were when the result was computed.  ``memo`` is the one
way to read a kept result, and it returns the result itself; only public
calls copy what they return (``_detached``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass
from functools import cached_property

import numpy as np

from .trees import EventTree, _bits

MARTINGALE_REL_TOL = 1e-9  # density martingale residual gate, times max(1, max z)
PRICE_REL_TOL = 1e-9  # price martingale residual gate, times max(1, max|S|)


@dataclass
class MarketModel:
    """A d-asset discounted market on a leveled event tree."""

    tree: EventTree
    prices: np.ndarray  # shape (n_nodes, d)
    label: str = ""
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.prices = np.atleast_2d(np.asarray(self.prices, dtype=np.float64))
        if self.prices.shape[0] != self.tree.n_nodes:
            raise ValueError(
                f"prices has {self.prices.shape[0]} rows for "
                f"{self.tree.n_nodes} nodes"
            )
        if self.prices.shape[1] < 1:
            raise ValueError("market needs at least one asset")
        if not np.all(np.isfinite(self.prices)):
            i, j = np.argwhere(~np.isfinite(self.prices))[0]
            raise ValueError(f"node {i}: price {j} is not finite")

    @property
    def d(self) -> int:
        return self.prices.shape[1]

    def memo(self, key, compute):
        """``compute()``, computed once and kept on the model under ``key``.

        ``key`` is a question's name, or a tuple of its name and the
        arguments it was asked with; the model keeps one result per name,
        the last key's, so a new key replaces the name's kept result.  A
        kept result is reused only while ``prices``, ``tree.parent`` and
        ``tree.branch_prob`` are bitwise the arrays it was computed from;
        any change drops every kept result.  A ``compute`` that raises keeps
        nothing, so it raises again on the next call.  The kept result
        itself is returned, not a copy: library code only reads it, and a
        public call copies what it hands to its caller (``_detached``).
        """
        t = self.tree
        state = tuple(map(_bits, (self.prices, t.parent, t.branch_prob)))
        if self._memo.get(_STATE) != state:
            self._memo.clear()
            self._memo[_STATE] = state
        name = key[0] if isinstance(key, tuple) else key
        kept = self._memo.get(name)
        if kept is None or kept[0] != key:
            kept = self._memo[name] = (key, compute())
        return kept[1]


_STATE = object()  # memo key of the arrays the kept results were computed from
_IMMUTABLE = {bool, int, float, str, type(None)}


def _detached(x):
    """A copy of ``x`` that shares no mutable part with it: arrays, dicts,
    lists, tuples and dataclass instances are copied, recursively; numbers,
    strings and None are returned as they are."""
    if isinstance(x, np.ndarray):
        return x.copy()
    if isinstance(x, dict):
        if set(map(type, x.values())) <= _IMMUTABLE:  # node_eps, replay: one C-level copy
            return dict(x)
        return {k: _detached(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(_detached, x))
    if is_dataclass(x) and not isinstance(x, type):
        out = object.__new__(type(x))
        out.__dict__.update((k, _detached(v)) for k, v in vars(x).items())
        return out
    return x


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

    def _gaps(self, tree: EventTree) -> np.ndarray:
        """|E[z(child) | node] - z(node)| per internal node."""
        e = tree.edges
        return np.abs(tree.sums(tree.branch_prob[e] * self.z[e]) - self.z[tree.internal])

    def martingale_residual(self, tree: EventTree) -> float:
        """sup over internal nodes of |E[z(child) | node] - z(node)|."""
        return float(self._gaps(tree).max(initial=0.0))

    def is_martingale(self, tree: EventTree) -> bool:
        """Whether the martingale residual is at most ``MARTINGALE_REL_TOL``
        x max(1, max z): the one martingale gate of a density."""
        return self.martingale_residual(tree) <= MARTINGALE_REL_TOL * max(1.0, float(self.z.max()))

    def require_martingale(self, tree: EventTree) -> None:
        """Raise ``ValueError`` naming the worst node where ``is_martingale`` is false."""
        if not self.is_martingale(tree):
            i = int(np.argmax(gaps := self._gaps(tree)))
            raise ValueError(
                f"density is not a martingale: at node {tree.internal[i]}, |E[z(child) | node]"
                f" - z(node)| = {float(gaps[i])!r} > {MARTINGALE_REL_TOL} x max(1, max z)"
            )


def _step_weights(m: MarketModel, measure: DensityProcess | None) -> np.ndarray:
    """One-step probabilities in ``EventTree.edges`` order, reweighted by
    the one-step ratios of a caller's density when a measure is given."""
    t = m.tree
    w = t.branch_prob[t.edges].copy()
    if measure is not None:
        w *= measure.z[t.edges] / measure.z[t.edge_parent]
    return w


class WealthKernel:
    """Wealth of many strategies on one market at once.  Strategies are
    (S, n_nodes, d) arrays; wealth, an (S, n_nodes) array, is rolled forward
    one depth level at a time over the tree's edge layout, from the price
    increment ``dS`` of each edge.  Sums run in asset order, not through
    BLAS.  It holds the tree and the prices, not the model, and its ``dS``
    and ``returns`` are read-only: a model keeps one (``arbitrage._sweep``)."""

    def __init__(self, m: MarketModel):
        self.tree, self.prices = m.tree, m.prices
        self.dS = m.prices[m.tree.edges] - m.prices[m.tree.edge_parent]
        self.dS.flags.writeable = False

    @cached_property
    def returns(self) -> np.ndarray:
        """Simple returns per edge; internal prices must be nonzero."""
        nodes, prices = self.tree.internal, self.prices
        zero = np.any(prices[nodes] == 0.0, axis=1)
        if np.any(zero):
            raise ValueError(
                f"simple returns undefined at node {nodes[np.argmax(zero)]}: a price component is 0"
            )
        r = self.dS / prices[self.tree.edge_parent]
        r.flags.writeable = False
        return r

    def edge_dot(self, per_node: np.ndarray, incr: np.ndarray) -> np.ndarray:
        """(S, n_edges) array of incr[e] . per_node[s, edge_parent[e]]."""
        up = self.tree.edge_parent
        out = per_node[:, up, 0] * incr[:, 0]
        for i in range(1, incr.shape[1]):
            out += per_node[:, up, i] * incr[:, i]
        return out

    def units(self, holdings: np.ndarray, x0: float) -> np.ndarray:
        return self.tree.roll(self.edge_dot(holdings, self.dS), x0)

    def growth(self, fractions: np.ndarray) -> np.ndarray:
        """Cumulative wealth factors; names the first infeasible edge of
        the first infeasible strategy."""
        t = self.tree
        step = 1.0 + self.edge_dot(fractions, self.returns)
        if np.any(bad := step <= 0.0):
            s = np.argmax(bad.any(axis=1))
            g = np.searchsorted(t.starts, np.argmax(bad[s]), side="right") - 1
            lo = t.starts[g]
            e = lo + np.argmin(step[s, lo : lo + t.sizes[g]])
            raise ValueError(
                f"fraction strategy infeasible: wealth factor {step[s, e]!r} <= 0 "
                f"on edge {t.edge_parent[e]} -> {t.edges[e]}"
            )
        return t.roll(step, 1.0, multiplicative=True)


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


def price_martingale_residual(m: MarketModel, dp: DensityProcess) -> float:
    """sup over internal nodes and assets of the one-step density-weighted
    price increment |E[(z(child)/z(node)) dS | node]|."""
    t = m.tree
    wts = t.branch_prob[t.edges] * dp.z[t.edges] / dp.z[t.edge_parent]
    return float(np.abs(t.sums(wts[:, None] * WealthKernel(m).dS)).max(initial=0.0))


def price_residual_tol(m: MarketModel) -> float:
    """The gate of a price martingale residual: ``PRICE_REL_TOL`` in units
    of max(1, max|S|), so a check passes or fails alike in any price unit."""
    return PRICE_REL_TOL * max(1.0, float(np.max(np.abs(m.prices))))


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
    z = tree.backward(tree.branch_prob[tree.edges], z)
    if abs(z[0] - 1.0) > 1e-9:
        raise ValueError(
            f"leaf values do not aggregate to a density: E[z_T] = {z[0]!r} != 1"
        )
    z[0] = 1.0
    return DensityProcess(z=z)
