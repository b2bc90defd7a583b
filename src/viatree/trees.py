"""Finite leveled event trees.

An event tree is the discrete skeleton of a filtered probability space:
nodes are atoms of the filtration, edges carry one-step conditional
probabilities, and every leaf sits at the same terminal depth (the tree is
"leveled").  Nodes are indexed breadth-first from the root (node 0), so a
parent always has a smaller index than its children and each depth level
occupies a contiguous index range.

Unconditional node probabilities are derived from the conditional branch
probabilities, which stay the single source of truth: the tree keeps the
derived ones only while ``branch_prob`` is bitwise the array they came from.

The tree owns the one array layout every kernel reads: edges named by
their child and ordered by parent, so sibling groups and depth levels are
contiguous edge ranges, and four level-wise primitives on per-edge arrays
(``stack``, ``sums``, ``backward``, ``roll``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

PROB_SUM_TOL = 1e-12


def _bits(a: np.ndarray) -> tuple:
    """What makes two arrays bitwise equal: dtype, shape and bytes."""
    return a.dtype.str, a.shape, a.tobytes()


def _parent_array(parent) -> np.ndarray:
    """The parent indices as int64, None read as -1; a bool or a number
    that is not an integer raises ``ValueError`` naming the node."""
    par = [-1 if p is None else p for p in parent]
    if not all(issubclass(k, Integral) and k is not bool for k in set(map(type, par))):
        for node, p in enumerate(par):
            if isinstance(p, bool) or not (isinstance(p, Integral) or isinstance(p, Real) and float(p).is_integer()):
                raise ValueError(f"node {node}: parent {p!r} is not an integer")
    return np.asarray(par, dtype=np.int64)


class EventTree:
    """Leveled tree with conditional branch probabilities.

    Parameters
    ----------
    parent : sequence of int or None
        ``parent[i]`` is the index of node ``i``'s parent; the root entry
        (index 0) must be ``None`` (or ``-1``).  Parents must precede
        children and nodes must be grouped by depth (breadth-first order).
        A bool or a number that is not an integer raises ``ValueError``.
    branch_prob : sequence of float
        ``branch_prob[i]`` is the conditional probability of reaching node
        ``i`` from its parent.  The root entry must be 1.  Probabilities lie
        in (0, 1] and sum to 1 over each sibling group (within 1e-12).
    """

    def __init__(self, parent, branch_prob):
        par = _parent_array(parent)
        bp = np.asarray(branch_prob, dtype=np.float64)
        n = par.size
        if n == 0:
            raise ValueError("tree must have at least a root node")
        if bp.shape != (n,):
            raise ValueError(
                f"branch_prob has shape {bp.shape}, expected ({n},)"
            )
        if par[0] != -1:
            raise ValueError("node 0 must be the root (parent None)")
        if (par[1:] < 0).any():
            raise ValueError("only node 0 may be parentless")
        if (par[1:] >= np.arange(1, n)).any():
            raise ValueError("parents must precede children (breadth-first order)")

        if not np.isfinite(bp).all():
            raise ValueError("branch probabilities must be finite")
        if bp[0] != 1.0:
            raise ValueError("root branch probability must be exactly 1")
        if (bp <= 0.0).any() or (bp > 1.0).any():
            raise ValueError("branch probabilities must lie in (0, 1]")

        # level L + 1 ends at the first node whose running max of parents is
        # past level L; the levels hold iff each node is one below its parent
        reach = np.maximum.accumulate(par)
        off = [0, 1]
        while off[-1] < n:
            off.append(int(reach.searchsorted(off[-1])))
        depth = np.arange(len(off) - 1).repeat([hi - lo for lo, hi in zip(off, off[1:])])
        if not (depth[par[1:]] + 1 == depth[1:]).all():
            raise ValueError("nodes must be grouped by depth (breadth-first order)")

        # edges (named by their child) ordered by parent: siblings are adjacent
        edges = par[1:].argsort(kind="stable") + 1
        n_kids = np.bincount(par[1:], minlength=n)
        horizon, m = len(off) - 2, off[-2]  # nodes 0..m-1 lie above the terminal depth
        if not n_kids[:m].all():
            raise ValueError("tree must be leveled: every leaf at the terminal depth")
        internal, leaves = np.arange(m), np.arange(m, n)

        sums = np.bincount(par[1:], weights=bp[1:], minlength=n)
        bad = (np.abs(sums[:m] - 1.0) > PROB_SUM_TOL).nonzero()[0]
        if bad.size:
            raise ValueError(
                f"branch probabilities out of node {bad[0]} sum to {float(sums[bad[0]])!r}, "
                f"expected 1 within {PROB_SUM_TOL}"
            )

        self.parent = par
        self.branch_prob = bp
        self.n_nodes = n
        self.depth = depth
        self.horizon = horizon
        # depth level k occupies nodes level_offsets[k]:level_offsets[k + 1]
        self.level_offsets = np.array(off)
        self.leaves = leaves
        self.internal = internal
        # the edge into node edges[e] leaves edge_parent[e]; internal node
        # internal[i] owns the edges starts[i]:starts[i] + sizes[i]
        self.edges = edges
        self.edge_parent = par[edges]
        self.sizes = n_kids[:m]
        self.starts = self.sizes.cumsum() - self.sizes
        # the edges into depth L + 1 are edges[edge_levels[L]]; every node
        # above the terminal depth is internal, so the nodes they leave are
        # internal[node_levels[L]]
        self.edge_levels = [slice(lo - 1, hi - 1) for lo, hi in zip(off[1:-1], off[2:])]
        self.node_levels = [slice(lo, hi) for lo, hi in zip(off[:-2], off[1:-1])]
        self._probs = None  # (bits of the branch_prob they came from, node probabilities)
        self._slots = {}  # stack's (gather index, padding mask) per slice of internal nodes

    @cached_property
    def children(self) -> list[np.ndarray]:
        """Per node, its children in ascending order (empty at leaves)."""
        n_kids = np.bincount(self.edge_parent, minlength=self.n_nodes)
        return np.split(self.edges, np.cumsum(n_kids)[:-1])

    def stack(self, per_edge: np.ndarray, fill: float, rows: slice = slice(None)) -> np.ndarray:
        """Per-edge values as an (internal node, branch slot, ...) array for
        the internal nodes ``rows``, padded with ``fill`` past each node's
        own branches.  The tree keeps each slice's slot layout, which
        depends on its edge layout alone."""
        key = rows.start, rows.stop, rows.step
        if (layout := self._slots.get(key)) is None:
            sizes = self.sizes[rows]
            slot = np.arange(sizes.max(initial=0))
            real = slot < sizes[:, None]
            layout = self._slots[key] = np.where(real, self.starts[rows, None] + slot, 0), ~real
        take, pad = layout
        out = per_edge[take]
        out[pad] = fill
        return out

    def sums(self, per_edge: np.ndarray) -> np.ndarray:
        """Sums of per-edge values (along axis 0) over each internal node's edges."""
        return np.add.reduceat(per_edge, self.starts, axis=0)

    def backward(self, weights: np.ndarray, values: np.ndarray, step=None) -> np.ndarray:
        """v(node) = sum of weights_j (step_j + v(child_j)) over the node's
        edges, one depth level at a time from the leaf entries of ``values``
        (an (n_nodes,) array; its other entries are overwritten)."""
        v = np.array(values, dtype=np.float64)
        for lv, nv in zip(reversed(self.edge_levels), reversed(self.node_levels)):
            term = v[self.edges[lv]] if step is None else step[lv] + v[self.edges[lv]]
            v[self.internal[nv]] = np.add.reduceat(weights[lv] * term, self.starts[nv] - lv.start)
        return v

    def roll(self, steps: np.ndarray, start: float, multiplicative: bool = False):
        """(S, n_nodes) values from their root value and (S, n_edges)
        per-edge steps, added or multiplied down one depth level at a time."""
        w = np.empty((steps.shape[0], self.n_nodes))
        w[:, 0] = start
        for lv in self.edge_levels:
            up = w[:, self.edge_parent[lv]]
            w[:, self.edges[lv]] = up * steps[:, lv] if multiplicative else up + steps[:, lv]
        return w

    def unconditional_probs(self) -> np.ndarray:
        """Node probabilities: branch probabilities multiplied down the tree.

        The tree keeps them and multiplies again only once ``branch_prob``
        is no longer bitwise the array they came from (changed in place or
        assigned anew).  Every call returns its own copy."""
        key = _bits(self.branch_prob)
        if self._probs is None or self._probs[0] != key:
            self._probs = key, self.roll(self.branch_prob[self.edges][None], 1.0, multiplicative=True)[0]
        return self._probs[1].copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventTree(n_nodes={self.n_nodes}, horizon={self.horizon}, "
            f"leaves={self.leaves.size})"
        )


@dataclass(frozen=True)
class StoppingTime:
    """A stopping time as a cut: every root-to-leaf path meets it exactly once."""

    nodes: tuple[int, ...]

    @classmethod
    def of(cls, tree: EventTree, nodes) -> "StoppingTime":
        cut = tuple(sorted(int(v) for v in nodes))
        if len(set(cut)) != len(cut):
            raise ValueError("stopping-time cut contains duplicate nodes")
        if any(v < 0 or v >= tree.n_nodes for v in cut):
            raise ValueError("stopping-time cut references unknown nodes")
        hits = _meetings(tree, cut)
        bad = [int(l) for l in tree.leaves if hits[l] != 1]
        if bad:
            raise ValueError(
                f"cut is not an exact antichain cover: leaves {bad[:5]} are "
                f"crossed {[int(hits[b]) for b in bad[:5]]} times"
            )
        return cls(cut)

    @classmethod
    def terminal(cls, tree: EventTree) -> "StoppingTime":
        return cls(tuple(int(v) for v in tree.leaves))


def crossed_by(tree: EventTree, cut: StoppingTime) -> np.ndarray:
    """Boolean per node: has the path to the node met the cut at or before it."""
    return _meetings(tree, cut.nodes) > 0


def _meetings(tree: EventTree, nodes) -> np.ndarray:
    """Per node, how many of ``nodes`` its root path meets."""
    own = np.zeros(tree.n_nodes)
    own[list(nodes)] = 1.0
    return tree.roll(own[tree.edges][None], own[0])[0]


def cuts_nested(tree: EventTree, earlier: StoppingTime, later: StoppingTime) -> bool:
    """True iff every path meets ``earlier`` no later than ``later``."""
    return bool(crossed_by(tree, earlier)[list(later.nodes)].all())
