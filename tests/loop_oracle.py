"""Loops that faster library code replaced, kept as a test-only oracle.

``density_from_leaf_values``, ``price_martingale_residual`` and
``DensityProcess.martingale_residual`` are the node-by-node loops that the
level-wise ``WealthKernel`` sums replaced; ``delta_for_epsilon`` is the
search that built a full density for every candidate delta through
``construct_q_delta``.  ``tests/test_level_kernels.py`` holds the library
to these.

``tree_layout`` is ``EventTree.__init__`` as it was when it found depths by
a fixed-point loop (one round per level) before the level offsets, and
``sanitize`` is the report sanitizer as it was before it told plain values
by their exact type; ``tests/test_trees.py`` and ``tests/test_io_cli.py``
hold the library to these.
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass

import numpy as np

from viatree.markets import DensityProcess, MarketModel
from viatree.measure_change import DELTA_MAX, REL_RESOLUTION, DeltaMeasure, construct_q_delta
from viatree.trees import PROB_SUM_TOL, EventTree, _parent_array


def martingale_residual(z: DensityProcess, tree: EventTree) -> float:
    worst = 0.0
    for v in tree.internal:
        kids = tree.children[v]
        r = abs(float(tree.branch_prob[kids] @ z.z[kids]) - z.z[v])
        worst = max(worst, r)
    return worst


def price_martingale_residual(m: MarketModel, dp: DensityProcess) -> float:
    t = m.tree
    worst = 0.0
    for v in t.internal:
        kids = t.children[v]
        wts = t.branch_prob[kids] * dp.z[kids] / dp.z[v]
        r = np.max(np.abs(wts @ (m.prices[kids] - m.prices[v])))
        worst = max(worst, float(r))
    return worst


def density_from_leaf_values(tree: EventTree, leaf_z: np.ndarray) -> np.ndarray:
    """The node values of the loop, before its mean-one gate."""
    z = np.empty(tree.n_nodes)
    z[tree.leaves] = leaf_z
    for v in range(tree.n_nodes - 1, -1, -1):
        kids = tree.children[v]
        if kids.size:
            z[v] = float(tree.branch_prob[kids] @ z[kids])
    return z


def delta_for_epsilon(tree: EventTree, q, eps: float) -> DeltaMeasure:
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    top = construct_q_delta(tree, q, DELTA_MAX)
    if top.l1_dist <= eps:
        return top
    hi = DELTA_MAX
    lo = None
    delta = 0.5
    for _ in range(200):
        dm = construct_q_delta(tree, q, delta)
        if dm.l1_dist <= eps:
            lo = delta
            best = dm
            break
        hi = delta
        delta *= 0.5
    if lo is None:
        raise AssertionError(
            "no feasible delta found on the grid; terminal density is not "
            "strictly positive?"
        )
    while (hi - lo) / lo > REL_RESOLUTION:
        mid = 0.5 * (hi + lo)
        dm = construct_q_delta(tree, q, mid)
        if dm.l1_dist <= eps:
            lo, best = mid, dm
        else:
            hi = mid
    return best


def tree_layout(parent, branch_prob) -> dict:
    """The layout attributes of ``EventTree(parent, branch_prob)``, or its
    ``ValueError``, from the fixed-point depth loop."""
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
    if n > 1 and np.any(par[1:] < 0):
        raise ValueError("only node 0 may be parentless")
    if np.any(par[1:] >= np.arange(1, n)):
        raise ValueError("parents must precede children (breadth-first order)")

    if not np.all(np.isfinite(bp)):
        raise ValueError("branch probabilities must be finite")
    if bp[0] != 1.0:
        raise ValueError("root branch probability must be exactly 1")
    if np.any(bp <= 0.0) or np.any(bp > 1.0):
        raise ValueError("branch probabilities must lie in (0, 1]")

    # one pass per level: a node's depth is final once its parent's is
    depth = np.zeros(n, dtype=np.int64)
    while not np.array_equal(step := np.concatenate(([0], depth[par[1:]] + 1)), depth):
        depth = step
    if np.any(np.diff(depth) < 0):
        raise ValueError("nodes must be grouped by depth (breadth-first order)")

    edges = np.argsort(par[1:], kind="stable") + 1
    n_kids = np.bincount(par[1:], minlength=n)
    leaves = np.flatnonzero(n_kids == 0)
    internal = np.flatnonzero(n_kids)
    horizon = int(depth.max())
    if np.any(depth[leaves] != horizon):
        raise ValueError("tree must be leveled: every leaf at the terminal depth")

    sums = np.bincount(par[1:], weights=bp[1:], minlength=n)
    bad = internal[np.abs(sums[internal] - 1.0) > PROB_SUM_TOL]
    if bad.size:
        raise ValueError(
            f"branch probabilities out of node {bad[0]} sum to {float(sums[bad[0]])!r}, "
            f"expected 1 within {PROB_SUM_TOL}"
        )

    off = np.searchsorted(depth, np.arange(horizon + 2))
    sizes = n_kids[internal]
    return {
        "depth": depth,
        "horizon": horizon,
        "level_offsets": off,
        "leaves": leaves,
        "internal": internal,
        "edges": edges,
        "edge_parent": par[edges],
        "sizes": sizes,
        "starts": np.cumsum(sizes) - sizes,
        "edge_levels": [slice(lo - 1, hi - 1) for lo, hi in zip(off[1:-1], off[2:])],
        "node_levels": [slice(lo, hi) for lo, hi in zip(off[:-2], off[1:-1])],
    }


def sanitize(value):
    if is_dataclass(value) and not isinstance(value, type):
        return sanitize(asdict(value))
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
