"""Per-node loops that the level-wise ``WealthKernel`` sums replaced,
kept as a test-only oracle.

``density_from_leaf_values``, ``price_martingale_residual`` and
``DensityProcess.martingale_residual`` are the node-by-node loops as they
were; ``delta_for_epsilon`` is the search that built a full density for
every candidate delta through ``construct_q_delta``.
``tests/test_level_kernels.py`` holds the library to these.
"""

from __future__ import annotations

import numpy as np

from viatree.markets import DensityProcess, MarketModel
from viatree.measure_change import DELTA_MAX, REL_RESOLUTION, DeltaMeasure, construct_q_delta
from viatree.trees import EventTree


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
