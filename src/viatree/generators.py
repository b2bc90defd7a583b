"""Seeded random trees, markets and densities for suites and probes.

Two market flavors: fully random node prices (which produce a healthy mix
of arbitrage and arbitrage-free instances, more arbitrage as assets grow),
and martingale-built markets that are arbitrage-free by construction
(parent prices are convex combinations of child prices under hidden
interior weights).
"""

from __future__ import annotations

import numpy as np

from .markets import DensityProcess, MarketModel
from .trees import EventTree


def random_tree(
    rng: np.random.Generator,
    depth_range=(1, 3),
    branch_range=(2, 4),
) -> EventTree:
    """A leveled tree with random branching and interior branch probabilities.

    Branch probabilities are a Dirichlet draw blended with the uniform
    vector, which bounds them away from 0 (well above the (0,1] floor).
    """
    depth = int(rng.integers(depth_range[0], depth_range[1] + 1))
    parent: list[int | None] = [None]
    prob: list[float] = [1.0]
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            k = int(rng.integers(branch_range[0], branch_range[1] + 1))
            w = 0.8 * rng.dirichlet(np.ones(k)) + 0.2 / k
            for j in range(k):
                parent.append(v)
                prob.append(float(w[j]))
                nxt.append(len(parent) - 1)
        frontier = nxt
    return EventTree(parent, prob)


def random_market(
    rng: np.random.Generator,
    d: int = 1,
    depth_range=(1, 3),
    branch_range=(2, 4),
    label: str = "",
) -> MarketModel:
    """Independent uniform prices at every node: arbitrage is possible."""
    t = random_tree(rng, depth_range, branch_range)
    prices = rng.uniform(0.1, 10.0, size=(t.n_nodes, d))
    return MarketModel(tree=t, prices=prices, label=label or "random")


def random_na_market(
    rng: np.random.Generator,
    d: int = 1,
    depth_range=(1, 3),
    branch_range=(2, 4),
    label: str = "",
) -> MarketModel:
    """Arbitrage-free by construction: prices are backward convex combinations.

    Leaf prices are uniform draws; every internal price is sum_j w_j S(child_j)
    for hidden interior weights w, so those weights glue into an equivalent
    martingale measure.
    """
    t = random_tree(rng, depth_range, branch_range)
    prices = np.empty((t.n_nodes, d))
    prices[t.leaves] = rng.uniform(0.1, 10.0, size=(t.leaves.size, d))
    for v in range(t.n_nodes - 1, -1, -1):
        kids = t.children[v]
        if kids.size:
            k = kids.size
            w = 0.8 * rng.dirichlet(np.ones(k)) + 0.2 / k
            prices[v] = w @ prices[kids]
    return MarketModel(tree=t, prices=prices, label=label or "random-na")


def random_martingale_density(
    tree: EventTree, rng: np.random.Generator
) -> DensityProcess:
    """A strictly positive martingale density: random interior one-step
    weights divided by the branch probabilities, glued multiplicatively."""
    z = np.ones(tree.n_nodes)
    for v in tree.internal:
        kids = tree.children[v]
        k = kids.size
        w = 0.8 * rng.dirichlet(np.ones(k)) + 0.2 / k
        z[kids] = z[v] * w / tree.branch_prob[kids]
    return DensityProcess(z=z)
