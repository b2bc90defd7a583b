"""Bounded equivalent measure changes built from a martingale density.

Given a terminal density q (positive leaf values with mean one), the
transform q_delta = q / (delta + q) caps the density pointwise: the
normalized Z_delta = q_delta / E[q_delta] is bounded by 1 / Delta0 where
Delta0 = E[q / (1 + q)], uniformly in delta in (0, 1).  Shrinking delta
pulls Z_delta toward the original measure; growing it flattens Z_delta
toward 1 while keeping the measure equivalent.  The l1 distance
E|Z_delta - 1| therefore climbs from 0 as delta grows, which is what the
bracket-and-bisect search in ``delta_for_epsilon`` exploits.

The payoff of the construction: utility maximization under Z_delta is
value-bounded by U(x0 / (delta * E[q_delta])) whenever q came from a
martingale density, because the optimal terminal wealth has Q-expectation
at most x0 and Z_delta <= q / (delta * E[q_delta]) pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arbitrage import ArbitrageError
from .markets import (
    DensityProcess,
    MarketModel,
    density_from_leaf_values,
    price_martingale_residual,
    price_residual_tol,
)
from .trees import EventTree

DELTA_MAX = 1.0 - 1e-9
REL_RESOLUTION = 1e-12
NORMALIZATION_TOL = 1e-12
BOUND_TOL = 1e-12


@dataclass
class DeltaMeasure:
    delta: float
    q: np.ndarray  # original terminal density on leaves
    q_delta: np.ndarray  # capped, unnormalized
    z_leaf: np.ndarray  # normalized terminal density
    density: DensityProcess  # extended to every node
    e_q_delta: float
    delta0: float  # E[q / (1 + q)]
    bound: float  # 1 / delta0, pointwise bound for z
    l1_dist: float  # E|Z_delta - 1|


def _leaf_density(tree: EventTree, q) -> tuple[np.ndarray, np.ndarray]:
    """Leaf probabilities and the checked terminal density q."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (tree.leaves.size,):
        raise ValueError(
            f"expected one q value per leaf ({tree.leaves.size}), got {q.shape}"
        )
    if np.any(q <= 0.0) or not np.all(np.isfinite(q)):
        raise ValueError("terminal density values must be finite and positive")
    p = tree.unconditional_probs()[tree.leaves]
    mean = float(p @ q)
    if abs(mean - 1.0) > 1e-9:
        raise ValueError(f"terminal density must have mean 1, got {mean!r}")
    return p, q


def _leaf_fields(p: np.ndarray, q: np.ndarray, delta: float):
    """q_delta, E[q_delta], Z_delta, Delta0, 1/Delta0 and E|Z_delta - 1| on
    the leaves, with the bound and the normalization checked."""
    q_delta = q / (delta + q)
    e_q_delta = float(p @ q_delta)
    z_leaf = q_delta / e_q_delta
    delta0 = float(p @ (q / (1.0 + q)))
    bound = 1.0 / delta0
    if float(z_leaf.max()) > bound + BOUND_TOL:
        raise AssertionError(
            f"bound violated: max Z_delta {z_leaf.max()!r} exceeds 1/Delta0 {bound!r}"
        )
    e_z = float(p @ z_leaf)
    if abs(e_z - 1.0) > NORMALIZATION_TOL:
        raise AssertionError(f"normalization failed: E[Z_delta] = {e_z!r}")
    return q_delta, e_q_delta, z_leaf, delta0, bound, float(p @ np.abs(z_leaf - 1.0))


def construct_q_delta(tree: EventTree, q, delta: float) -> DeltaMeasure:
    """Cap-and-normalize a terminal density: Z_delta = (q/(delta+q)) / E[...]."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    p, q = _leaf_density(tree, q)
    q_delta, e_q_delta, z_leaf, delta0, bound, l1 = _leaf_fields(p, q, delta)
    density = density_from_leaf_values(tree, z_leaf)
    return DeltaMeasure(float(delta), q, q_delta, z_leaf, density, e_q_delta, delta0, bound, l1)


def delta_for_epsilon(tree: EventTree, q, eps: float) -> DeltaMeasure:
    """Largest delta (to relative resolution 1e-12) with E|Z_delta - 1| <= eps.

    Walks the decreasing grid delta_k = 2^-k until the constraint first
    holds, then bisects inside that bracket.  Existence is guaranteed for
    strictly positive q: the l1 distance vanishes as delta -> 0.  Candidates
    are checked on their leaves; only the result gets a density process.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    p, leaf_q = _leaf_density(tree, q)

    def feasible(delta):
        return _leaf_fields(p, leaf_q, delta)[-1] <= eps

    if feasible(DELTA_MAX):
        return construct_q_delta(tree, q, DELTA_MAX)
    hi = DELTA_MAX  # known infeasible side of the bracket
    lo = None
    delta = 0.5
    for _ in range(200):
        if feasible(delta):
            lo = delta
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
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return construct_q_delta(tree, q, lo)


def verify_value_bound(
    m: MarketModel,
    dm: DeltaMeasure,
    utility=None,
    x0: float = 1.0,
) -> dict:
    """Check the viability value bound under the capped measure.

    Requires the underlying q to be the terminal restriction of a
    martingale density for the market (price residual within
    ``price_residual_tol``); with q > 0 that density certifies the market
    arbitrage-free.  ``maximize_utility`` solves under Z_delta, deciding
    by the model's kept ``check_na`` sweep; should that sweep find
    arbitrage all the same, ``ArbitrageError`` carries its certificate.
    The optimal value must stay below U(x0 / (delta * E[q_delta])) plus
    ``utility.VIABILITY_TOL``.
    """
    from .utility import VIABILITY_TOL, log_utility, maximize_utility

    utility = utility or log_utility()
    base = density_from_leaf_values(m.tree, dm.q)
    resid = price_martingale_residual(m, base)
    if resid > price_residual_tol(m):
        raise ValueError(
            f"q is not a martingale-density transform of this market "
            f"(price residual {resid!r})"
        )
    res = maximize_utility(m, utility, x0, dm.density)
    if res.status != "ok":
        raise ArbitrageError("market admits arbitrage although q passed its price "
                             "residual check", certificate=res.certificate)
    cap = x0 / (dm.delta * dm.e_q_delta)
    bound = float(utility.value(cap))
    return {
        "passed": bool(res.value <= bound + VIABILITY_TOL),
        "value": res.value,
        "bound": bound,
        "wealth_cap": cap,
        "delta": dm.delta,
        "e_q_delta": dm.e_q_delta,
        "q_residual": resid,
        "tol": VIABILITY_TOL,
    }
