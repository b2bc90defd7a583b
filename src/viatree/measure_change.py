"""Bounded equivalent measure changes built from a martingale density.

Given a terminal density q (positive leaf values with mean one), the
transform q_delta = q / (delta + q) caps the density pointwise: the
normalized Z_delta = q_delta / E[q_delta] is bounded by 1 / Delta0 where
Delta0 = E[q / (1 + q)], uniformly in delta in (0, 1).  Shrinking delta
pulls Z_delta toward the original measure; growing it flattens Z_delta
toward 1 while keeping the measure equivalent.  The l1 distance
E|Z_delta - 1| therefore climbs from 0 as delta grows, which is what the
regula falsi search in ``delta_for_epsilon`` exploits: bracketed by
delta = 0, where the distance is 0, and ``DELTA_MAX``, it closes in on the
budget's boundary in about a dozen evaluations of the leaf fields.

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


def _leaf_terms(tree: EventTree, q) -> tuple[np.ndarray, np.ndarray, float, float]:
    """What does not depend on delta: the leaf probabilities, the checked
    terminal density q, Delta0 = E[q / (1 + q)] and its bound 1 / Delta0."""
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
    delta0 = float(p @ (q / (1.0 + q)))
    return p, q, delta0, 1.0 / delta0


def _leaf_fields(p: np.ndarray, q: np.ndarray, bound: float, delta: float):
    """q_delta, E[q_delta], Z_delta and E|Z_delta - 1| on the leaves, with
    the bound and the normalization checked."""
    q_delta = q / (delta + q)
    e_q_delta = float(p @ q_delta)
    z_leaf = q_delta / e_q_delta
    if float(z_leaf.max()) > bound + BOUND_TOL:
        raise AssertionError(
            f"bound violated: max Z_delta {z_leaf.max()!r} exceeds 1/Delta0 {bound!r}"
        )
    e_z = float(p @ z_leaf)
    if abs(e_z - 1.0) > NORMALIZATION_TOL:
        raise AssertionError(f"normalization failed: E[Z_delta] = {e_z!r}")
    return q_delta, e_q_delta, z_leaf, float(p @ np.abs(z_leaf - 1.0))


def _measure(tree: EventTree, delta: float, q, fields, delta0, bound) -> DeltaMeasure:
    q_delta, e_q_delta, z_leaf, l1 = fields
    density = density_from_leaf_values(tree, z_leaf)
    return DeltaMeasure(float(delta), q, q_delta, z_leaf, density, e_q_delta, delta0, bound, l1)


def construct_q_delta(tree: EventTree, q, delta: float) -> DeltaMeasure:
    """Cap-and-normalize a terminal density: Z_delta = (q/(delta+q)) / E[...]."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    p, q, delta0, bound = _leaf_terms(tree, q)
    return _measure(tree, delta, q, _leaf_fields(p, q, bound, delta), delta0, bound)


def delta_for_epsilon(tree: EventTree, q, eps: float) -> DeltaMeasure:
    """Largest delta (to relative resolution 1e-12) with E|Z_delta - 1| <= eps.

    Finds the root of f(delta) = E|Z_delta - 1| - eps on (0, DELTA_MAX] by
    the Illinois variant of regula falsi.  The left end costs nothing:
    Z_0 = 1, so f(0) = -eps.  Each step evaluates the secant point of the
    bracket (its midpoint should rounding put the secant point outside),
    and after two steps in a row that move the same end it halves the
    other end's f, so both ends close in.  The search stops when
    (hi - lo) / lo <= ``REL_RESOLUTION`` and returns lo, the feasible end.
    Existence is guaranteed for strictly positive q: the l1 distance
    vanishes as delta -> 0.  q, Delta0 and its bound are computed once;
    every candidate is checked on its leaves, and only the result gets a
    density process.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    p, leaf_q, delta0, bound = _leaf_terms(tree, q)
    best = _leaf_fields(p, leaf_q, bound, DELTA_MAX)
    if best[-1] <= eps:
        return _measure(tree, DELTA_MAX, leaf_q, best, delta0, bound)
    lo, hi = 0.0, DELTA_MAX
    f_lo, f_hi = -eps, best[-1] - eps
    last = 0  # -1 after a step that moved lo, +1 after one that moved hi
    for _ in range(200):
        if hi - lo <= REL_RESOLUTION * lo:
            return _measure(tree, lo, leaf_q, best, delta0, bound)
        delta = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < delta < hi:
            delta = 0.5 * (lo + hi)
        fields = _leaf_fields(p, leaf_q, bound, delta)
        f = fields[-1] - eps
        if f <= 0.0:
            lo, f_lo, best = delta, f, fields
            if last == -1:
                f_hi *= 0.5
            last = -1
        else:
            hi, f_hi = delta, f
            if last == 1:
                f_lo *= 0.5
            last = 1
    raise AssertionError(
        "delta search did not converge; terminal density is not strictly positive?"
    )


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
