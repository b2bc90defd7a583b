"""Level-wise ``WealthKernel`` sums against the per-node loops they replaced.

``density_from_leaf_values``, ``price_martingale_residual`` and
``DensityProcess.martingale_residual`` now sum sibling groups with
``reduceat`` instead of a Python loop per node.  The order of additions
may differ from the loops' BLAS dot products, so they are held to the loops
(``tests/loop_oracle.py``) within 4 ulp of max(1, max|S|) (of max(1, max z)
for densities).  ``delta_for_epsilon`` searches on leaf values by regula
falsi and builds one density, for the delta it returns.  It lands within a
few resolution steps of the old bisection, which built a density per
candidate, and every field of its result is bitwise ``construct_q_delta``'s
at that delta.
"""

import numpy as np
import pytest

import loop_oracle as oracle
import viatree.measure_change
from viatree import MarketModel, density_from_leaf_values, price_martingale_residual
from viatree.generators import (
    random_market,
    random_martingale_density,
    random_na_market,
    random_tree,
)
from viatree.measure_change import REL_RESOLUTION, construct_q_delta, delta_for_epsilon

ULPS = 4


def _markets(n=200, seed=0):
    rng = np.random.default_rng(seed)
    for i in range(n):
        maker = random_market if i % 2 == 0 else random_na_market
        m = maker(rng, d=int(rng.integers(1, 4)), depth_range=(1, 5), branch_range=(2, 4))
        yield m, random_martingale_density(m.tree, rng), rng


@pytest.mark.parametrize("unit", (1.0, 1e6, 1e-9))
def test_price_martingale_residual_matches_the_loop(unit):
    for base, dp, _ in _markets():
        m = MarketModel(base.tree, unit * base.prices)
        new, old = price_martingale_residual(m, dp), oracle.price_martingale_residual(m, dp)
        assert abs(new - old) <= ULPS * np.spacing(max(1.0, float(np.max(np.abs(m.prices)))))


def test_martingale_residual_matches_the_loop():
    for m, dp, rng in _markets():
        t = m.tree
        # a density that is not a martingale, so the residual is not just dust
        drift = type(dp)(np.concatenate([[1.0], dp.z[1:] * rng.uniform(0.9, 1.1, t.n_nodes - 1)]))
        for z in (dp, drift):
            new, old = z.martingale_residual(t), oracle.martingale_residual(z, t)
            assert abs(new - old) <= ULPS * np.spacing(max(1.0, float(z.z.max())))


def test_density_from_leaf_values_matches_the_loop():
    for m, _, rng in _markets():
        t = m.tree
        leaf = rng.uniform(0.1, 3.0, t.leaves.size)
        leaf /= t.unconditional_probs()[t.leaves] @ leaf
        new, old = density_from_leaf_values(t, leaf).z, oracle.density_from_leaf_values(t, leaf)
        old[0] = 1.0  # the mean-one gate sets the root exactly
        assert np.array_equal(new[t.leaves], leaf)
        assert np.max(np.abs(new - old)) <= ULPS * np.spacing(max(1.0, float(old.max())))


def _fields_equal(new, old):
    for name in old.__dataclass_fields__:
        a, b = getattr(new, name), getattr(old, name)
        if name == "density":
            a, b = a.z, b.z
        assert type(a) is type(b), name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("depth", (6, 7))
@pytest.mark.parametrize("seed", range(4))
def test_delta_for_epsilon_matches_the_bisection(depth, seed):
    rng = np.random.default_rng(seed)
    t = random_tree(rng, depth_range=(depth, depth), branch_range=(2, 3))
    q = random_martingale_density(t, rng).z[t.leaves]
    for eps in (2.0, 0.5, 0.1, 0.01):  # 2.0: DELTA_MAX already fits
        dm, old = delta_for_epsilon(t, q, eps), oracle.delta_for_epsilon(t, q, eps)
        assert abs(dm.delta - old.delta) <= 4 * REL_RESOLUTION * old.delta
        assert dm.l1_dist <= eps
        _fields_equal(dm, construct_q_delta(t, q, dm.delta))


def test_delta_for_epsilon_builds_one_density(monkeypatch):
    calls = []

    def counting(tree, leaf_z):
        calls.append(1)
        return density_from_leaf_values(tree, leaf_z)

    monkeypatch.setattr(viatree.measure_change, "density_from_leaf_values", counting)
    rng = np.random.default_rng(3)
    t = random_tree(rng, depth_range=(4, 4), branch_range=(2, 3))
    q = random_martingale_density(t, rng).z[t.leaves]
    dm = delta_for_epsilon(t, q, 0.1)
    assert calls == [1] and 0.0 < dm.delta < 1.0 and dm.l1_dist <= 0.1


def test_delta_for_epsilon_checks_q_first():
    t = random_tree(np.random.default_rng(1), depth_range=(2, 2), branch_range=(2, 2))
    with pytest.raises(ValueError, match="one q value per leaf"):
        delta_for_epsilon(t, np.ones(3), 0.1)
    with pytest.raises(ValueError, match="mean 1"):
        delta_for_epsilon(t, np.full(t.leaves.size, 2.0), 0.1)
    with pytest.raises(ValueError, match="eps must be positive"):
        delta_for_epsilon(t, np.full(t.leaves.size, 2.0), 0.0)
