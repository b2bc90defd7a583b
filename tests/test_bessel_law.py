"""The law of the radial Bessel(3) sampler against independent references.

``simulate_bes3`` steps S by its exact radial transition, one normal and
one exponential per step.  Its per-path statistics must have the law of
the three-normal construction S = |(1, 0, 0) + W|
(``bessel_oracle.norm_paths``), and S_1^2 must be noncentral chi-square
with three degrees of freedom and noncentrality 1.  The seeds were fixed
before the first run; a failure here is a question about the law, not
about the seed.
"""

import pytest

import bessel_oracle as oracle
from viatree.bessel import simulate_bes3

stats = pytest.importorskip("scipy.stats")

N_PATHS, N_STEPS = 20_000, 200
LEVELS = [2, 4]
ALPHA = 0.01


@pytest.fixture(scope="module")
def samples():
    radial = simulate_bes3(N_PATHS, N_STEPS, seed=11, levels=LEVELS)
    ref = oracle.statistics(oracle.norm_paths(N_PATHS, N_STEPS, seed=7001), LEVELS)
    return radial, ref


@pytest.mark.parametrize("field, row", [
    ("terminal", None),
    ("integral", None),
    ("lows", 0),
    ("highs", -1),
    ("stop_values", 0),  # level 2
    ("stop_values", 1),  # level 4
])
def test_statistic_has_the_three_normal_law(samples, field, row):
    radial, ref = samples
    x, y = getattr(radial, field), ref[field]
    if row is not None:
        x, y = x[row], y[row]
    assert stats.ks_2samp(x, y).pvalue > ALPHA


def test_terminal_square_is_noncentral_chi_square():
    s1 = simulate_bes3(N_PATHS, 1000, seed=1000).terminal
    assert stats.kstest(s1 ** 2, stats.ncx2(3, 1).cdf).pvalue > ALPHA

