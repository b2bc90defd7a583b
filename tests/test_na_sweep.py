"""The no-arbitrage sweep against the per-node loop it replaced.

``tests/na_oracle.py`` keeps that loop: raw price units, the ambiguity-band
re-solve and one ``lstsq`` projection per node.  The sweep builds its LPs
on scale-free coordinates, so it is held to the oracle within tolerances,
and only where the oracle's own certificate is sound by criterion 2's
bounds times the market's max |S| (NA: price residual <= 1e-9 and z > 0;
ARBITRAGE: min gain >= -1e-12 and max gain > 1e-9): the same verdict, and
on NA the same one-step weights within 1e-12 and the same density within
1e-12 relative.  Every certificate the sweep returns must be sound by the
same bounds.  One-asset nodes are their own basis: a d = 1 sweep runs
with an ``np.linalg.svd`` that raises and still matches the oracle, fail
node included.  One-asset markets are also held to ``tests/sign_oracle.py``,
which decides each node by the exact signs of its increments.
"""

import numpy as np
import pytest

import na_oracle
from sign_oracle import sign_verdict
from test_arbitrage import sweeps  # the fixture counting sweep runs
import viatree
from viatree import EventTree, MarketModel, check_na
from viatree.arbitrage import EPS_POSITIVE_TOL, _node_lps
from viatree.cli import main
from viatree.generators import random_market, random_na_market, random_tree
from viatree.markets import price_residual_tol

TOL = 1e-12  # one-step weights, and density relative, against the oracle


def is_sound(cert, m):
    scale = float(np.abs(m.prices).max())
    if cert.verdict == "NA":
        return cert.emm_residual <= 1e-9 * scale and cert.density.z.min() > 0.0
    return cert.replay["min_gain"] >= -1e-12 * scale and cert.replay["max_gain"] > 1e-9 * scale


def step_weights(cert, t):
    kids = np.arange(1, t.n_nodes)
    return cert.density.z[kids] / cert.density.z[t.parent[kids]] * t.branch_prob[kids]


def compare_with_oracle(cert, m):
    """Assert that ``cert`` is sound and, where the oracle's certificate is
    sound too, that it agrees with the oracle; return whether it was."""
    assert is_sound(cert, m)
    want = na_oracle.check_na(m)
    if not is_sound(want, m):
        return False
    assert cert.verdict == want.verdict
    if cert.verdict == "NA":
        assert np.abs(step_weights(cert, m.tree) - step_weights(want, m.tree)).max() <= TOL
        assert np.allclose(cert.density.z, want.density.z, rtol=TOL, atol=0.0)
    return True


def deep_market(rng, d, depth=7, share3=0.4):
    """A leveled tree with round(n * share3) three-way nodes per level and
    arbitrage-free prices (parents are interior averages of children)."""
    parent, prob, frontier = [None], [1.0], [0]
    for _ in range(depth):
        kids = np.full(len(frontier), 2)
        kids[rng.permutation(len(frontier))[: int(round(len(frontier) * share3))]] = 3
        nxt = []
        for v, k in zip(frontier, kids):
            w = 0.8 * rng.dirichlet(np.ones(k)) + 0.2 / k
            for j in range(k):
                parent.append(v)
                prob.append(float(w[j]))
                nxt.append(len(parent) - 1)
        frontier = nxt
    t = EventTree(parent, prob)
    prices = np.empty((t.n_nodes, d))
    prices[t.leaves] = rng.uniform(0.1, 10.0, size=(t.leaves.size, d))
    for v in t.internal[::-1]:
        k = t.children[v].size
        prices[v] = (0.8 * rng.dirichlet(np.ones(k)) + 0.2 / k) @ prices[t.children[v]]
    return MarketModel(tree=t, prices=prices)


def shift_subtrees(m, v, shifts):
    """Add shifts[j] to the prices of the whole subtree of v's j-th child:
    only the increments out of v change."""
    t = m.tree
    top = {int(c): shift for c, shift in zip(t.children[v], shifts)}
    for u in range(t.n_nodes):
        c = u
        while c > 0 and c not in top:
            c = int(t.parent[c])
        if c in top:
            m.prices[u] += top[c]


def random_case(seed):
    rng = np.random.default_rng(seed)
    maker = random_market if seed % 2 else random_na_market
    return maker(rng, d=1 + seed % 3, depth_range=(2, 4))


@pytest.mark.parametrize("block", range(6))
def test_random_markets_match_oracle(block):
    """300 markets x 3 price units."""
    compared = 0
    for seed in range(50 * block, 50 * block + 50):
        m = random_case(seed)
        for unit in (1.0, 1e6, 1e-9):
            mu = MarketModel(m.tree, m.prices * unit)
            compared += compare_with_oracle(check_na(mu), mu)
    assert compared >= 120  # the oracle is sound on most of the 150 cases


@pytest.mark.parametrize("d", [1, 2, 3])
def test_deep_markets_match_oracle(d):
    m = deep_market(np.random.default_rng(40 + d), d)
    assert m.tree.internal.size == 287
    cert = check_na(m)
    assert cert.verdict == "NA"
    assert compare_with_oracle(cert, m)


def test_failing_node_in_stacked_level_ends_the_sweep():
    m = deep_market(np.random.default_rng(3), 2, depth=5)
    t = m.tree
    # lift every child of one depth-3 node above it: buy-and-hold arbitrage
    bad = int(t.level_offsets[3]) + 5
    m.prices[t.children[bad]] = m.prices[bad] + np.arange(1.0, t.children[bad].size + 1)[:, None]
    cert = check_na(m)
    assert cert.verdict == "ARBITRAGE" and cert.fail_node == bad
    assert list(cert.node_eps) == list(range(bad + 1))
    assert compare_with_oracle(cert, m)


def test_shallowest_failing_node_names_the_certificate():
    # one depth-1 and one depth-3 node fail; every node is decided, and the
    # depth-1 node, first breadth-first, names the certificate
    base = deep_market(np.random.default_rng(6), 2, depth=5)
    t = base.tree
    shallow, deep = int(t.level_offsets[1]) + 1, int(t.level_offsets[3]) + 4
    markets = {}
    for bad in [(deep,), (shallow, deep)]:
        m = MarketModel(t, base.prices.copy())
        for v in bad:
            lift = m.prices[v] - m.prices[t.children[v]] + np.arange(1.0, t.children[v].size + 1)[:, None]
            shift_subtrees(m, v, lift)
        markets[bad] = m
    assert check_na(markets[(deep,)]).fail_node == deep
    m = markets[(shallow, deep)]
    cert = check_na(m)
    assert cert.verdict == "ARBITRAGE" and cert.fail_node == shallow
    assert list(cert.node_eps) == list(range(shallow + 1))
    assert compare_with_oracle(cert, m)


def test_degenerate_node_in_stacked_level():
    m = deep_market(np.random.default_rng(4), 2, depth=5)
    t = m.tree
    flat = int(t.level_offsets[3]) + 2
    # shift each child's subtree so the child's price equals its parent's:
    # no increments out of ``flat``, the same increments everywhere else
    shift_subtrees(m, flat, m.prices[flat] - m.prices[t.children[flat]])
    cert = check_na(m)
    assert cert.verdict == "NA"
    assert cert.node_eps[flat] == float(t.branch_prob[t.children[flat]].min())
    assert compare_with_oracle(cert, m)


# ---------------------- the LP runs only where no closed form decides a node


@pytest.mark.parametrize("seed", range(5))
def test_unique_weights_take_no_lp(seed, lp_stacks):
    # two assets, two or three branches: every node's increments have rank
    # k - 1, so its weights solve one square system
    m = random_na_market(np.random.default_rng(seed), d=2, depth_range=(3, 5),
                         branch_range=(2, 3))
    assert check_na(m).verdict == "NA"
    assert lp_stacks == []


def test_three_branches_of_one_asset_take_no_lp(lp_stacks):
    # one asset, three branches: rank 1, decided by the vertex formula
    m = random_na_market(np.random.default_rng(2), d=1, depth_range=(3, 3),
                         branch_range=(3, 3))
    cert = check_na(m)
    assert cert.verdict == "NA"
    assert lp_stacks == []
    assert compare_with_oracle(cert, m)


def test_lp_weights_glue_as_they_are(lp_stacks):
    # four to six branches of two or three assets: most nodes have rank 2
    # to k - 2, and their LP weights go into the density unprojected
    for seed in range(100):
        m = random_na_market(np.random.default_rng(seed), d=2 + seed % 2,
                             depth_range=(1, 3), branch_range=(4, 6))
        for unit in (1.0, 1e6, 1e-6):
            mu = MarketModel(m.tree, m.prices * unit)
            cert = check_na(mu)
            assert cert.verdict == "NA"
            assert cert.emm_residual <= 1e-14 * np.abs(mu.prices).max()
    assert lp_stacks


def lifted_deep_market():
    """A two-asset deep market whose only arbitrage is at one depth-3 node."""
    m = deep_market(np.random.default_rng(3), 2, depth=5)
    t = m.tree
    v = int(t.level_offsets[3]) + 5
    lift = m.prices[v] - m.prices[t.children[v]] + np.arange(1.0, t.children[v].size + 1)[:, None]
    shift_subtrees(m, v, lift)
    return m


@pytest.mark.parametrize("make", [lambda: viatree.load_fixture("arbitrage"), lifted_deep_market])
def test_arbitrage_node_takes_no_lp(make, lp_stacks):
    # the failing node is decided in closed form (the fixture's two
    # branches have rank k - 1, the lifted node's three rank 1), and the
    # replay gate accepts its ray
    m = make()
    cert = check_na(m)
    assert cert.verdict == "ARBITRAGE"
    assert lp_stacks == []
    assert compare_with_oracle(cert, m)


# ------------------------------------------- one-asset nodes take no SVD


class _Through:
    """A module seen through some replaced attributes."""

    def __init__(self, module, **replaced):
        self.__dict__.update(replaced, _module=module)

    def __getattr__(self, name):
        return getattr(self._module, name)


@pytest.fixture
def no_svd(monkeypatch):
    """``viatree.arbitrage`` sees an ``np.linalg.svd`` that raises."""

    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(viatree.arbitrage, "np", _Through(np, linalg=_Through(np.linalg, svd=svd)))


def test_no_svd_fixture_reaches_multi_asset_nodes(no_svd):
    with pytest.raises(AssertionError, match="svd called"):
        check_na(random_na_market(np.random.default_rng(0), d=2))


@pytest.mark.parametrize("maker", [random_market, random_na_market])
def test_one_asset_sweep_takes_no_svd(maker, no_svd):
    """60 seeds x 3 price units, depth 1-5, 2-4 branches."""
    compared = 0
    for seed in range(60):
        m = maker(np.random.default_rng(seed), d=1, depth_range=(1, 5), branch_range=(2, 4))
        for unit in (1.0, 1e6, 1e-6):
            mu = MarketModel(m.tree, m.prices * unit)
            cert = check_na(mu)
            if compare_with_oracle(cert, mu):
                compared += 1
                assert cert.fail_node == na_oracle.check_na(mu).fail_node
    assert compared >= 150


@pytest.mark.parametrize("inc", [
    [[1.0], [0.0], [-0.5]],
    [[0.0], [2.0], [0.0], [-1.0]],
    [[0.0], [0.0], [3.0]],  # one-sided: fails at eps* 0
    [[1.0, 2.0], [0.0, 0.0], [-0.5, -1.0]],
    [[0.0, 0.0], [-3.0, 1.5], [0.0, 0.0], [1.0, -0.5]],
])
def test_rank_one_zero_increments_take_the_vertex_formula(inc, lp_stacks):
    inc = np.array(inc)
    k, d = inc.shape
    bp = np.full(k, 1.0 / k)
    eps, q, h, lp = _node_lps(inc[None], bp[None], np.ones((1, d)))
    assert not lp[0] and lp_stacks == []
    want = na_oracle.node_na_lp(inc, bp)
    assert eps[0] == pytest.approx(want.eps_star, abs=1e-12)
    if want.is_na:
        assert np.abs(q[0] - want.q).max() <= 1e-12
    else:
        gains = inc @ h[0]
        assert np.isnan(q[0]).all() and gains.min() >= 0.0 and gains.max() > 0.0


# ----------------- one-asset nodes are decided by their increments' signs


def dyadic_market(rng, depth, na):
    """A one-asset market on a random tree, root price 8, whose increments
    are 0, +-1/2, +-1 or +-2**-40, so every price is exact.  Each node's
    increments are all 0, or mixed with one of size 2**-40 against one of
    size 1 (eps* below 1e-12, under EPS_POSITIVE_TOL), or, unless ``na``,
    drawn freely.  A node's largest |increment| is 0 or at least 1/2, so no
    node meets the degenerate gate."""
    t = random_tree(rng, (depth, depth), (2, 4))
    steps = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0**-40, -(2.0**-40)])
    prices = np.full((t.n_nodes, 1), 8.0)
    for v, kids in enumerate(t.children):
        if not kids.size:
            continue
        kind = int(rng.integers(1 if na else 0, 3))
        if kind == 0:  # free, with one increment of size 1/2 or 1
            inc = rng.choice(steps, size=kids.size)
            inc[0] = rng.choice(steps[1:5])
        elif kind == 1:  # one-signed but for one marginal increment
            s = rng.choice([-1.0, 1.0])
            inc = s * np.abs(rng.choice(steps[:5], size=kids.size))
            inc[:2] = s, -s * 2.0**-40
            inc = rng.permutation(inc)
        else:
            inc = np.zeros(kids.size)
        prices[kids, 0] = prices[v, 0] + inc
    return MarketModel(t, prices)


@pytest.mark.parametrize("maker", [random_market, random_na_market])
def test_one_asset_verdicts_are_exact(maker, lp_stacks):
    """200 seeds, depth 1-5, 2-4 branches: check_na's verdict and fail node
    are those of the increments' exact signs, and no node runs an LP."""
    for seed in range(200):
        m = maker(np.random.default_rng(seed), d=1, depth_range=(1, 5), branch_range=(2, 4))
        cert = check_na(m)
        assert (cert.verdict, cert.fail_node) == sign_verdict(m)
    assert lp_stacks == []


@pytest.mark.parametrize("na", [True, False])
def test_dyadic_markets_are_exact(na, lp_stacks):
    n_marginal = n_arbitrage = 0
    for seed in range(150):
        m = dyadic_market(np.random.default_rng(seed), 1 + seed % 4, na)
        cert = check_na(m)
        assert (cert.verdict, cert.fail_node) == sign_verdict(m)
        if cert.verdict == "NA":
            assert cert.emm_residual <= price_residual_tol(m)
            assert cert.density.z.min() > 0.0
            eps = np.array(list(cert.node_eps.values()))
            n_marginal += int(((eps > 0.0) & (eps <= EPS_POSITIVE_TOL)).sum())
        else:
            assert cert.replay["min_gain"] >= 0.0
            n_arbitrage += 1
    assert lp_stacks == []
    assert n_marginal >= 50 and (n_arbitrage == 0) == na


@pytest.mark.parametrize("inc, verdict", [
    ([1.0, -(2.0**-40)], "NA"),
    ([0.0, 1.0, -(2.0**-40), 0.0], "NA"),
    ([-1.0, 2.0**-40, 2.0**-40], "NA"),
    ([1.0, 0.0], "ARBITRAGE"),
    ([0.0, -(2.0**-40), 0.0], "ARBITRAGE"),
    ([-0.5, -1.0, 0.0], "ARBITRAGE"),
])
def test_one_period_signs_decide(inc, verdict, lp_stacks):
    # the root is priced 0, so every nonzero increment is above the
    # degenerate gate; each arbitrage has a zero increment, its least gain
    m = MarketModel(EventTree([None] + [0] * len(inc), [1.0] + [1.0 / len(inc)] * len(inc)),
                    np.array([0.0, *inc])[:, None])
    cert = check_na(m)
    assert (cert.verdict, cert.fail_node) == sign_verdict(m)
    assert cert.verdict == verdict and lp_stacks == []
    if verdict == "NA":
        assert 0.0 < cert.node_eps[0] <= 1.0 / len(inc)
        assert cert.emm_residual <= price_residual_tol(m)
    else:
        assert cert.replay["min_gain"] == 0.0
        assert cert.replay["max_gain"] == max(np.abs(inc))


def test_one_signed_node_below_the_degenerate_gate_stays_na():
    # the one exception to the exact rule: increments of 2**-40 (9.1e-13)
    # at a price of 1 are not above 1e-12 times it, so the node keeps its
    # branch probabilities
    m = MarketModel(EventTree([None, 0, 0], [1.0, 0.5, 0.5]),
                    np.array([[1.0], [1.0 + 2.0**-40], [1.0]]))
    assert sign_verdict(m) == ("ARBITRAGE", 0)
    cert = check_na(m)
    assert cert.verdict == "NA" and cert.node_eps[0] == 0.5


# ---------------------------------------------- one sweep per public call


def test_viability_sweeps_once(sweeps):
    m = random_na_market(np.random.default_rng(1), d=2)
    assert viatree.viability_under_measure(m)["viable"]
    assert len(sweeps) == 1


def test_exp_utility_sweeps_once(sweeps):
    m = viatree.load_fixture("trinomial")
    viatree.exp_utility(m)
    assert len(sweeps) == 1


def test_cli_check_sweeps_once(sweeps, tmp_path, capsys):
    path = tmp_path / "m.json"
    viatree.save_market(viatree.load_fixture("two_period"), str(path))
    assert main(["check", "--market", str(path)]) == 0
    assert len(sweeps) == 1


@pytest.mark.parametrize("argv", [
    ["measure", "--epsilon", "0.1"],
    ["optimize", "--measure", "emm"],
    ["optimize", "--utility", "crra:2", "--measure", "emm"],
])
def test_cli_measure_commands_sweep_once(argv, sweeps, tmp_path, capsys):
    path = tmp_path / "m.json"
    viatree.save_market(viatree.load_fixture("two_period"), str(path))
    assert main([argv[0], "--market", str(path), *argv[1:]]) == 0
    assert len(sweeps) == 1
