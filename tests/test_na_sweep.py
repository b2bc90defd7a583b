"""The no-arbitrage sweep against the per-node loop it replaced.

``tests/na_oracle.py`` keeps that loop: raw price units, the ambiguity-band
re-solve and one ``lstsq`` projection per node.  The sweep builds its LPs
on scale-free coordinates, so it is held to the oracle within tolerances,
and only where the oracle's own certificate is sound by criterion 2's
bounds times the market's max |S| (NA: price residual <= 1e-9 and z > 0;
ARBITRAGE: min gain >= -1e-12 and max gain > 1e-9): the same verdict, and
on NA the same one-step weights within 1e-12 and the same density within
1e-12 relative.  Every certificate the sweep returns must be sound by the
same bounds.
"""

import numpy as np
import pytest

import na_oracle
from test_arbitrage import sweeps  # the fixture counting sweep runs
import viatree
from viatree import EventTree, MarketModel, check_na
from viatree.cli import main
from viatree.generators import random_market, random_na_market

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
