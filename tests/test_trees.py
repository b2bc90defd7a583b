"""Tree construction, validation, stopping times, conditional expectations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viatree import (
    EventTree,
    MarketModel,
    StoppingTime,
    check_na,
    crra_utility,
    exp_utility,
    maximize_utility,
    numeraire_portfolio,
)
from viatree.generators import random_tree
from viatree.trees import crossed_by, cuts_nested


def build_two_period():
    # binary-binary: 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5, 6}
    parent = [None, 0, 0, 1, 1, 2, 2]
    bp = [1.0, 0.4, 0.6, 0.5, 0.5, 0.25, 0.75]
    return EventTree(parent, bp)


class TestConstruction:
    def test_one_period_binary(self, one_period_binary_tree):
        t = one_period_binary_tree
        assert t.n_nodes == 3
        assert t.horizon == 1
        assert list(t.leaves) == [1, 2]
        assert list(t.internal) == [0]
        assert list(t.children[0]) == [1, 2]

    def test_two_period_shape(self):
        t = build_two_period()
        assert t.horizon == 2
        assert list(t.leaves) == [3, 4, 5, 6]
        assert list(t.internal) == [0, 1, 2]
        assert t.level_offsets.tolist() == [0, 1, 3, 7]

    def test_unconditional_probs(self):
        t = build_two_period()
        p = t.unconditional_probs()
        expected = [1.0, 0.4, 0.6, 0.2, 0.2, 0.15, 0.45]
        assert np.allclose(p, expected, atol=1e-15)
        assert abs(p[t.leaves].sum() - 1.0) < 1e-12

    def test_root_only_tree(self):
        t = EventTree([None], [1.0])
        assert t.horizon == 0
        assert list(t.leaves) == [0]
        assert t.internal.size == 0

    def test_parent_minus_one_alias(self):
        t = EventTree([-1, 0, 0], [1.0, 0.5, 0.5])
        assert t.n_nodes == 3


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least a root"):
            EventTree([], [])

    def test_root_must_be_parentless(self):
        with pytest.raises(ValueError, match="root"):
            EventTree([0, 0, 0], [1.0, 0.5, 0.5])

    def test_second_root_rejected(self):
        with pytest.raises(ValueError, match="parentless"):
            EventTree([None, None, 0], [1.0, 0.5, 0.5])

    def test_forward_parent_rejected(self):
        with pytest.raises(ValueError, match="precede"):
            EventTree([None, 2, 0], [1.0, 0.5, 0.5])

    def test_level_grouping_enforced(self):
        # node 3 (depth 2) listed before node 4 (depth 1)
        with pytest.raises(ValueError, match="depth|breadth"):
            EventTree([None, 0, 1, 1, 0], [1.0, 1.0, 0.5, 0.5, 1.0])

    def test_prob_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            EventTree([None, 0, 0], [1.0, 0.5, 0.6])

    def test_prob_range_enforced(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            EventTree([None, 0, 0], [1.0, 1.2, -0.2])
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            EventTree([None, 0, 0], [1.0, 0.0, 1.0])

    def test_root_prob_must_be_one(self):
        with pytest.raises(ValueError, match="root branch probability"):
            EventTree([None, 0, 0], [0.9, 0.5, 0.5])

    def test_nan_prob_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            EventTree([None, 0, 0], [1.0, np.nan, 0.5])

    def test_unleveled_rejected(self):
        # leaf 2 at depth 1, leaves 3/4 at depth 2
        with pytest.raises(ValueError, match="leveled"):
            EventTree([None, 0, 0, 1, 1], [1.0, 0.5, 0.5, 0.5, 0.5])

    def test_prob_sum_tolerance_is_tight(self):
        # off by 1e-10 must fail, off by < 1e-12 must pass
        with pytest.raises(ValueError, match="sum"):
            EventTree([None, 0, 0], [1.0, 0.5, 0.5 + 1e-10])
        EventTree([None, 0, 0], [1.0, 0.5, 0.5 + 1e-13])


class TestStoppingTimes:
    def test_terminal_cut(self):
        t = build_two_period()
        cut = StoppingTime.terminal(t)
        assert sorted(cut.nodes) == [3, 4, 5, 6]

    def test_level_one_cut(self):
        t = build_two_period()
        cut = StoppingTime.of(t, [1, 2])
        assert cut.nodes == (1, 2)

    def test_mixed_depth_cut(self):
        t = build_two_period()
        cut = StoppingTime.of(t, [1, 5, 6])
        assert cut.nodes == (1, 5, 6)

    def test_root_cut(self):
        t = build_two_period()
        assert StoppingTime.of(t, [0]).nodes == (0,)

    def test_ancestor_pair_rejected(self):
        t = build_two_period()
        with pytest.raises(ValueError, match="antichain"):
            StoppingTime.of(t, [1, 3, 4, 2, 5])

    def test_uncovered_leaf_rejected(self):
        t = build_two_period()
        with pytest.raises(ValueError, match="antichain"):
            StoppingTime.of(t, [1, 5])

    def test_duplicate_rejected(self):
        t = build_two_period()
        with pytest.raises(ValueError, match="duplicate"):
            StoppingTime.of(t, [1, 1, 2])

    def test_unknown_node_rejected(self):
        t = build_two_period()
        with pytest.raises(ValueError, match="unknown"):
            StoppingTime.of(t, [1, 99])

    def test_crossed_by(self):
        t = build_two_period()
        cut = StoppingTime.of(t, [1, 5, 6])
        crossed = crossed_by(t, cut)
        assert list(np.nonzero(crossed)[0]) == [1, 3, 4, 5, 6]

    def test_cuts_nested(self):
        t = build_two_period()
        early = StoppingTime.of(t, [1, 2])
        late = StoppingTime.terminal(t)
        mixed = StoppingTime.of(t, [1, 5, 6])
        assert cuts_nested(t, early, late)
        assert cuts_nested(t, early, mixed)
        assert cuts_nested(t, mixed, late)
        assert not cuts_nested(t, late, early)
        assert cuts_nested(t, early, early)


class TestConditionalExpectation:
    """Leaf values conditioned by ``backward`` under the branch probabilities."""

    @staticmethod
    def expect(t):
        z = np.zeros(t.n_nodes)
        z[[3, 4, 5, 6]] = [1.0, 2.0, 3.0, 4.0]
        return t.backward(t.branch_prob[t.edges], z)

    def test_to_root(self):
        # E = 0.4*(0.5*1 + 0.5*2) + 0.6*(0.25*3 + 0.75*4)
        assert self.expect(build_two_period())[0] == pytest.approx(2.85, abs=1e-15)

    def test_to_node(self):
        assert self.expect(build_two_period())[2] == pytest.approx(3.75, abs=1e-15)

    def test_to_cut(self):
        t = build_two_period()
        cut = StoppingTime.of(t, [1, 2])
        v = self.expect(t)
        assert {n: v[n] for n in cut.nodes} == pytest.approx({1: 1.5, 2: 3.75})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(1, 4))
def test_random_trees_are_consistent(seed, depth):
    rng = np.random.default_rng(seed)
    t = random_tree(rng, depth_range=(depth, depth), branch_range=(2, 4))
    assert t.horizon == depth
    p = t.unconditional_probs()
    assert abs(p[t.leaves].sum() - 1.0) < 1e-9
    assert np.all(p > 0.0)
    for v in t.internal:
        assert abs(t.branch_prob[t.children[v]].sum() - 1.0) < 1e-12
    # leaves and internal partition the node set
    assert sorted(list(t.leaves) + list(t.internal)) == list(range(t.n_nodes))


class TestSiblingOrder:
    """A tree whose siblings are not numbered contiguously: node 1 has
    children 3 and 5, node 2 has 4 and 6.  ``edges`` groups them by parent,
    and every result matches the same market numbered contiguously."""

    PARENT = [None, 0, 0, 1, 2, 1, 2]
    PROB = [1.0, 0.4, 0.6, 0.3, 0.55, 0.7, 0.45]
    ORDER = np.array([0, 1, 2, 3, 5, 4, 6])  # contiguous node j is node ORDER[j]

    def market(self, prices):
        return MarketModel(EventTree(self.PARENT, self.PROB), np.array(prices)[:, None])

    def relabelled(self, m):
        inv = np.argsort(self.ORDER)
        t = m.tree
        parent = [None] + [int(inv[t.parent[v]]) for v in self.ORDER[1:]]
        out = MarketModel(EventTree(parent, t.branch_prob[self.ORDER]), m.prices[self.ORDER])
        assert out.tree.parent.tolist() == [-1, 0, 0, 1, 1, 2, 2]
        return out

    def test_layout_invariants(self):
        t = EventTree(self.PARENT, self.PROB)
        assert t.edges.tolist() == [1, 2, 3, 5, 4, 6]
        assert t.edge_parent.tolist() == t.parent[t.edges].tolist()
        for i, v in enumerate(t.internal):
            e = t.edges[t.starts[i] : t.starts[i] + t.sizes[i]]
            assert e.tolist() == t.children[v].tolist()
        covered = []
        for depth, (lv, nv) in enumerate(zip(t.edge_levels, t.node_levels)):
            into = t.edges[lv]
            assert sorted(into.tolist()) == np.flatnonzero(t.depth == depth + 1).tolist()
            assert np.all(t.depth[t.internal[nv]] == depth)
            assert np.all(t.depth[t.edge_parent[lv]] == depth)
            covered += into.tolist()
        assert sorted(covered) == list(range(1, t.n_nodes))

    def test_arbitrage_free_results_match(self):
        m = self.market([1.0, 1.2, 0.9, 1.5, 1.1, 1.0, 0.7])
        c = self.relabelled(m)
        cert, ref = check_na(m), check_na(c)
        assert cert.verdict == ref.verdict == "NA"
        assert np.array_equal(cert.density.z[self.ORDER], ref.density.z)
        pairs = [
            (numeraire_portfolio(m).log_growth, numeraire_portfolio(c).log_growth),
            (maximize_utility(m, crra_utility(2.0)).value, maximize_utility(c, crra_utility(2.0)).value),
            (exp_utility(m).log_value, exp_utility(c).log_value),
        ]
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-12)

    def test_arbitrage_verdict_matches(self):
        # both children of node 2 lie above it: buy-and-hold arbitrage there
        m = self.market([1.0, 1.2, 0.9, 1.5, 1.1, 1.0, 1.3])
        c = self.relabelled(m)
        cert, ref = check_na(m), check_na(c)
        assert cert.verdict == ref.verdict == "ARBITRAGE"
        assert self.ORDER[ref.fail_node] == cert.fail_node == 2
        assert cert.replay == ref.replay
