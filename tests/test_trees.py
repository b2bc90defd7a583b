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

import loop_oracle


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

    @pytest.mark.parametrize("p", [0.7, True, np.True_, 0.5 + 0j, "0"])
    def test_non_integer_parent_rejected(self, p):
        # int(p) used to truncate 0.7 to 0 and read True as 1
        with pytest.raises(ValueError, match=r"node 1: parent .* is not an integer"):
            EventTree([None, p, 0], [1.0, 0.5, 0.5])

    def test_integral_parent_accepted(self):
        t = EventTree([None, 0.0, np.int32(0)], [1.0, 0.5, 0.5])
        assert t.parent.tolist() == [-1, 0, 0]

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


def shuffled_tree(rng, depth, max_branches):
    """Parents and branch probabilities of a random leveled tree whose
    levels list their nodes with the parents shuffled, so siblings need not
    be adjacent.  Levels past 200 nodes give every node one child."""
    parent, prob, level = [None], [1.0], [0]
    for _ in range(depth):
        kids = []
        for v in level:
            k = 1 if len(level) > 200 else int(rng.integers(1, max_branches + 1))
            w = 0.8 * rng.dirichlet(np.ones(k)) + 0.2 / k
            kids += [(v, float(x)) for x in w]
        rng.shuffle(kids)
        level = list(range(len(parent), len(parent) + len(kids)))
        parent += [v for v, _ in kids]
        prob += [x for _, x in kids]
    return parent, prob


class TestLevelOffsets:
    """``EventTree`` finds depths from level offsets; the fixed-point loop it
    replaced (``loop_oracle.tree_layout``) must give the same layout and the
    same errors."""

    FIELDS = ("depth", "horizon", "level_offsets", "leaves", "internal", "edges",
              "edge_parent", "sizes", "starts", "edge_levels", "node_levels")

    def outcome(self, parent, prob):
        try:
            t = EventTree(parent, prob)
        except ValueError as e:
            new = str(e)
        else:
            new = {f: getattr(t, f) for f in self.FIELDS}
        try:
            old = loop_oracle.tree_layout(parent, prob)
        except ValueError as e:
            old = str(e)
        return new, old

    def assert_same(self, parent, prob):
        new, old = self.outcome(parent, prob)
        if isinstance(old, str):
            assert new == old
            return
        assert not isinstance(new, str), new
        for f in self.FIELDS:
            if isinstance(old[f], np.ndarray):
                assert new[f].dtype == old[f].dtype, f
                assert np.array_equal(new[f], old[f]), f
            else:
                assert new[f] == old[f], f

    @pytest.mark.parametrize("seed", range(40))
    def test_valid_trees_match_the_loop(self, seed):
        rng = np.random.default_rng([seed, 32])
        parent, prob = shuffled_tree(rng, depth=seed % 9, max_branches=1 + seed % 4)
        assert not isinstance(self.outcome(parent, prob)[0], str)
        self.assert_same(parent, prob)

    @pytest.mark.parametrize("parent, prob, message", [
        # a child before its parent
        ([None, 2, 0, 1], [1.0, 1.0, 1.0, 1.0], "parents must precede"),
        # depth-1 and depth-2 nodes interleaved
        ([None, 0, 1, 0, 2], [1.0, 0.5, 1.0, 0.5, 1.0], "grouped by depth"),
        # leaf 2 stops at depth 1 while 3 and 4 reach depth 2
        ([None, 0, 0, 1, 1], [1.0, 0.5, 0.5, 0.5, 0.5], "leveled"),
        # node 5 hangs off the root, two levels above its neighbours' parents
        ([None, 0, 0, 1, 2, 0], [1.0, 0.25, 0.5, 1.0, 1.0, 0.25], "grouped by depth"),
        ([None, 0, 0, 1, 2, 1, 0], [1.0, 0.25, 0.5, 0.5, 1.0, 0.5, 0.25], "grouped by depth"),
    ], ids=["child-first", "interleaved", "unleveled-leaf", "parent-two-up", "parent-two-up-mid"])
    def test_invalid_trees_raise_the_loops_error(self, parent, prob, message):
        new, old = self.outcome(parent, prob)
        assert isinstance(new, str) and message in new
        assert new == old

    @pytest.mark.parametrize("seed", range(20))
    def test_random_parent_arrays_match_the_loop(self, seed):
        # parents drawn below each node: mostly invalid trees, some valid
        rng = np.random.default_rng([seed, 33])
        for _ in range(50):
            n = int(rng.integers(1, 12))
            parent = [None] + [int(rng.integers(max(0, i - 4), i)) for i in range(1, n)]
            kids = np.bincount(parent[1:], minlength=n) if n > 1 else np.zeros(1, int)
            prob = [1.0] + [1.0 / kids[p] for p in parent[1:]]
            self.assert_same(parent, prob)
