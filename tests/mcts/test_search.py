"""Tests for search primitives: select_leaf, expand, backup, priors.

The tree-building primitives run on the ``Node`` oracle, whose trees can
be built child by child; the parity suites hold the array tree's
primitives to it.  ``sample_action`` is the library's own."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import TicTacToe
from repro.mcts.evaluation import Evaluation, UniformEvaluator
from repro.mcts.search import sample_action
from repro.mcts.virtual_loss import ConstantVirtualLoss
from tests.mcts.node_oracle import (
    Node,
    action_prior_from_root,
    add_dirichlet_noise,
    backup,
    expand,
    select_leaf,
)


class TestSelectLeaf:
    def test_fresh_root_is_leaf(self):
        root = Node()
        leaf, game, depth = select_leaf(root, TicTacToe(), 5.0)
        assert leaf is root
        assert depth == 0

    def test_descends_expanded_tree(self):
        g = TicTacToe()
        root = Node()
        ev = UniformEvaluator().evaluate(g)
        expand(root, g, ev)
        leaf, game, depth = select_leaf(root, g.copy(), 5.0)
        assert depth == 1
        assert leaf.parent is root
        assert game.last_action == leaf.action

    def test_virtual_loss_applied_on_path(self):
        g = TicTacToe()
        root = Node()
        expand(root, g, UniformEvaluator().evaluate(g))
        vl = ConstantVirtualLoss(weight=1.0)
        leaf, _, _ = select_leaf(root, g.copy(), 5.0, vl)
        assert root.virtual_loss == 1.0
        assert leaf.virtual_loss == 1.0

    def test_marks_terminal(self):
        g = TicTacToe()
        for a in [0, 3, 1, 4]:
            g.step(a)
        # X to move; X plays 2 and wins -- force the tree down that line
        root = Node()
        expand(root, g, UniformEvaluator().evaluate(g))
        root.children[2].prior = 1.0  # bias selection to the winning move
        leaf, game, _ = select_leaf(root, g.copy(), 5.0)
        assert game.is_terminal
        assert leaf.is_terminal


class TestExpand:
    def test_creates_children_for_legal_moves(self):
        g = TicTacToe()
        g.step(4)
        root = Node()
        value = expand(root, g, UniformEvaluator().evaluate(g))
        assert len(root.children) == 8
        assert 4 not in root.children
        assert value == 0.0

    def test_priors_copied(self):
        g = TicTacToe()
        priors = np.zeros(9)
        priors[3] = 0.75
        priors[5] = 0.25
        ev = Evaluation(priors=priors, value=0.5)
        root = Node()
        expand(root, g, ev)
        assert root.children[3].prior == 0.75

    def test_double_expand_tolerated(self):
        g = TicTacToe()
        root = Node()
        ev = UniformEvaluator().evaluate(g)
        expand(root, g, ev)
        n_children = len(root.children)
        value = expand(root, g, Evaluation(priors=np.full(9, 1 / 9), value=0.7))
        assert len(root.children) == n_children  # no duplicates
        assert value == 0.7

    def test_terminal_returns_outcome(self):
        g = TicTacToe()
        for a in [0, 3, 1, 4, 2]:
            g.step(a)
        node = Node()
        value = expand(node, g, UniformEvaluator.__new__(UniformEvaluator))
        assert value == -1.0  # mover (O) lost
        assert node.is_terminal


class TestBackup:
    def test_alternating_signs(self):
        root = Node()
        a = root.add_child(0, 1.0)
        b = a.add_child(0, 1.0)
        backup(b, 1.0)  # mover at b expects to win
        # edge into b belongs to the opponent of b's mover: worth -1
        assert b.value_sum == -1.0
        assert a.value_sum == 1.0
        assert root.value_sum == -1.0

    def test_visit_counts_increment_whole_path(self):
        root = Node()
        a = root.add_child(0, 1.0)
        b = a.add_child(1, 1.0)
        backup(b, 0.5)
        assert root.visit_count == a.visit_count == b.visit_count == 1

    def test_virtual_loss_recovered(self):
        vl = ConstantVirtualLoss(weight=2.0)
        root = Node()
        a = root.add_child(0, 1.0)
        vl.on_descend(root)
        vl.on_descend(a)
        backup(a, 0.0, vl)
        assert root.virtual_loss == 0.0
        assert a.virtual_loss == 0.0

    @given(values=st.lists(st.floats(-1, 1), min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_value_sum_bounded_by_visits(self, values):
        """|W| <= N after any backup sequence (values are in [-1, 1])."""
        root = Node()
        leaf = root.add_child(0, 1.0)
        for v in values:
            backup(leaf, v)
        for node in (root, leaf):
            assert abs(node.value_sum) <= node.visit_count + 1e-9
        assert leaf.visit_count == len(values)


class TestActionPrior:
    def test_proportional_to_visits(self):
        root = Node()
        for action, visits in [(0, 6), (4, 3), (8, 1)]:
            c = root.add_child(action, 1 / 3)
            c.visit_count = visits
        prior = action_prior_from_root(root, 9)
        assert np.isclose(prior[0], 0.6)
        assert np.isclose(prior[4], 0.3)
        assert np.isclose(prior[8], 0.1)
        assert prior[1] == 0.0

    def test_no_visits_raises(self):
        root = Node()
        root.add_child(0, 1.0)
        with pytest.raises(ValueError):
            action_prior_from_root(root, 9)


class TestDirichletNoise:
    def test_priors_remain_distribution(self):
        g = TicTacToe()
        root = Node()
        expand(root, g, UniformEvaluator().evaluate(g))
        add_dirichlet_noise(root, np.random.default_rng(0))
        total = sum(c.prior for c in root.children.values())
        assert np.isclose(total, 1.0)

    def test_epsilon_mixes(self):
        g = TicTacToe()
        root = Node()
        expand(root, g, UniformEvaluator().evaluate(g))
        before = {a: c.prior for a, c in root.children.items()}
        add_dirichlet_noise(root, np.random.default_rng(1), epsilon=0.5)
        after = {a: c.prior for a, c in root.children.items()}
        assert any(abs(before[a] - after[a]) > 1e-3 for a in before)

    def test_leaf_raises(self):
        with pytest.raises(ValueError):
            add_dirichlet_noise(Node(), np.random.default_rng(0))


class TestSampleAction:
    def test_zero_temperature_is_argmax(self):
        prior = np.array([0.1, 0.7, 0.2])
        rng = np.random.default_rng(0)
        assert sample_action(prior, rng, temperature=0.0) == 1

    def test_temperature_one_samples_proportionally(self):
        prior = np.array([0.8, 0.2])
        rng = np.random.default_rng(1)
        picks = [sample_action(prior, rng, 1.0) for _ in range(2000)]
        frac = np.mean(np.array(picks) == 0)
        assert 0.75 < frac < 0.85

    def test_low_temperature_sharpens(self):
        prior = np.array([0.6, 0.4])
        rng = np.random.default_rng(2)
        picks = [sample_action(prior, rng, 0.25) for _ in range(500)]
        assert np.mean(np.array(picks) == 0) > 0.75

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            sample_action(np.array([1.0]), np.random.default_rng(0), -1.0)
