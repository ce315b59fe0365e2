"""Tests for Equation-1 UCT scoring and selection on the ``Node`` oracle."""

import math

import numpy as np
import pytest

from repro.mcts.virtual_loss import ConstantVirtualLoss
from tests.mcts.node_oracle import Node, select_child, uct_scores


def make_parent(stats):
    """stats: list of (action, prior, visits, value_sum).

    Maintains the search invariant ``N(parent) == 1 + sum_b N(b)`` (the
    expansion playout plus one descent per child visit), which
    ``uct_scores`` relies on to derive the sqrt numerator from the
    parent's own counters.
    """
    root = Node()
    for action, prior, n, w in stats:
        c = root.add_child(action, prior)
        c.visit_count = n
        c.value_sum = w
    root.visit_count = 1 + sum(n for _, _, n, _ in stats)
    return root


class TestEquationOne:
    def test_matches_formula(self):
        root = make_parent([(0, 0.6, 3, 1.5), (1, 0.4, 1, -0.5)])
        c = 2.0
        actions, scores = uct_scores(root, c)
        total = 4
        expected0 = 1.5 / 3 + c * 0.6 * math.sqrt(total) / (1 + 3)
        expected1 = -0.5 / 1 + c * 0.4 * math.sqrt(total) / (1 + 1)
        assert np.isclose(scores[list(actions).index(0)], expected0)
        assert np.isclose(scores[list(actions).index(1)], expected1)

    def test_unvisited_uses_prior(self):
        root = make_parent([(0, 0.9, 0, 0.0), (1, 0.1, 0, 0.0)])
        chosen = select_child(root, 5.0)
        assert chosen.action == 0

    def test_exploitation_dominates_at_low_c(self):
        root = make_parent([(0, 0.5, 10, 9.0), (1, 0.5, 10, -9.0)])
        chosen = select_child(root, 0.01)
        assert chosen.action == 0

    def test_exploration_wins_at_high_c(self):
        # action 1 has high prior and low visits: exploration should pick it
        root = make_parent([(0, 0.1, 50, 25.0), (1, 0.9, 1, 0.0)])
        chosen = select_child(root, 50.0)
        assert chosen.action == 1

    def test_visit_count_suppresses(self):
        root = make_parent([(0, 0.5, 100, 0.0), (1, 0.5, 1, 0.0)])
        chosen = select_child(root, 1.0)
        assert chosen.action == 1

    def test_leaf_raises(self):
        with pytest.raises(ValueError):
            uct_scores(Node(), 1.0)

    def test_deterministic_tie_break(self):
        root = make_parent([(2, 0.5, 1, 0.0), (7, 0.5, 1, 0.0)])
        assert select_child(root, 1.0).action == 2


class TestVirtualLossInteraction:
    def test_virtual_loss_repels(self):
        vl = ConstantVirtualLoss(weight=3.0)
        root = make_parent([(0, 0.5, 5, 3.0), (1, 0.5, 5, 2.0)])
        assert select_child(root, 1.0).action == 0
        vl.on_descend(root.children[0])  # a worker is on path 0
        assert select_child(root, 1.0, vl).action == 1

    def test_scores_restore_after_backup(self):
        vl = ConstantVirtualLoss(weight=3.0)
        root = make_parent([(0, 0.5, 5, 3.0), (1, 0.5, 5, 2.0)])
        _, before = uct_scores(root, 1.0, vl)
        vl.on_descend(root.children[0])
        vl.on_backup(root.children[0])
        root.children[0].visit_count -= 0  # backup itself tested elsewhere
        _, after = uct_scores(root, 1.0, vl)
        assert np.allclose(before, after)
