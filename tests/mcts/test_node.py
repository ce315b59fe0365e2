"""Tests for the ``Node`` oracle's tree structure."""

import pytest

from tests.mcts.node_oracle import Node


class TestStructure:
    def test_fresh_node_is_leaf_root(self):
        n = Node()
        assert n.is_leaf
        assert n.is_root
        assert not n.is_terminal
        assert n.q == 0.0

    def test_add_child_links(self):
        root = Node()
        child = root.add_child(3, 0.5)
        assert child.parent is root
        assert child.action == 3
        assert child.prior == 0.5
        assert not root.is_leaf

    def test_duplicate_child_rejected(self):
        root = Node()
        root.add_child(1, 0.5)
        with pytest.raises(ValueError):
            root.add_child(1, 0.5)

    def test_q_is_mean(self):
        n = Node()
        n.visit_count = 4
        n.value_sum = 2.0
        assert n.q == 0.5

    def test_terminal_flag(self):
        n = Node()
        n.terminal_value = -1.0
        assert n.is_terminal


class TestTraversal:
    def _chain(self, actions):
        root = Node()
        node = root
        for a in actions:
            node = node.add_child(a, 1.0)
        return root, node

    def test_path_from_root(self):
        root, leaf = self._chain([2, 5, 1])
        assert leaf.path_from_root() == [2, 5, 1]
        assert root.path_from_root() == []

    def test_depth(self):
        root, leaf = self._chain([0, 0, 0, 0])
        assert leaf.depth() == 4
        assert root.depth() == 0

    def test_subtree_size(self):
        root = Node()
        a = root.add_child(0, 0.5)
        root.add_child(1, 0.5)
        a.add_child(0, 1.0)
        assert root.subtree_size() == 4
        assert a.subtree_size() == 2

    def test_max_depth(self):
        root, _ = self._chain([0, 1, 2])
        root.add_child(9, 0.1)
        assert root.max_depth() == 3

    def test_iter_subtree_visits_all(self):
        root = Node()
        for a in range(3):
            c = root.add_child(a, 1 / 3)
            c.add_child(0, 1.0)
        assert sum(1 for _ in root.iter_subtree()) == 7
