"""Unit tests for the structure-of-arrays tree backend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import Gomoku, TicTacToe
from repro.mcts.arraytree import ArrayNodeView, ArrayTree, capacity_hint, make_root
from repro.mcts.evaluation import Evaluation, Evaluator, UniformEvaluator
from repro.mcts.search import add_dirichlet_noise, backup, expand, select_leaf
from repro.mcts.virtual_loss import ConstantVirtualLoss, NoVirtualLoss
from tests.mcts import node_oracle
from tests.mcts.node_oracle import Node, on_backend


def expanded_root(tree: ArrayTree, actions, priors) -> int:
    root = tree.new_root()
    tree.expand(root, np.asarray(actions), np.asarray(priors, dtype=np.float64))
    return root


class TestStructure:
    def test_root_allocation(self):
        tree = ArrayTree(4)
        root = tree.new_root()
        assert root == 0
        assert tree.is_leaf(root)
        assert not tree.is_terminal(root)
        assert len(tree) == 1

    def test_expand_allocates_contiguous_slab(self):
        tree = ArrayTree(2)
        root = expanded_root(tree, [2, 5, 7], [0.2, 0.5, 0.3])
        sl = tree.children_slice(root)
        assert (sl.start, sl.stop) == (1, 4)
        np.testing.assert_array_equal(tree.child_actions(root), [2, 5, 7])
        np.testing.assert_array_equal(tree.parent[sl], [root] * 3)
        np.testing.assert_allclose(tree.prior[sl], [0.2, 0.5, 0.3])

    def test_growth_preserves_rows(self):
        tree = ArrayTree(2)  # forces several doublings
        root = expanded_root(tree, list(range(9)), [1 / 9] * 9)
        tree.visit_count[3] = 7
        child = tree.children_slice(root).start
        tree.expand(child, np.array([1, 2]), np.array([0.6, 0.4]))
        assert len(tree) == 12
        assert tree.visit_count[3] == 7  # survived the growth copy
        np.testing.assert_array_equal(tree.child_actions(child), [1, 2])

    def test_double_expand_raises(self):
        tree = ArrayTree(4)
        root = expanded_root(tree, [0, 1], [0.5, 0.5])
        with pytest.raises(ValueError):
            tree.expand(root, np.array([2]), np.array([1.0]))

    def test_detach_makes_row_a_root(self):
        tree = ArrayTree(4)
        root = expanded_root(tree, [0, 1], [0.5, 0.5])
        child = tree.children_slice(root).start
        tree.detach(child)
        assert tree.parent[child] == -1
        assert ArrayNodeView(tree, child).is_root

    def test_extract_subtree_compacts_and_preserves_stats(self):
        g = TicTacToe()
        ev = UniformEvaluator()
        from repro.mcts.serial import SerialMCTS

        root = SerialMCTS(ev, rng=0).search(g, 120)
        child = root.children[4]
        compact = ArrayNodeView(child.tree.extract_subtree(child.index), 0)
        assert compact.is_root
        assert len(compact.tree) == child.subtree_size()  # nothing orphaned
        assert len(compact.tree) < len(root.tree)
        assert compact.visit_count == child.visit_count
        assert compact.value_sum == child.value_sum
        # whole subtree matches: walk both in lockstep by action path
        def assert_same(a, b):
            assert a.visit_count == b.visit_count
            assert a.value_sum == b.value_sum
            assert a.prior == b.prior
            assert a.terminal_value == b.terminal_value
            ca, cb = a.children, b.children
            assert set(ca) == set(cb)
            for action in ca:
                assert_same(ca[action], cb[action])

        assert_same(compact, child)


class TestBackup:
    def test_alternating_signs(self):
        tree = ArrayTree(8)
        root = expanded_root(tree, [0], [1.0])
        a = tree.children_slice(root).start
        tree.expand(a, np.array([0]), np.array([1.0]))
        b = tree.children_slice(a).start
        tree.backup(b, 1.0)
        assert tree.value_sum[b] == -1.0
        assert tree.value_sum[a] == 1.0
        assert tree.value_sum[root] == -1.0
        np.testing.assert_array_equal(tree.visit_count[[root, a, b]], [1, 1, 1])

    def test_backup_stops_at_detached_root(self):
        tree = ArrayTree(8)
        root = expanded_root(tree, [0, 1], [0.5, 0.5])
        child = tree.children_slice(root).start
        tree.expand(child, np.array([3]), np.array([1.0]))
        grandchild = tree.children_slice(child).start
        tree.detach(child)
        tree.backup(grandchild, 0.5)
        assert tree.visit_count[root] == 0  # detached: old parent untouched
        assert tree.visit_count[child] == 1

    def test_strict_virtual_loss_residue_raises(self):
        tree = ArrayTree(8)
        root = expanded_root(tree, [0], [1.0])
        vl = ConstantVirtualLoss(weight=2.0)
        # backup without a matching descend: the residue check must fire
        with pytest.raises(RuntimeError):
            tree.backup(root, 0.0, vl)


class TestSelection:
    def test_uct_scores_match_node_backend(self):
        stats = [(0, 0.6, 3, 1.5), (4, 0.3, 1, -0.5), (7, 0.1, 0, 0.0)]
        node_root = Node()
        for action, prior, n, w in stats:
            c = node_root.add_child(action, prior)
            c.visit_count = n
            c.value_sum = w
        node_root.visit_count = 1 + sum(n for _, _, n, _ in stats)

        tree = ArrayTree(8)
        root = expanded_root(
            tree, [s[0] for s in stats], [s[1] for s in stats]
        )
        sl = tree.children_slice(root)
        tree.visit_count[sl] = [s[2] for s in stats]
        tree.value_sum[sl] = [s[3] for s in stats]
        tree.visit_count[root] = node_root.visit_count

        for vl in (None, NoVirtualLoss(), ConstantVirtualLoss(2.0)):
            a_node, s_node = node_oracle.uct_scores(node_root, 3.0, vl)
            a_arr, s_arr = tree.uct_scores(root, 3.0, vl)
            np.testing.assert_array_equal(a_arr, a_node)
            np.testing.assert_array_equal(s_arr, s_node)  # bit-exact

    def test_select_child_index_picks_the_prior(self):
        tree = ArrayTree(8)
        root = expanded_root(tree, [1, 3], [0.9, 0.1])
        tree.visit_count[root] = 1
        chosen = tree.select_child_index(root, 5.0)
        assert tree.action[chosen] == 1  # higher prior, both unvisited

    def test_tie_break_lowest_action(self):
        tree = ArrayTree(8)
        root = expanded_root(tree, [2, 7], [0.5, 0.5])
        sl = tree.children_slice(root)
        tree.visit_count[sl] = 1
        tree.visit_count[root] = 3
        chosen = tree.select_child_index(root, 1.0)
        assert tree.action[chosen] == 2

    def test_unexpanded_raises(self):
        tree = ArrayTree(4)
        root = tree.new_root()
        with pytest.raises(ValueError):
            tree.uct_scores(root, 1.0)


class TestViewParity:
    """ArrayNodeView reads and writes like the ``Node`` oracle."""

    def make_pair(self):
        g = TicTacToe()
        ev = UniformEvaluator().evaluate(g)
        node_root = Node()
        node_oracle.expand(node_root, g, ev)
        node_oracle.backup(node_root.children[4], 0.5)
        view_root = make_root()
        expand(view_root, g, ev)
        backup(view_root.children[4], 0.5)
        return node_root, view_root

    def test_children_and_stats(self):
        node_root, view_root = self.make_pair()
        assert set(view_root.children) == set(node_root.children)
        for a in node_root.children:
            assert view_root.children[a].visit_count == node_root.children[a].visit_count
            assert view_root.children[a].q == node_root.children[a].q

    def test_traversal_helpers(self):
        node_root, view_root = self.make_pair()
        assert view_root.subtree_size() == node_root.subtree_size()
        assert view_root.max_depth() == node_root.max_depth()
        child = view_root.children[4]
        assert child.depth() == 1
        assert child.path_from_root() == [4]
        assert child.parent == view_root
        assert view_root.parent is None

    @pytest.mark.parametrize("game", [TicTacToe, lambda: Gomoku(9, 5)])
    def test_subtree_size_and_depth_of_searched_trees(self, game):
        from repro.mcts.serial import SerialMCTS

        def searched(backend):
            with on_backend(backend):
                return SerialMCTS(UniformEvaluator(), rng=0).search(game(), 300)

        view_root, node_root = searched("array"), searched("node")
        assert view_root.subtree_size() == node_root.subtree_size()
        assert view_root.max_depth() == node_root.max_depth() >= 2
        for a, child in node_root.children.items():
            view = view_root.children[a]
            assert view.subtree_size() == child.subtree_size()
            assert view.max_depth() == child.max_depth()
            assert view.subtree_size() == sum(1 for _ in view.iter_subtree())

    def test_mutation_via_view(self):
        _, view_root = self.make_pair()
        child = view_root.children[4]
        child.prior = 0.75
        child.value_sum += 1.0
        assert view_root.tree.prior[child.index] == 0.75
        assert view_root.children[4].value_sum == child.value_sum

    def test_terminal_marking(self):
        _, view_root = self.make_pair()
        child = view_root.children[0]
        assert child.terminal_value is None
        child.terminal_value = -1.0
        assert child.is_terminal
        assert view_root.children[0].terminal_value == -1.0

    def test_add_child_rejected(self):
        """Slabs are allocated whole by expansion; a view has no
        ``add_child``."""
        _, view_root = self.make_pair()
        with pytest.raises(AttributeError):
            view_root.add_child(99, 0.1)


class TestRootFactory:
    def test_capacity_hint_bounds(self):
        assert capacity_hint(9, 100) == 901
        assert capacity_hint(225, 10**9) == 1 << 20  # capped


class _RandomEvaluator(Evaluator):
    """Random legal priors and values from one seeded stream."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def evaluate(self, game):
        mask = game.legal_mask()
        priors = np.where(mask, self.rng.random(mask.shape), 0.0)
        return Evaluation(priors / priors.sum(), float(self.rng.uniform(-1, 1)))


def _playouts(root, game, evaluator, count, rng):
    """*count* serial playouts from *root*, Dirichlet noise after the first."""
    for i in range(count):
        leaf, leaf_game, _ = select_leaf(root, game.copy(), 5.0)
        if leaf.is_terminal:
            value = leaf.terminal_value
        else:
            value = expand(leaf, leaf_game, evaluator.evaluate(leaf_game))
        backup(leaf, value)
        if i == 0 and not root.is_leaf:
            add_dirichlet_noise(root, rng, 0.3, 0.25)


def _assert_cached_columns(tree: ArrayTree) -> None:
    """``q == value_sum / max(N, 1)`` and ``n1 == 1 + N``, bitwise, on
    every allocated row."""
    n = tree.size
    visits = tree.visit_count[:n]
    expected_q = tree.value_sum[:n] / np.maximum(visits, 1)
    np.testing.assert_array_equal(tree.q[:n].view(np.uint64), expected_q.view(np.uint64))
    np.testing.assert_array_equal(
        tree.n1[:n].view(np.uint64), (1.0 + visits).view(np.uint64)
    )


CACHED_GAMES = {"tictactoe": TicTacToe, "gomoku9": lambda: Gomoku(9, 5)}


class TestCachedColumns:
    @given(
        game_name=st.sampled_from(sorted(CACHED_GAMES)),
        seed=st.integers(0, 2**16),
        playouts=st.integers(1, 40),
        capacity=st.integers(1, 64),
        writes=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.none() | st.integers(0, 30),
                st.none() | st.floats(-30.0, 30.0, allow_subnormal=False),
            ),
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_q_and_n1_stay_in_step(self, game_name, seed, playouts, capacity, writes):
        """Random playouts (with root noise, growth past *capacity*, view
        writes and a subtree extraction) keep both cached columns exact."""
        game = CACHED_GAMES[game_name]()
        rng = np.random.default_rng(seed)
        evaluator = _RandomEvaluator(seed)
        tree = ArrayTree(capacity)
        root = ArrayNodeView(tree, tree.new_root())
        _playouts(root, game, evaluator, playouts, rng)
        _assert_cached_columns(tree)

        for pick, visits, value in writes:
            view = ArrayNodeView(tree, pick % tree.size)
            if visits is not None:
                view.visit_count = visits
            if value is not None:
                view.value_sum = value
        _assert_cached_columns(tree)

        children = list(root.children.values())
        if not children:
            return
        child = children[seed % len(children)]
        sub = ArrayNodeView(tree.extract_subtree(child.index), 0)
        _assert_cached_columns(sub.tree)
        child_game = game.copy()
        child_game.step(child.action)
        if not child_game.is_terminal:
            _playouts(sub, child_game, evaluator, playouts, rng)
            _assert_cached_columns(sub.tree)
        _playouts(root, game, evaluator, playouts, rng)
        _assert_cached_columns(tree)
