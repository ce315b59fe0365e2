"""Backend-equivalence suite: the array tree IS the Node tree, faster.

Mirror of the Section-3.2 scheme-equivalence suite, but over the storage
axis instead of the scheduling axis: serial search on the
structure-of-arrays tree must reproduce the ``Node`` oracle's root visit
counts **exactly** (fixed seed, no virtual loss) -- same float64
operation order in Equation 1, same ascending-action tie-break, same RNG
consumption.  Any drift here means the vectorisation changed the
algorithm, not just the memory layout.  The ``node`` side runs the real
search program under :func:`tests.mcts.node_oracle.node_trees`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import ConnectFour, Gomoku, SyntheticTreeGame, TicTacToe
from repro.mcts import arraytree, search
from repro.mcts.evaluation import UniformEvaluator
from repro.mcts.reuse import TreeReuseMCTS
from repro.mcts.serial import SerialMCTS
from repro.mcts.virtual_loss import ConstantVirtualLoss, WUVirtualLoss
from tests.mcts import node_oracle
from tests.mcts.node_oracle import on_backend

GAMES = {
    "tictactoe": lambda: TicTacToe(),
    "connect4": lambda: ConnectFour(),
    "gomoku7": lambda: Gomoku(7, 4),
    "gomoku15": lambda: Gomoku(15, 5),
    "synthetic": lambda: SyntheticTreeGame(fanout=5, depth_limit=7, board_size=5, seed=3),
}


def root_visits(root, action_size: int) -> np.ndarray:
    visits = np.zeros(action_size, dtype=np.int64)
    for action, child in root.children.items():
        visits[action] = child.visit_count
    return visits


def run(backend: str, game, playouts: int, seed: int, epsilon: float = 0.0):
    engine = SerialMCTS(UniformEvaluator(), dirichlet_epsilon=epsilon, rng=seed)
    with on_backend(backend):
        return engine.search(game.copy(), playouts)


class TestExactVisitParity:
    @pytest.mark.parametrize("game_name", sorted(GAMES))
    def test_serial_search_identical_visits(self, game_name):
        game = GAMES[game_name]()
        expected = root_visits(run("node", game, 120, seed=0), game.action_size)
        actual = root_visits(run("array", game, 120, seed=0), game.action_size)
        np.testing.assert_array_equal(
            actual, expected,
            err_msg=f"array backend diverged from Node on {game_name}",
        )

    @given(seed=st.integers(0, 2**16), playouts=st.integers(1, 80))
    @settings(max_examples=20, deadline=None)
    def test_property_any_seed_any_budget(self, seed, playouts):
        game = TicTacToe()
        expected = root_visits(run("node", game, playouts, seed), game.action_size)
        actual = root_visits(run("array", game, playouts, seed), game.action_size)
        np.testing.assert_array_equal(actual, expected)

    def test_dirichlet_noise_parity(self):
        """Root-noise mixing consumes the RNG identically on both backends."""
        game = TicTacToe()
        expected = root_visits(
            run("node", game, 150, seed=9, epsilon=0.25), game.action_size
        )
        actual = root_visits(
            run("array", game, 150, seed=9, epsilon=0.25), game.action_size
        )
        np.testing.assert_array_equal(actual, expected)

    def test_q_values_match_exactly(self):
        """Beyond visit counts: Q of every root child is bit-identical."""
        game = ConnectFour()
        node_root = run("node", game, 100, seed=4)
        array_root = run("array", game, 100, seed=4)
        for action, child in node_root.children.items():
            twin = array_root.children[action]
            assert child.visit_count == twin.visit_count
            assert child.value_sum == twin.value_sum  # exact, not approx
            assert child.prior == twin.prior


class TestVirtualLossParity:
    """The primitives agree under VL too (1-worker degenerate schedule)."""

    @pytest.mark.parametrize(
        "make_vl", [lambda: ConstantVirtualLoss(3.0), WUVirtualLoss],
        ids=["constant", "wu"],
    )
    def test_descend_backup_cycle_matches(self, make_vl):
        game = TicTacToe()
        evaluator = UniformEvaluator()
        roots = {}
        for backend, (make_root, ops) in {
            "node": (node_oracle.make_root, node_oracle),
            "array": (arraytree.make_root, search),
        }.items():
            vl = make_vl()
            root = make_root()
            for _ in range(40):
                g = game.copy()
                leaf, leaf_game, _ = ops.select_leaf(root, g, 5.0, vl)
                if leaf.is_terminal:
                    value = leaf.terminal_value
                else:
                    value = ops.expand(leaf, leaf_game, evaluator.evaluate(leaf_game))
                ops.backup(leaf, value, vl)
            roots[backend] = root
        expected = root_visits(roots["node"], game.action_size)
        actual = root_visits(roots["array"], game.action_size)
        np.testing.assert_array_equal(actual, expected)
        for node in roots["array"].iter_subtree():
            assert node.virtual_loss == 0.0  # fully recovered


class TestSchemesOnArrayBackend:
    """Every parallel scheme, degenerated to serial scheduling, must still
    reproduce serial visit counts on the array tree (the storage axis
    composed with the Section-3.2 scheduling axis)."""

    PLAYOUTS = 60

    def factories(self, evaluator):
        from repro.mcts.virtual_loss import NoVirtualLoss
        from repro.parallel import (
            LeafParallelMCTS,
            LocalTreeMCTS,
            RootParallelMCTS,
            SharedTreeMCTS,
        )

        no_vl = NoVirtualLoss()
        return {
            "shared_tree": lambda: SharedTreeMCTS(
                evaluator, num_workers=1, vl_policy=no_vl, rng=0
            ),
            "local_tree": lambda: LocalTreeMCTS(
                evaluator, num_workers=1, batch_size=1, vl_policy=no_vl, rng=0
            ),
            "leaf_parallel": lambda: LeafParallelMCTS(
                evaluator, num_workers=1, rng=0
            ),
            "root_parallel": lambda: RootParallelMCTS(
                evaluator, num_workers=1, rng=0
            ),
        }

    @pytest.mark.parametrize(
        "scheme_name",
        ["shared_tree", "local_tree", "leaf_parallel", "root_parallel"],
    )
    def test_degenerate_parity_with_serial(self, scheme_name):
        game = TicTacToe()
        evaluator = UniformEvaluator()
        serial = SerialMCTS(evaluator, rng=0)
        expected = root_visits(
            serial.search(game.copy(), self.PLAYOUTS), game.action_size
        )
        root = self.factories(evaluator)[scheme_name]().search(
            game.copy(), self.PLAYOUTS
        )
        actual = root_visits(root, game.action_size)
        np.testing.assert_array_equal(
            actual, expected,
            err_msg=f"{scheme_name} on the array backend diverged from serial",
        )


class TestSharedTreeParity:
    """Shared-tree at N > 1 under constant virtual loss: the N leaves in
    flight run on one thread, so the search is deterministic and the
    array tree reproduces the ``Node`` oracle exactly."""

    GAMES = {
        "tictactoe": lambda: TicTacToe(),
        "connect4": lambda: ConnectFour(),
        "gomoku9": lambda: Gomoku(9, 5),
    }

    @staticmethod
    def search(backend, game, workers):
        from repro.parallel import SharedTreeMCTS

        scheme = SharedTreeMCTS(
            UniformEvaluator(), num_workers=workers,
            vl_policy=ConstantVirtualLoss(), rng=0,
        )
        with on_backend(backend):
            return root_visits(scheme.search(game.copy(), 120), game.action_size)

    @pytest.mark.parametrize("workers", [2, 4, 8])
    @pytest.mark.parametrize("game_name", sorted(GAMES))
    def test_node_equals_array_and_reruns_equal(self, game_name, workers):
        game = self.GAMES[game_name]()
        expected = self.search("node", game, workers)
        np.testing.assert_array_equal(
            self.search("array", game, workers), expected,
            err_msg=f"shared-tree N={workers} array diverged on {game_name}",
        )
        np.testing.assert_array_equal(self.search("node", game, workers), expected)


class TestReuseParity:
    def test_reuse_across_moves_identical(self):
        games = {b: TicTacToe() for b in ("node", "array")}
        agents = {
            b: TreeReuseMCTS(UniformEvaluator(), rng=1) for b in ("node", "array")
        }
        for _ in range(3):
            priors = {}
            for backend, agent in agents.items():
                with on_backend(backend):
                    priors[backend] = agent.get_action_prior(games[backend], 80)
            np.testing.assert_array_equal(priors["array"], priors["node"])
            move = int(np.argmax(priors["node"]))
            for backend, agent in agents.items():
                games[backend].step(move)
                with on_backend(backend):
                    agent.observe(move)


class TestOracleSeam:
    """``node_trees()`` really swaps the storage: inside it every scheme
    on the search program grows ``Node`` trees, and outside it array
    trees again, so no parity case above compares the array tree with
    itself."""

    @staticmethod
    def roots():
        from repro.parallel import LeafParallelMCTS, LocalTreeMCTS, RootParallelMCTS

        game, ev = TicTacToe(), UniformEvaluator()
        root_parallel = RootParallelMCTS(ev, num_workers=2, rng=0)
        root_parallel.search(game.copy(), 20)
        reuse = TreeReuseMCTS(ev, rng=0)
        reuse.get_action_prior(game.copy(), 20)
        reuse.observe(4)
        return [
            SerialMCTS(ev, rng=0).search(game.copy(), 20),
            LocalTreeMCTS(ev, num_workers=4, batch_size=2, rng=0).search(
                game.copy(), 20
            ),
            LeafParallelMCTS(ev, num_workers=2, rng=0).search(game.copy(), 20),
            *root_parallel.last_roots,
            reuse._root,
        ]

    def test_node_trees_grow_node_roots_and_restore_the_array_tree(self):
        with on_backend("node"):
            assert all(isinstance(r, node_oracle.Node) for r in self.roots())
        assert all(isinstance(r, arraytree.ArrayNodeView) for r in self.roots())
