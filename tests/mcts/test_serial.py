"""Tests for the serial DNN-MCTS engine."""

import numpy as np
import pytest

from repro.games import ConnectFour, Gomoku, TicTacToe
from repro.mcts.evaluation import RandomRolloutEvaluator, UniformEvaluator
from repro.mcts.search import action_prior_from_root
from repro.mcts.serial import SerialMCTS
from tests.conftest import step_by_hand


class TestBasics:
    def test_visits_equal_playouts(self):
        engine = SerialMCTS(UniformEvaluator(), rng=0)
        root = engine.search(TicTacToe(), 100)
        assert root.visit_count == 100

    def test_prior_is_distribution(self):
        engine = SerialMCTS(UniformEvaluator(), rng=1)
        prior = engine.get_action_prior(TicTacToe(), 64)
        assert np.isclose(prior.sum(), 1.0)
        assert np.all(prior >= 0)

    def test_invalid_args(self):
        engine = SerialMCTS(UniformEvaluator())
        with pytest.raises(ValueError):
            engine.search(TicTacToe(), 0)
        with pytest.raises(ValueError):
            SerialMCTS(UniformEvaluator(), c_puct=-1.0)

    @pytest.mark.parametrize("backend", ["node", None, "linkedlist"])
    def test_only_the_array_tree(self, backend):
        """Every search grows an array tree: ``tree_backend="array"`` is
        accepted and stored nowhere, any other value raises, here and on
        local-tree, which passes it through."""
        from repro.parallel import LocalTreeMCTS

        engine = SerialMCTS(UniformEvaluator(), tree_backend="array")
        assert not hasattr(engine, "tree_backend")
        scheme = LocalTreeMCTS(UniformEvaluator(), tree_backend="array")
        assert not hasattr(scheme, "tree_backend")
        with pytest.raises(ValueError, match="tree backend"):
            SerialMCTS(UniformEvaluator(), tree_backend=backend)
        with pytest.raises(ValueError, match="tree backend"):
            LocalTreeMCTS(UniformEvaluator(), tree_backend=backend)

    def test_terminal_state_rejected(self):
        g = TicTacToe()
        for a in [0, 3, 1, 4, 2]:
            g.step(a)
        with pytest.raises(ValueError):
            SerialMCTS(UniformEvaluator()).search(g, 10)

    def test_does_not_mutate_input_game(self):
        g = TicTacToe()
        SerialMCTS(UniformEvaluator(), rng=2).search(g, 50)
        assert g.cells.sum() == 0
        assert not g.is_terminal

    def test_stats_collected(self):
        engine = SerialMCTS(UniformEvaluator(), rng=3)
        engine.search(TicTacToe(), 32)
        assert engine.stats.playouts == 32
        assert engine.stats.select.operations == 32
        assert engine.stats.mean_path_length > 0

    def test_stats_empty_amortized_zero(self):
        stats = SerialMCTS(UniformEvaluator()).stats
        assert stats.select.amortized == stats.evaluate.amortized == 0.0


class TestTacticalStrength:
    """The canonical MCTS correctness tests: find forced wins/blocks."""

    def test_takes_immediate_win(self):
        g = TicTacToe()
        for a in [0, 3, 1, 4]:  # X can win at 2
            g.step(a)
        engine = SerialMCTS(RandomRolloutEvaluator(rng=0), c_puct=1.5, rng=1)
        prior = engine.get_action_prior(g, 300)
        assert int(np.argmax(prior)) == 2

    def test_blocks_immediate_loss(self):
        g = TicTacToe()
        for a in [0, 4, 1]:  # X threatens 2; O must block
            g.step(a)
        engine = SerialMCTS(RandomRolloutEvaluator(rng=2), c_puct=1.5, rng=3)
        prior = engine.get_action_prior(g, 800)
        assert int(np.argmax(prior)) == 2

    def test_connect4_takes_win(self):
        g = ConnectFour()
        for a in [0, 1, 0, 1, 0, 1]:  # X wins dropping column 0
            g.step(a)
        engine = SerialMCTS(RandomRolloutEvaluator(rng=4), c_puct=1.5, rng=5)
        prior = engine.get_action_prior(g, 300)
        assert int(np.argmax(prior)) == 0

    def test_gomoku_takes_win(self):
        g = Gomoku(6, 4)
        for a in [0, 30, 1, 31, 2, 32]:  # X wins at 3
            g.step(a)
        engine = SerialMCTS(RandomRolloutEvaluator(rng=6), c_puct=1.5, rng=7)
        prior = engine.get_action_prior(g, 400)
        assert int(np.argmax(prior)) == 3


class TestDeterminism:
    def test_same_seed_same_prior(self):
        a = SerialMCTS(UniformEvaluator(), rng=42).get_action_prior(TicTacToe(), 60)
        b = SerialMCTS(UniformEvaluator(), rng=42).get_action_prior(TicTacToe(), 60)
        assert np.allclose(a, b)

    def test_dirichlet_noise_changes_search(self):
        base = SerialMCTS(UniformEvaluator(), rng=0).get_action_prior(TicTacToe(), 200)
        noisy = SerialMCTS(
            UniformEvaluator(), dirichlet_epsilon=0.5, rng=0
        ).get_action_prior(TicTacToe(), 200)
        assert not np.allclose(base, noisy)


class TestTreeInvariants:
    def test_parent_visits_bound_children(self):
        """N(parent) >= sum N(children) everywhere (root warm-up aside)."""
        engine = SerialMCTS(UniformEvaluator(), rng=8)
        root = engine.search(TicTacToe(), 150)
        for node in root.iter_subtree():
            if node.children:
                child_sum = sum(c.visit_count for c in node.children.values())
                assert node.visit_count >= child_sum

    def test_no_virtual_loss_residue(self):
        engine = SerialMCTS(UniformEvaluator(), rng=9)
        root = engine.search(TicTacToe(), 100)
        for node in root.iter_subtree():
            assert node.virtual_loss == 0.0

    def test_q_values_bounded(self):
        engine = SerialMCTS(RandomRolloutEvaluator(rng=10), rng=11)
        root = engine.search(TicTacToe(), 200)
        for node in root.iter_subtree():
            assert -1.0 - 1e-9 <= node.q <= 1.0 + 1e-9


class TestSearchProgram:
    def test_program_stepped_by_hand_equals_search(self):
        """search() is search_program under the inline driver: the same
        leaves in the same order, the same tree and the same counts."""
        seen: list = []

        class Recording(UniformEvaluator):
            def evaluate(self, game):
                seen.append(game.canonical_key())
                return super().evaluate(game)

        g = ConnectFour()
        inline = SerialMCTS(Recording(), dirichlet_epsilon=0.25, rng=3)
        expected = inline.get_action_prior(g, 60)
        stepped = SerialMCTS(UniformEvaluator(), dirichlet_epsilon=0.25, rng=3)
        root, yielded = step_by_hand(
            stepped.search_program(g, 60), UniformEvaluator()
        )
        assert yielded == seen
        np.testing.assert_array_equal(
            action_prior_from_root(root, g.action_size), expected
        )
        for field in ("playouts", "evaluations", "total_path_length"):
            assert getattr(stepped.stats, field) == getattr(inline.stats, field)
        assert stepped.stats.playouts == 60
        assert stepped.stats.evaluations == len(yielded)

    def test_program_checks_its_state_on_the_first_step(self):
        """Creating a program does no work: a terminal state raises only
        when the driver first steps it."""
        g = TicTacToe()
        for a in [0, 3, 1, 4, 2]:
            g.step(a)
        program = SerialMCTS(UniformEvaluator()).search_program(g, 8)
        with pytest.raises(ValueError):
            next(program)
