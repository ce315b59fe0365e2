"""Tests for the shared-tree scheme (Algorithm 2): N leaves in flight on one thread."""

import numpy as np
import pytest

from repro.games import ConnectFour, TicTacToe
from repro.mcts.evaluation import RandomRolloutEvaluator, UniformEvaluator
from repro.mcts.virtual_loss import ConstantVirtualLoss, WUVirtualLoss
from repro.parallel import SharedTreeMCTS
from repro.parallel.base import SchemeName
from tests.mcts.node_oracle import on_backend


class CountingEvaluator(UniformEvaluator):
    """Uniform evaluator that records the row count of every call; the
    search sends a one-row sub-batch to ``evaluate``."""

    def __init__(self):
        self.rows: list[int] = []

    def evaluate(self, game):
        self.rows.append(1)
        return super().evaluate(game)

    def evaluate_batch(self, games):
        self.rows.append(len(games))
        return [UniformEvaluator.evaluate(self, g) for g in games]


def c4_position() -> ConnectFour:
    game = ConnectFour()
    for a in (3, 3, 2):
        game.step(a)
    return game


def crowded_tictactoe() -> TicTacToe:
    """Three legal moves left, most lines one move from a result: fewer
    unexpanded leaves than workers, and many playouts end in a terminal."""
    game = TicTacToe()
    for a in (0, 4, 8, 2, 6, 3):
        game.step(a)
    return game


GAMES = {"tictactoe": TicTacToe, "connect4": c4_position}


class TestBasics:
    def test_playout_budget_respected(self):
        scheme = SharedTreeMCTS(UniformEvaluator(), num_workers=4, rng=0)
        root = scheme.search(TicTacToe(), 120)
        assert root.visit_count == 120

    def test_prior_is_distribution(self):
        scheme = SharedTreeMCTS(UniformEvaluator(), num_workers=4, rng=1)
        prior = scheme.get_action_prior(TicTacToe(), 80)
        assert np.isclose(prior.sum(), 1.0)

    def test_scheme_name(self):
        assert SharedTreeMCTS(UniformEvaluator()).name == SchemeName.SHARED_TREE

    def test_input_game_not_mutated(self):
        g = TicTacToe()
        scheme = SharedTreeMCTS(UniformEvaluator(), num_workers=4, rng=2)
        scheme.search(g, 60)
        assert g.cells.sum() == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SharedTreeMCTS(UniformEvaluator(), num_workers=0)
        with pytest.raises(ValueError):
            SharedTreeMCTS(UniformEvaluator(), c_puct=0.0)
        scheme = SharedTreeMCTS(UniformEvaluator())
        with pytest.raises(ValueError):
            scheme.search(TicTacToe(), 0)

    def test_single_worker_degenerates_gracefully(self):
        scheme = SharedTreeMCTS(UniformEvaluator(), num_workers=1, rng=3)
        root = scheme.search(TicTacToe(), 50)
        assert root.visit_count == 50


class TestConcurrencyInvariants:
    def test_no_virtual_loss_residue(self):
        """Every descend must be matched by a backup, across all workers."""
        scheme = SharedTreeMCTS(UniformEvaluator(), num_workers=8, rng=4)
        root = scheme.search(TicTacToe(), 200)
        for node in root.iter_subtree():
            assert node.virtual_loss == pytest.approx(0.0)

    def test_visit_conservation(self):
        scheme = SharedTreeMCTS(UniformEvaluator(), num_workers=8, rng=5)
        root = scheme.search(TicTacToe(), 300)
        for node in root.iter_subtree():
            if node.children:
                child_sum = sum(c.visit_count for c in node.children.values())
                # parent counts its own evaluation visit(s) too
                assert node.visit_count >= child_sum

    def test_wu_uct_policy_works(self):
        scheme = SharedTreeMCTS(
            UniformEvaluator(), num_workers=4, vl_policy=WUVirtualLoss(), rng=6
        )
        root = scheme.search(TicTacToe(), 150)
        assert root.visit_count == 150
        for node in root.iter_subtree():
            assert node.virtual_loss == pytest.approx(0.0)

    def test_worker_exception_propagates(self):
        class Boom(UniformEvaluator):
            def evaluate(self, game):
                if game.move_count if hasattr(game, "move_count") else 0:
                    raise RuntimeError("boom")
                return super().evaluate(game)

        class AlwaysBoom(UniformEvaluator):
            calls = 0

            def evaluate(self, game):
                AlwaysBoom.calls += 1
                if AlwaysBoom.calls > 1:  # let the root warm-up succeed
                    raise RuntimeError("boom")
                return super().evaluate(game)

        scheme = SharedTreeMCTS(AlwaysBoom(), num_workers=2, rng=7)
        with pytest.raises(RuntimeError, match="boom"):
            scheme.search(TicTacToe(), 20)


class TestLeafBatches:
    """Algorithm 2 on one thread: the N leaves in flight go out as one
    ``evaluate_batch``, so every call but the move's last carries N rows."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("game_name", sorted(GAMES))
    def test_every_call_but_the_last_carries_n_rows(self, game_name, workers):
        evaluator = CountingEvaluator()
        scheme = SharedTreeMCTS(evaluator, num_workers=workers, rng=12)
        root = scheme.search(GAMES[game_name](), 97)
        assert root.visit_count == 97
        # the root is evaluated alone first; terminal leaves skip the
        # evaluator
        root_row, *rows = evaluator.rows
        assert root_row == 1
        assert rows, "no leaf was evaluated"
        assert all(r == workers for r in rows[:-1]), rows
        assert 1 <= rows[-1] <= workers
        assert sum(rows) <= 97 - 1


class TestCrowdedPosition:
    """More workers than unexpanded leaves: later workers re-select a leaf
    already in flight or reach a terminal; the search must still spend its
    exact budget and recover every virtual loss."""

    @pytest.mark.parametrize("backend", ["node", "array"])
    @pytest.mark.parametrize("workers", [4, 8, 16])
    def test_budget_and_balance(self, workers, backend):
        evaluator = CountingEvaluator()
        scheme = SharedTreeMCTS(evaluator, num_workers=workers, rng=13)
        with on_backend(backend):
            root = scheme.search(crowded_tictactoe(), 64)
        assert root.visit_count == 64
        assert all(r <= workers for r in evaluator.rows)
        for node in root.iter_subtree():
            assert node.virtual_loss == pytest.approx(0.0)
            assert -1.0 - 1e-9 <= node.q <= 1.0 + 1e-9
            if node.children:
                child_sum = sum(c.visit_count for c in node.children.values())
                assert node.visit_count >= child_sum


class TestVirtualLossBalance:
    @pytest.mark.parametrize("workers", [2, 4, 8])
    @pytest.mark.parametrize(
        "vl_policy", [ConstantVirtualLoss, WUVirtualLoss], ids=["constant", "wu"]
    )
    def test_no_residue_on_connect4(self, vl_policy, workers):
        scheme = SharedTreeMCTS(
            UniformEvaluator(), num_workers=workers, vl_policy=vl_policy(), rng=14
        )
        root = scheme.search(c4_position(), 160)
        assert root.visit_count == 160
        for node in root.iter_subtree():
            assert node.virtual_loss == pytest.approx(0.0)


class TestTacticalStrength:
    def test_finds_winning_move_under_parallelism(self):
        g = TicTacToe()
        for a in [0, 3, 1, 4]:
            g.step(a)
        scheme = SharedTreeMCTS(
            RandomRolloutEvaluator(rng=0), num_workers=4, c_puct=1.5, rng=8
        )
        prior = scheme.get_action_prior(g, 400)
        assert int(np.argmax(prior)) == 2

    def test_connect4_block(self):
        g = ConnectFour()
        for a in [3, 0, 3, 1, 3]:  # X threatens column 3; O must block
            g.step(a)
        scheme = SharedTreeMCTS(
            RandomRolloutEvaluator(rng=1), num_workers=4, c_puct=1.5, rng=9
        )
        prior = scheme.get_action_prior(g, 500)
        assert int(np.argmax(prior)) == 3


class TestAgainstSerial:
    def test_similar_distribution_to_serial(self):
        """Parallel search explores differently (obsolete information), but
        on a simple position the visit distribution should broadly agree
        with serial search -- the paper's Section 5.5 claim."""
        from repro.mcts.serial import SerialMCTS

        serial = SerialMCTS(UniformEvaluator(), rng=10).get_action_prior(
            TicTacToe(), 400
        )
        scheme = SharedTreeMCTS(UniformEvaluator(), num_workers=4, rng=11)
        parallel = scheme.get_action_prior(TicTacToe(), 400)
        # total variation distance should be modest
        tv = 0.5 * np.abs(serial - parallel).sum()
        assert tv < 0.25
