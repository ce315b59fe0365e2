"""Tests for the self-play episode runner."""

import numpy as np
import pytest

from repro.games import TicTacToe
from repro.mcts.evaluation import RandomRolloutEvaluator, UniformEvaluator
from repro.mcts.serial import SerialMCTS
from repro.parallel import SharedTreeMCTS
from repro.training.selfplay import play_episode


class TestEpisodeStructure:
    def test_one_example_per_move(self):
        engine = SerialMCTS(UniformEvaluator(), rng=0)
        result = play_episode(TicTacToe(), engine, num_playouts=20, rng=1)
        assert len(result.examples) == result.moves
        assert result.total_playouts == result.moves * 20

    def test_episode_terminates(self):
        engine = SerialMCTS(UniformEvaluator(), rng=2)
        result = play_episode(TicTacToe(), engine, num_playouts=15, rng=3)
        assert 5 <= result.moves <= 9
        assert result.winner in (1, -1, 0)

    def test_outcome_backfill_perspective(self):
        """z must be +1 for the winner's moves, -1 for the loser's."""
        engine = SerialMCTS(RandomRolloutEvaluator(rng=0), rng=4)
        result = play_episode(
            TicTacToe(), engine, num_playouts=60, temperature_moves=2, rng=5
        )
        if result.winner != 0:
            # mover alternates starting with player 1
            for i, ex in enumerate(result.examples):
                mover = 1 if i % 2 == 0 else -1
                expected = 1.0 if mover == result.winner else -1.0
                assert ex.value == expected
        else:
            assert all(ex.value == 0.0 for ex in result.examples)

    def test_policies_are_distributions(self):
        engine = SerialMCTS(UniformEvaluator(), rng=6)
        result = play_episode(TicTacToe(), engine, num_playouts=25, rng=7)
        for ex in result.examples:
            assert np.isclose(ex.policy.sum(), 1.0)

    def test_max_moves_cap(self):
        engine = SerialMCTS(UniformEvaluator(), rng=8)
        result = play_episode(TicTacToe(), engine, num_playouts=10, max_moves=3, rng=9)
        assert result.moves == 3
        assert result.winner == 0  # unfinished = treated as draw

    def test_input_game_unchanged(self):
        g = TicTacToe()
        engine = SerialMCTS(UniformEvaluator(), rng=10)
        play_episode(g, engine, num_playouts=10, rng=11)
        assert g.cells.sum() == 0

    def test_invalid_playouts(self):
        engine = SerialMCTS(UniformEvaluator())
        with pytest.raises(ValueError):
            play_episode(TicTacToe(), engine, num_playouts=0)


class TestSchemeInterchangeability:
    def test_parallel_scheme_plugs_in(self):
        """Algorithm 1's flag-switched schemes: any ParallelScheme works."""
        scheme = SharedTreeMCTS(UniformEvaluator(), num_workers=4, rng=0)
        result = play_episode(TicTacToe(), scheme, num_playouts=40, rng=1)
        assert result.moves > 0
        assert len(result.examples) == result.moves

    def test_determinism_same_seed(self):
        def run(seed):
            engine = SerialMCTS(UniformEvaluator(), rng=100)
            return play_episode(TicTacToe(), engine, num_playouts=20, rng=seed).moves

        assert run(5) == run(5)
