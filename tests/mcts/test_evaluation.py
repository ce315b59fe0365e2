"""Tests for leaf evaluators."""

import numpy as np
import pytest

from repro.games import TicTacToe, build_network_for
from repro.mcts.evaluation import (
    NetworkEvaluator,
    RandomRolloutEvaluator,
    UniformEvaluator,
    mask_and_normalize,
)


class TestMaskAndNormalize:
    def test_renormalises(self):
        probs = np.array([0.5, 0.3, 0.2])
        mask = np.array([True, False, True])
        out = mask_and_normalize(probs, mask)
        assert np.isclose(out.sum(), 1.0)
        assert out[1] == 0.0

    def test_uniform_fallback_when_all_illegal_mass(self):
        probs = np.array([0.0, 1.0, 0.0])
        mask = np.array([True, False, True])
        out = mask_and_normalize(probs, mask)
        assert np.allclose(out, [0.5, 0.0, 0.5])

    def test_no_legal_raises(self):
        with pytest.raises(ValueError):
            mask_and_normalize(np.ones(3), np.zeros(3, dtype=bool))


class TestUniformEvaluator:
    def test_uniform_over_legal(self):
        g = TicTacToe()
        g.step(4)
        ev = UniformEvaluator().evaluate(g)
        assert np.isclose(ev.priors.sum(), 1.0)
        assert ev.priors[4] == 0.0
        assert np.isclose(ev.priors[0], 1 / 8)
        assert ev.value == 0.0


class TestNetworkEvaluator:
    def test_masks_illegal(self):
        g = TicTacToe()
        g.step(0)
        net = build_network_for(g, channels=(2, 4, 4), rng=0)
        ev = NetworkEvaluator(net).evaluate(g)
        assert ev.priors[0] == 0.0
        assert np.isclose(ev.priors.sum(), 1.0)
        assert -1.0 <= ev.value <= 1.0

    def test_batch_matches_single(self):
        g1, g2 = TicTacToe(), TicTacToe()
        g2.step(4)
        net = build_network_for(g1, channels=(2, 4, 4), rng=1)
        evaluator = NetworkEvaluator(net)
        batch = evaluator.evaluate_batch([g1, g2])
        single1 = evaluator.evaluate(g1)
        single2 = evaluator.evaluate(g2)
        assert np.allclose(batch[0].priors, single1.priors)
        assert np.allclose(batch[1].priors, single2.priors)
        assert np.isclose(batch[0].value, single1.value)
        assert np.isclose(batch[1].value, single2.value)

    def test_empty_batch(self):
        net = build_network_for(TicTacToe(), channels=(2, 4, 4), rng=2)
        assert NetworkEvaluator(net).evaluate_batch([]) == []

    def test_batch_rows_do_not_share_memory(self):
        """Evaluations outlive their batch (the LRU cache keeps them), so
        each row of a multi-row batch is its own array, not a view that
        pins the whole batch or aliases a neighbour."""
        games = [TicTacToe() for _ in range(3)]
        games[1].step(4)
        games[2].step(0)
        net = build_network_for(games[0], channels=(2, 4, 4), rng=2)
        batch = NetworkEvaluator(net).evaluate_batch(games)
        for i, ev in enumerate(batch):
            assert ev.priors.base is None
            for other in batch[i + 1:]:
                assert not np.shares_memory(ev.priors, other.priors)


class TestRandomRolloutEvaluator:
    def test_value_in_range(self):
        ev = RandomRolloutEvaluator(num_rollouts=4, rng=0)
        result = ev.evaluate(TicTacToe())
        assert -1.0 <= result.value <= 1.0

    def test_uniform_priors(self):
        ev = RandomRolloutEvaluator(rng=1)
        result = ev.evaluate(TicTacToe())
        assert np.allclose(result.priors, 1 / 9)

    def test_detects_immediate_loss(self):
        """From a position where the opponent wins at once from most
        rollouts, the value should be clearly negative."""
        g = TicTacToe()
        # X: 0, 1; O: 3, 4 -- O to move would win with 5... build a state
        # where the mover (O) is nearly lost: X has two open lines.
        for a in [0, 8, 1, 7]:  # X at 0,1 (needs 2); O at 8,7 (needs 6)
            g.step(a)
        # X to move: X wins immediately by playing 2 in many rollouts
        ev = RandomRolloutEvaluator(num_rollouts=64, rng=2)
        result = ev.evaluate(g)
        assert result.value > 0.0  # mover (X) is favoured

    def test_more_rollouts_reduce_variance(self):
        g = TicTacToe()
        few = [RandomRolloutEvaluator(1, rng=s).evaluate(g).value for s in range(40)]
        many = [RandomRolloutEvaluator(32, rng=s).evaluate(g).value for s in range(40)]
        assert np.std(many) < np.std(few)

    def test_invalid_rollouts(self):
        with pytest.raises(ValueError):
            RandomRolloutEvaluator(0)
