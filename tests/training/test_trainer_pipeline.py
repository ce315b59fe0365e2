"""Tests for the Trainer, clocks, metrics, and the Algorithm-1 pipeline."""

import numpy as np
import pytest

from repro.games import TicTacToe, build_network_for
from repro.mcts.evaluation import NetworkEvaluator, UniformEvaluator
from repro.mcts.serial import SerialMCTS
from repro.nn import SGD, AlphaZeroLoss
from repro.training import (
    ReplayBuffer,
    Trainer,
    TrainingPipeline,
    VirtualClock,
    WallClock,
)


def make_trainer(seed=0, lr=0.02):
    net = build_network_for(TicTacToe(), channels=(4, 8, 8), rng=seed)
    return net, Trainer(net, SGD(net.parameters(), lr=lr, momentum=0.9), AlphaZeroLoss(1e-4))


def random_batch(n=16, seed=0):
    rng = np.random.default_rng(seed)
    states = rng.random((n, 4, 3, 3))
    policies = rng.dirichlet(np.ones(9), size=n)
    values = rng.uniform(-1, 1, n)
    return states, policies, values


class TestTrainer:
    def test_step_returns_loss(self):
        _, trainer = make_trainer()
        loss = trainer.train_step(*random_batch())
        assert loss.total > 0
        assert trainer.steps == 1

    def test_overfits_fixed_batch(self):
        _, trainer = make_trainer(1)
        batch = random_batch(8, seed=1)
        first = trainer.train_step(*batch).total
        for _ in range(60):
            last = trainer.train_step(*batch).total
        assert last < first

    def test_evaluate_loss_no_step(self):
        _, trainer = make_trainer(2)
        batch = random_batch(seed=2)
        loss1 = trainer.evaluate_loss(*batch)
        loss2 = trainer.evaluate_loss(*batch)
        assert trainer.steps == 0
        assert np.isclose(loss1.total, loss2.total)

    @pytest.mark.parametrize("training", [True, False])
    def test_evaluate_loss_restores_mode(self, training):
        net, trainer = make_trainer(4)
        net.train() if training else net.eval()
        trainer.evaluate_loss(*random_batch(seed=4))
        assert net.training is training
        assert all(layer.training is training for layer in net.trunk.layers)

    def test_batch_mismatch_rejected(self):
        _, trainer = make_trainer(3)
        states, policies, values = random_batch()
        with pytest.raises(ValueError):
            trainer.train_step(states[:4], policies, values)

    def test_bad_state_shape_rejected(self):
        _, trainer = make_trainer(4)
        with pytest.raises(ValueError):
            trainer.train_step(np.zeros((4, 9)), np.zeros((4, 9)), np.zeros(4))


class TestClocks:
    def test_virtual_clock_search_charge(self):
        clock = VirtualClock(per_iteration=10e-6, per_train_batch=1e-3)
        dt = clock.charge_search(1600)
        assert dt == pytest.approx(0.016)
        assert clock.now == pytest.approx(0.016)

    def test_virtual_clock_train_charge(self):
        clock = VirtualClock(per_iteration=10e-6, per_train_batch=2e-3)
        clock.charge_train(5)
        assert clock.now == pytest.approx(0.01)

    def test_overlapped_training_hidden(self):
        """Section 5.4: GPU training hides under the search time."""
        clock = VirtualClock(1e-3, 1e-3, train_overlapped=True)
        clock.charge_search(100)  # 0.1 s
        visible = clock.charge_train(50)  # 0.05 s < search: fully hidden
        assert visible == 0.0
        visible = clock.charge_train(50)
        assert visible == 0.0  # still within the last search window

    def test_overlapped_excess_visible(self):
        clock = VirtualClock(1e-3, 1e-3, train_overlapped=True)
        clock.charge_search(10)  # 0.01 s
        visible = clock.charge_train(50)  # 0.05 s: 0.04 visible
        assert visible == pytest.approx(0.04)

    def test_wall_clock_monotone(self):
        clock = WallClock()
        a = clock.now
        b = clock.now
        assert b >= a

    def test_invalid_latencies(self):
        with pytest.raises(ValueError):
            VirtualClock(-1, 0)


class TestPipeline:
    def _pipeline(self, episodes=4, **kwargs):
        net = build_network_for(TicTacToe(), channels=(4, 8, 8), rng=0)
        scheme = SerialMCTS(NetworkEvaluator(net), rng=1, dirichlet_epsilon=0.25)
        trainer = Trainer(net, SGD(net.parameters(), lr=0.02, momentum=0.9), AlphaZeroLoss())
        defaults = dict(
            num_playouts=15, sgd_iterations=2, batch_size=16,
            clock=VirtualClock(50e-6, 1e-3), rng=2,
        )
        defaults.update(kwargs)
        pipe = TrainingPipeline(TicTacToe(), scheme, trainer, **defaults)
        pipe.run(episodes)
        return pipe

    def test_metrics_populated(self):
        pipe = self._pipeline(3)
        m = pipe.metrics
        assert m.episodes == 3
        assert m.samples_produced > 0
        assert m.search_time > 0
        assert m.train_time > 0
        assert len(m.loss_history) == 3 * 2

    def test_throughput_definition(self):
        pipe = self._pipeline(2)
        m = pipe.metrics
        assert m.throughput == pytest.approx(
            m.samples_produced / (m.search_time + m.train_time)
        )

    def test_buffer_grows_with_symmetries(self):
        pipe = self._pipeline(1)
        assert len(pipe.buffer) == pipe.metrics.samples_produced * 8

    def test_no_augmentation_mode(self):
        pipe = self._pipeline(1, augment_symmetries=False)
        assert len(pipe.buffer) == pipe.metrics.samples_produced

    def test_loss_times_monotone(self):
        pipe = self._pipeline(3)
        times = [p.time for p in pipe.metrics.loss_history]
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_on_episode_callback(self):
        seen = []
        net = build_network_for(TicTacToe(), channels=(2, 4, 4), rng=3)
        scheme = SerialMCTS(UniformEvaluator(), rng=4)
        trainer = Trainer(net, SGD(net.parameters(), lr=0.01), AlphaZeroLoss())
        pipe = TrainingPipeline(
            TicTacToe(), scheme, trainer, num_playouts=10, sgd_iterations=1,
            batch_size=8, rng=5,
        )
        pipe.run(2, on_episode=lambda i, m: seen.append(i))
        assert seen == [0, 1]

    def test_invalid_args(self):
        net = build_network_for(TicTacToe(), channels=(2, 4, 4), rng=6)
        scheme = SerialMCTS(UniformEvaluator())
        trainer = Trainer(net, SGD(net.parameters(), lr=0.01), AlphaZeroLoss())
        with pytest.raises(ValueError):
            TrainingPipeline(TicTacToe(), scheme, trainer, sgd_iterations=-1)
        pipe = TrainingPipeline(TicTacToe(), scheme, trainer)
        with pytest.raises(ValueError):
            pipe.run(0)


class TestMetrics:
    def test_smoothed_losses(self):
        from repro.training.metrics import TrainingMetrics

        m = TrainingMetrics()
        for i, total in enumerate([4.0, 2.0, 0.0]):
            m.record_loss(float(i), 0, i, total, 0.0, total)
        assert m.smoothed_losses(window=2) == [4.0, 3.0, 1.0]
        assert m.final_loss == 0.0

    def test_final_loss_empty_raises(self):
        from repro.training.metrics import TrainingMetrics

        with pytest.raises(ValueError):
            _ = TrainingMetrics().final_loss
