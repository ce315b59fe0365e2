"""Cross-module integration tests: the full system working together."""

import numpy as np
import pytest

from repro.games import Gomoku, TicTacToe, build_network_for
from repro.mcts import NetworkEvaluator, RandomRolloutEvaluator, SerialMCTS, UniformEvaluator
from repro.nn import SGD, AlphaZeroLoss
from repro.parallel import (
    LeafParallelMCTS,
    LocalTreeMCTS,
    RootParallelMCTS,
    SharedTreeMCTS,
)
from repro.perfmodel import DesignConfigurator, profile_virtual
from repro.parallel.base import SchemeName
from repro.simulator import LocalTreeSimulation, SharedTreeSimulation, paper_platform
from repro.training import Trainer, TrainingPipeline, VirtualClock

ALL_SCHEMES = [
    lambda ev, rng: SharedTreeMCTS(ev, num_workers=4, rng=rng),
    lambda ev, rng: LocalTreeMCTS(ev, num_workers=4, batch_size=2, rng=rng),
    lambda ev, rng: LeafParallelMCTS(ev, num_workers=4, rng=rng),
    lambda ev, rng: RootParallelMCTS(ev, num_workers=4, rng=rng),
]


class TestAllSchemesTactical:
    """Every parallel scheme must solve the same tactical position --
    the paper's program-template interchangeability, checked end to end."""

    @pytest.mark.parametrize("factory", ALL_SCHEMES)
    def test_finds_winning_move(self, factory):
        g = TicTacToe()
        for a in [0, 3, 1, 4]:  # X wins at 2
            g.step(a)
        scheme = factory(RandomRolloutEvaluator(rng=0), 42)
        prior = scheme.get_action_prior(g, 400)
        assert int(np.argmax(prior)) == 2, scheme.name

    @pytest.mark.parametrize("factory", ALL_SCHEMES)
    def test_network_evaluator_integration(self, factory):
        net = build_network_for(TicTacToe(), channels=(2, 4, 4), rng=0)
        scheme = factory(NetworkEvaluator(net), 43)
        prior = scheme.get_action_prior(TicTacToe(), 60)
        assert np.isclose(prior.sum(), 1.0)


class TestTrainingImprovesPlay:
    def test_trained_net_beats_untrained(self):
        """Short training on TicTacToe must beat an untrained opponent
        head-to-head (both using small serial searches)."""
        trained = build_network_for(TicTacToe(), channels=(4, 8, 8), rng=0)
        frozen = build_network_for(TicTacToe(), channels=(4, 8, 8), rng=0)
        scheme = SerialMCTS(NetworkEvaluator(trained), rng=1, dirichlet_epsilon=0.25)
        trainer = Trainer(
            trained, SGD(trained.parameters(), lr=0.05, momentum=0.9), AlphaZeroLoss(1e-4)
        )
        pipe = TrainingPipeline(
            TicTacToe(), scheme, trainer, num_playouts=25, sgd_iterations=6,
            batch_size=64, rng=2,
        )
        pipe.run(12)
        first = pipe.metrics.loss_history[0].total
        last = np.mean([p.total for p in pipe.metrics.loss_history[-6:]])
        assert last < first  # learning happened

        # head-to-head: trained vs untrained, alternate colours
        wins, losses = 0, 0
        rng = np.random.default_rng(3)
        for game_idx in range(6):
            g = TicTacToe()
            trained_engine = SerialMCTS(NetworkEvaluator(trained), rng=rng)
            frozen_engine = SerialMCTS(NetworkEvaluator(frozen), rng=rng)
            trained_is_x = game_idx % 2 == 0
            while not g.is_terminal:
                is_x_turn = g.current_player == 1
                engine = trained_engine if (is_x_turn == trained_is_x) else frozen_engine
                prior = engine.get_action_prior(g, 30)
                g.step(int(np.argmax(prior)))
            if g.winner == 0:
                continue
            trained_won = (g.winner == 1) == trained_is_x
            wins += trained_won
            losses += not trained_won
        assert wins >= losses  # trained agent at least holds its own


class TestAdaptiveWorkflowEndToEnd:
    def test_configure_then_instantiate_and_run(self):
        """Full Section-4.2 workflow: profile -> model -> configure ->
        instantiate the chosen real scheme -> search."""
        plat = paper_platform()
        prof = profile_virtual(Gomoku(9, 5), plat, num_playouts=200)
        cfg = DesignConfigurator(prof, plat.gpu).configure(num_workers=8, use_gpu=False)
        ev = UniformEvaluator()
        if cfg.scheme == SchemeName.SHARED_TREE:
            scheme = SharedTreeMCTS(ev, num_workers=8, rng=0)
        else:
            scheme = LocalTreeMCTS(ev, num_workers=8, rng=0)
        prior = scheme.get_action_prior(Gomoku(9, 5), 100)
        assert np.isclose(prior.sum(), 1.0)

    def test_adaptive_never_worse_than_both_fixed(self):
        """The core paper claim, measured on the DES at several N."""
        plat = paper_platform()
        game = Gomoku(15, 5)
        ev = UniformEvaluator()
        prof = profile_virtual(game, plat, num_playouts=300)
        cfg = DesignConfigurator(prof, plat.gpu)
        for n in (4, 16, 64):
            choice = cfg.configure_cpu(n)
            rs = SharedTreeSimulation(game, ev, plat, num_workers=n).run(300)
            rl = LocalTreeSimulation(game, ev, plat, num_workers=n).run(300)
            measured = {
                SchemeName.SHARED_TREE: rs.per_iteration,
                SchemeName.LOCAL_TREE: rl.per_iteration,
            }
            adaptive = measured[choice.scheme]
            assert adaptive <= min(measured.values()) * 1.05  # within 5%


class TestSimulatedVsRealSchemesAgree:
    def test_visit_distributions_similar(self):
        """The DES executes the same algorithm as the threaded code: root
        visit distributions over the same budget should be close."""
        game = TicTacToe()
        ev = UniformEvaluator()
        plat = paper_platform()
        sim = SharedTreeSimulation(game, ev, plat, num_workers=4).run(400)
        sim_prior = np.zeros(9)
        for a, c in sim.root.children.items():
            sim_prior[a] = c.visit_count
        sim_prior /= sim_prior.sum()
        scheme = SharedTreeMCTS(ev, num_workers=4, rng=0)
        real_prior = scheme.get_action_prior(game, 400)
        tv = 0.5 * np.abs(sim_prior - real_prior).sum()
        assert tv < 0.25
