"""Tests for design-time profiling and the adaptive configurator."""

import numpy as np
import pytest

from repro.games import Gomoku, SyntheticTreeGame, TicTacToe
from repro.mcts.evaluation import UniformEvaluator
from repro.mcts.serial import SerialMCTS
from repro.parallel.base import SchemeName
from repro.perfmodel import (
    DesignConfigurator,
    profile_virtual,
    profile_wallclock,
)
from repro.simulator import LocalTreeSimulation, SharedTreeSimulation, paper_platform

PLAT = paper_platform()


class TestProfileWallclock:
    def test_measures_positive_latencies(self):
        prof = profile_wallclock(TicTacToe(), UniformEvaluator(), num_playouts=50)
        assert prof.t_select_local > 0
        assert prof.t_dnn_cpu > 0

    def test_gomoku_phase_latencies_finite_and_positive(self):
        prof = profile_wallclock(Gomoku(7, 4), UniformEvaluator(), 200)
        for t in (prof.t_select_local, prof.t_backup_local, prof.t_dnn_cpu):
            assert np.isfinite(t) and t > 0

    def test_evaluations_skip_terminal_leaves(self):
        """``evaluate`` counts one operation per non-terminal leaf: every
        visit to a terminal row is a playout that ended there unevaluated."""
        game = TicTacToe()
        for a in (0, 3, 1, 4):  # X to move, wins at 2
            game.step(a)
        engine = SerialMCTS(UniformEvaluator(), rng=0)
        root = engine.search(game, 200)
        terminal_hits = sum(
            node.visit_count for node in root.iter_subtree() if node.is_terminal
        )
        stats = engine.stats
        assert terminal_hits > 0
        assert stats.evaluate.operations == stats.playouts - terminal_hits
        assert stats.select.operations == stats.backup.operations == 200

    def test_ddr_scaling_applied(self):
        prof = profile_wallclock(
            TicTacToe(), UniformEvaluator(), num_playouts=50, ddr_cache_ratio=4.0
        )
        assert prof.t_select_shared == pytest.approx(4.0 * prof.t_select_local)

    def test_synthetic_tree_profiling(self):
        """Section 4.2's procedure: profile on a synthetic tree emulating
        the application's fanout and depth limit."""
        game = SyntheticTreeGame(fanout=8, depth_limit=10, board_size=5)
        prof = profile_wallclock(game, UniformEvaluator(), num_playouts=100)
        assert prof.t_select_local > 0


class TestProfileVirtual:
    def test_shared_regime_costs_more(self):
        prof = profile_virtual(Gomoku(9, 5), PLAT, num_playouts=100)
        assert prof.t_select_shared > prof.t_select_local
        assert prof.t_backup_shared > prof.t_backup_local

    def test_dnn_latency_from_spec(self):
        prof = profile_virtual(TicTacToe(), PLAT, num_playouts=30)
        assert prof.t_dnn_cpu == PLAT.cpu.dnn_latency

    def test_fanout_recorded(self):
        prof = profile_virtual(Gomoku(9, 5), PLAT, num_playouts=60)
        assert 60 < prof.mean_expand_children <= 81

    def test_deterministic(self):
        a = profile_virtual(TicTacToe(), PLAT, num_playouts=50)
        b = profile_virtual(TicTacToe(), PLAT, num_playouts=50)
        assert a.t_select_shared == b.t_select_shared


class TestDesignConfigurator:
    @pytest.fixture
    def configurator(self):
        prof = profile_virtual(Gomoku(15, 5), PLAT, num_playouts=300)
        return DesignConfigurator(prof, PLAT.gpu)

    def test_cpu_choice_matches_simulator(self, configurator):
        """The headline claim: the model-guided choice is the actually
        -faster scheme on the (simulated) platform, for every N."""
        game = Gomoku(15, 5)
        ev = UniformEvaluator()
        for n in (1, 4, 16, 64):
            cfg = configurator.configure_cpu(n)
            rs = SharedTreeSimulation(game, ev, PLAT, num_workers=n).run(300)
            rl = LocalTreeSimulation(game, ev, PLAT, num_workers=n).run(300)
            actual = (
                SchemeName.SHARED_TREE
                if rs.per_iteration < rl.per_iteration
                else SchemeName.LOCAL_TREE
            )
            assert cfg.scheme == actual, f"N={n}"

    def test_gpu_batch_search_is_logarithmic(self, configurator):
        cfg = configurator.configure_gpu(64)
        assert cfg.batch_search is not None
        assert cfg.batch_search.test_runs <= 14  # ~2 log2(64) + endpoint

    def test_gpu_choice_structure(self, configurator):
        cfg16 = configurator.configure_gpu(16)
        cfg64 = configurator.configure_gpu(64)
        # large N must prefer the sub-batched local tree (Figure 5)
        assert cfg64.scheme == SchemeName.LOCAL_TREE
        assert cfg64.batch_size < 64
        # candidates recorded for reporting
        assert "shared_tree" in cfg16.candidates

    def test_speedup_vs_worst_nonnegative(self, configurator):
        cfg = configurator.configure_gpu(32)
        assert cfg.speedup_vs_worst >= 1.0

    def test_measured_mode_requires_shared_measurement(self, configurator):
        with pytest.raises(ValueError):
            configurator.configure_gpu(8, measure=lambda b: 1.0)

    def test_measured_mode(self, configurator):
        game = Gomoku(9, 5)
        ev = UniformEvaluator()

        def measure(b):
            return (
                LocalTreeSimulation(game, ev, PLAT, 16, batch_size=b, use_gpu=True)
                .run(150)
                .per_iteration
            )

        shared = SharedTreeSimulation(game, ev, PLAT, 16, use_gpu=True).run(150)
        cfg = configurator.configure_gpu(
            16, measure=measure, measured_shared=shared.per_iteration
        )
        assert cfg.scheme in (SchemeName.SHARED_TREE, SchemeName.LOCAL_TREE)
        assert cfg.predicted_latency <= max(cfg.candidates.values())

    def test_gpu_without_spec_raises(self):
        prof = profile_virtual(TicTacToe(), PLAT, num_playouts=30)
        cfg = DesignConfigurator(prof, gpu=None)
        with pytest.raises(ValueError):
            cfg.configure_gpu(8)

    def test_configure_dispatch(self, configurator):
        assert configurator.configure(8, use_gpu=False).use_gpu is False
        assert configurator.configure(8, use_gpu=True).use_gpu is True
