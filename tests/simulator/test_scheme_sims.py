"""Tests for the virtual-time shared-tree and local-tree simulations.

These verify (a) the *algorithm* executed under the DES is the genuine
MCTS (tree invariants, playout budgets, tactical correctness) and (b) the
*timing* behaves the way the paper's analysis says it must (parallel
speedup, memory-regime gap, batching effects).
"""

import numpy as np
import pytest

from repro.games import Gomoku, TicTacToe
from repro.mcts.evaluation import UniformEvaluator
from repro.mcts.virtual_loss import ConstantVirtualLoss, WUVirtualLoss
from repro.simulator import (
    LocalTreeSimulation,
    SharedTreeSimulation,
    paper_platform,
)

PLAT = paper_platform()
EV = UniformEvaluator()


class BatchSizeLog(UniformEvaluator):
    """Uniform evaluator that records each batch's size."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def evaluate_batch(self, games):
        self.sizes.append(len(games))
        return super().evaluate_batch(games)


class TestSharedTreeSimulation:
    def test_playout_budget(self):
        r = SharedTreeSimulation(TicTacToe(), EV, PLAT, num_workers=4).run(100)
        assert r.playouts == 100
        assert r.root.visit_count == 100

    def test_tree_invariants(self):
        r = SharedTreeSimulation(TicTacToe(), EV, PLAT, num_workers=8).run(200)
        for node in r.root.iter_subtree():
            assert node.virtual_loss == pytest.approx(0.0)
            if node.children:
                child_sum = sum(c.visit_count for c in node.children.values())
                assert node.visit_count >= child_sum

    def test_parallel_speedup(self):
        t1 = SharedTreeSimulation(TicTacToe(), EV, PLAT, num_workers=1).run(200).total_time
        t8 = SharedTreeSimulation(TicTacToe(), EV, PLAT, num_workers=8).run(200).total_time
        assert t8 < t1 / 3  # strong scaling, allowing contention losses

    def test_lock_contention_grows_with_workers(self):
        lw2 = SharedTreeSimulation(Gomoku(9, 5), EV, PLAT, num_workers=2).run(200).lock_wait
        lw16 = SharedTreeSimulation(Gomoku(9, 5), EV, PLAT, num_workers=16).run(200).lock_wait
        assert lw16 > lw2

    def test_gpu_mode_batches(self):
        r = SharedTreeSimulation(
            TicTacToe(), EV, PLAT, num_workers=4, use_gpu=True
        ).run(100)
        assert r.gpu_batches > 0
        assert r.gpu_busy > 0
        assert r.batch_size == 4  # shared tree always full-batches

    def test_gpu_batches_fill_to_n(self):
        """The workers' requests go to the accelerator in batches of N;
        the move's tail flushes whatever is left, so no worker waits on
        a batch that can never fill."""
        ev = BatchSizeLog()
        r = SharedTreeSimulation(
            Gomoku(9, 5), ev, PLAT, num_workers=4, use_gpu=True
        ).run(103)
        assert r.root.visit_count == 103
        assert sum(ev.sizes) == 102  # every playout but the root's warm-up
        # full batches until the playouts run out; then each worker still
        # holding a playout flushes its own partial batch
        full = next(i for i, n in enumerate(ev.sizes) if n < 4)
        assert ev.sizes[:full] == [4] * full
        assert all(n < 4 for n in ev.sizes[full:])
        assert len(ev.sizes) - full <= 4
        assert r.gpu_batches == len(ev.sizes)

    def test_gpu_wrong_result_count_raises(self):
        class Short(UniformEvaluator):
            def evaluate_batch(self, games):
                return super().evaluate_batch(games)[:-1]

        sim = SharedTreeSimulation(TicTacToe(), Short(), PLAT, 2, use_gpu=True)
        with pytest.raises(RuntimeError, match="wrong number of results"):
            sim.run(20)

    def test_gpu_requires_gpu_spec(self):
        with pytest.raises(ValueError):
            SharedTreeSimulation(
                TicTacToe(), EV, paper_platform(with_gpu=False), 4, use_gpu=True
            )

    def test_deterministic(self):
        a = SharedTreeSimulation(TicTacToe(), EV, PLAT, num_workers=4).run(150)
        b = SharedTreeSimulation(TicTacToe(), EV, PLAT, num_workers=4).run(150)
        assert a.total_time == b.total_time
        assert a.tree_size == b.tree_size

    def test_compute_tags_present(self):
        r = SharedTreeSimulation(TicTacToe(), EV, PLAT, num_workers=4).run(100)
        for tag in ("select", "vl", "expand", "backup", "dnn"):
            assert tag in r.compute_by_tag, tag

    def test_both_vl_policies(self):
        for vl in (ConstantVirtualLoss(), WUVirtualLoss()):
            r = SharedTreeSimulation(
                TicTacToe(), EV, PLAT, num_workers=4, vl_policy=vl
            ).run(80)
            assert r.root.visit_count == 80


class TestLocalTreeSimulation:
    def test_playout_budget(self):
        r = LocalTreeSimulation(TicTacToe(), EV, PLAT, num_workers=4).run(100)
        assert r.root.visit_count == 100

    def test_no_locks_used(self):
        r = LocalTreeSimulation(TicTacToe(), EV, PLAT, num_workers=4).run(100)
        assert r.lock_wait == 0.0

    def test_tree_invariants(self):
        r = LocalTreeSimulation(TicTacToe(), EV, PLAT, num_workers=8, batch_size=4).run(200)
        for node in r.root.iter_subtree():
            assert node.virtual_loss == pytest.approx(0.0)

    def test_evaluation_overlap_speedup(self):
        t1 = LocalTreeSimulation(TicTacToe(), EV, PLAT, num_workers=1).run(200).total_time
        t8 = LocalTreeSimulation(TicTacToe(), EV, PLAT, num_workers=8).run(200).total_time
        assert t8 < t1 / 3

    def test_gpu_batching(self):
        r = LocalTreeSimulation(
            Gomoku(9, 5), EV, PLAT, num_workers=16, batch_size=8, use_gpu=True
        ).run(200)
        assert r.gpu_batches >= 200 // 8 - 2
        assert r.batch_size == 8

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            LocalTreeSimulation(TicTacToe(), EV, PLAT, num_workers=4, batch_size=8)

    def test_deterministic(self):
        a = LocalTreeSimulation(TicTacToe(), EV, PLAT, num_workers=4).run(150)
        b = LocalTreeSimulation(TicTacToe(), EV, PLAT, num_workers=4).run(150)
        assert a.total_time == b.total_time

    def test_more_workers_than_playouts(self):
        r = LocalTreeSimulation(TicTacToe(), EV, PLAT, num_workers=32).run(10)
        assert r.root.visit_count == 10


class TestPaperTimingClaims:
    """Timing relations the paper's Section 3/4 analysis asserts."""

    def test_local_in_tree_cheaper_than_shared(self):
        """Cache-resident local tree must spend less virtual time on
        selection than the DDR-resident shared tree (same workload)."""
        rs = SharedTreeSimulation(Gomoku(9, 5), EV, PLAT, num_workers=4).run(300)
        rl = LocalTreeSimulation(Gomoku(9, 5), EV, PLAT, num_workers=4).run(300)
        assert rl.compute_by_tag["select"] < rs.compute_by_tag["select"]

    def test_shared_wins_at_large_n_cpu(self):
        """Figure 4's crossover: at N=64 the serialised master becomes the
        bottleneck and the shared tree takes over."""
        game = Gomoku(15, 5)
        rs = SharedTreeSimulation(game, EV, PLAT, num_workers=64).run(400)
        rl = LocalTreeSimulation(game, EV, PLAT, num_workers=64).run(400)
        assert rs.per_iteration < rl.per_iteration

    def test_local_wins_at_small_n_cpu(self):
        game = Gomoku(15, 5)
        rs = SharedTreeSimulation(game, EV, PLAT, num_workers=4).run(400)
        rl = LocalTreeSimulation(game, EV, PLAT, num_workers=4).run(400)
        assert rl.per_iteration < rs.per_iteration

    def test_batch_one_gpu_is_pathological(self):
        """Figure 3: B=1 serialises inferences and dominates the runtime."""
        game = Gomoku(9, 5)
        r1 = LocalTreeSimulation(game, EV, PLAT, 16, batch_size=1, use_gpu=True).run(200)
        r8 = LocalTreeSimulation(game, EV, PLAT, 16, batch_size=8, use_gpu=True).run(200)
        assert r1.per_iteration > 2 * r8.per_iteration

    def test_full_batch_worse_than_sub_batch_at_n16(self):
        """Figure 3/5: at N=16 the sub-batched local tree beats full batch
        because GPU compute overlaps the master's selections."""
        game = Gomoku(15, 5)
        rf = LocalTreeSimulation(game, EV, PLAT, 16, batch_size=16, use_gpu=True).run(400)
        rb = LocalTreeSimulation(game, EV, PLAT, 16, batch_size=8, use_gpu=True).run(400)
        assert rb.per_iteration < rf.per_iteration
