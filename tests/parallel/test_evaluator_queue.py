"""The accelerator queue of Section 3.3 is the evaluation bus: leaves
accumulate until every registered producer has one pending, then go to
the evaluator as one batch."""

import threading

import numpy as np
import pytest

from repro.games import TicTacToe
from repro.mcts.evaluation import UniformEvaluator
from repro.parallel import SharedTreeMCTS
from repro.serving import EvaluationBus


def make_bus(evaluator, producers: int, linger: float = 0.5, **kwargs):
    """A bus with *producers* searches registered (the flush threshold)."""
    bus = EvaluationBus(evaluator, linger=linger, **kwargs)
    for _ in range(producers):
        bus.begin_search()
    return bus


class TestBusQueue:
    def test_flush_at_threshold(self):
        bus = make_bus(UniformEvaluator(), producers=3)
        futures = [bus.submit(TicTacToe()) for _ in range(3)]
        # third submit meets the headcount and flushes inline
        assert all(f.done() for f in futures)
        stats = bus.stats()
        assert stats.batches == 1
        assert stats.requests == 3
        assert stats.threshold_flushes == 1

    def test_partial_batch_waits(self):
        bus = make_bus(UniformEvaluator(), producers=4)
        fut = bus.submit(TicTacToe())
        assert not fut.done()
        assert bus.pending_count == 1

    def test_manual_flush(self):
        bus = make_bus(UniformEvaluator(), producers=4)
        fut = bus.submit(TicTacToe())
        assert bus.flush() == 1
        assert fut.done()

    def test_lone_search_flushes_every_leaf_inline(self):
        """Headcount <= 1: no linger wait, ever -- the submit that enqueues
        the leaf evaluates it."""
        for producers in (0, 1):
            bus = make_bus(UniformEvaluator(), producers=producers, linger=10.0)
            assert bus.submit(TicTacToe()).done()
            bus.evaluate(TicTacToe())  # would block 10 s on the linger
            stats = bus.stats()
            assert stats.threshold_flushes == stats.batches == 2
            assert stats.linger_flushes == 0

    def test_evaluate_linger_flush(self):
        bus = make_bus(UniformEvaluator(), producers=8, linger=0.01)
        ev = bus.evaluate(TicTacToe())
        assert np.isclose(ev.priors.sum(), 1.0)
        assert bus.stats().linger_flushes == 1

    def test_results_match_request_order(self):
        g1, g2 = TicTacToe(), TicTacToe()
        g2.step(0)
        bus = make_bus(UniformEvaluator(), producers=2)
        f1 = bus.submit(g1)
        f2 = bus.submit(g2)
        assert f1.result().priors[0] > 0  # g1: cell 0 legal
        assert f2.result().priors[0] == 0  # g2: cell 0 taken

    def test_exception_propagates_to_all(self):
        class Broken(UniformEvaluator):
            def evaluate_batch(self, games):
                raise RuntimeError("device lost")

        bus = make_bus(Broken(), producers=2)
        f1 = bus.submit(TicTacToe())
        f2 = bus.submit(TicTacToe())
        for f in (f1, f2):
            with pytest.raises(RuntimeError, match="device lost"):
                f.result()

    def test_concurrent_producers(self):
        bus = make_bus(UniformEvaluator(), producers=4, linger=0.01)
        results = []
        lock = threading.Lock()

        def producer():
            ev = bus.evaluate(TicTacToe())
            with lock:
                results.append(ev)

        threads = [threading.Thread(target=producer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert bus.stats().requests == 8

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            EvaluationBus(UniformEvaluator(), max_batch=0)
        with pytest.raises(ValueError):
            EvaluationBus(UniformEvaluator(), linger=0.0)


class CountingEvaluator(UniformEvaluator):
    """Uniform priors; records the rows of every evaluator call."""

    def __init__(self):
        self.rows_per_call: list[int] = []

    def evaluate(self, game):
        self.rows_per_call.append(1)
        return super().evaluate(game)

    def evaluate_batch(self, games):
        self.rows_per_call.append(len(games))
        return [UniformEvaluator.evaluate(self, g) for g in games]


class TestSharedTreeBatch:
    def test_shared_tree_fuses_its_leaves(self):
        """The paper's shared-tree + accelerator configuration: the N
        leaves in flight go to the evaluator as one call (batch == N)."""
        counting = CountingEvaluator()
        scheme = SharedTreeMCTS(counting, num_workers=4, rng=0)
        prior = scheme.get_action_prior(TicTacToe(), 60)
        assert np.isclose(prior.sum(), 1.0)
        calls = counting.rows_per_call
        assert max(calls) == 4
        assert len(calls) < sum(calls)
