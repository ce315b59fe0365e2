"""Multi-game engine: round semantics, stats accounting, serial parity."""

import os

import numpy as np
import pytest

from repro.games import SyntheticTreeGame, TicTacToe, build_network_for
from repro.mcts.evaluation import NetworkEvaluator, UniformEvaluator
from repro.mcts.serial import SerialMCTS
from repro.nn import Adam, AlphaZeroLoss
from repro.serving import MultiGameSelfPlayEngine
from repro.training import Trainer, TrainingPipeline
from repro.training.selfplay import play_episode
from repro.utils.rng import new_rng, spawn_rngs


def make_engine(num_games=4, num_playouts=12, **kwargs):
    game = SyntheticTreeGame(fanout=4, depth_limit=6, board_size=5, seed=7)
    return MultiGameSelfPlayEngine(
        game, UniformEvaluator(), num_games=num_games,
        num_playouts=num_playouts, rng=0, **kwargs
    )


class TestPlayRound:
    def test_round_returns_one_episode_per_game(self):
        with make_engine(num_games=5) as engine:
            results, stats = engine.play_round()
        assert len(results) == 5
        assert stats.games == 5
        assert stats.moves == sum(r.moves for r in results)
        assert all(r.moves > 0 and r.examples for r in results)

    def test_stats_accounting_consistent(self):
        with make_engine(num_games=6) as engine:
            _, stats = engine.play_round()
        # every evaluation request either hit the cache or reached the queue
        assert stats.eval_requests == stats.cache_misses
        assert stats.cache_hits + stats.cache_misses >= stats.eval_requests
        assert stats.eval_batches > 0
        assert stats.mean_batch_occupancy == pytest.approx(
            stats.eval_requests / stats.eval_batches
        )
        assert stats.games_per_sec > 0
        d = stats.as_dict()
        assert d["games"] == 6 and d["cache_hit_rate"] >= 0.0

    def test_occupancy_exceeds_single_game(self):
        """The whole point: cross-game multiplexing fills batches past 1."""
        with make_engine(num_games=8, num_playouts=16) as engine:
            _, stats = engine.play_round()
        assert stats.mean_batch_occupancy > 1.5

    def test_stats_reset_between_rounds(self):
        with make_engine(num_games=3) as engine:
            _, first = engine.play_round()
            _, second = engine.play_round()
        # per-round deltas, not lifetime totals
        assert second.games == 3
        assert second.eval_requests < first.eval_requests + first.eval_requests + 1
        # the cache carries across rounds, so round 2 hits more
        assert second.cache_hit_rate >= first.cache_hit_rate

    def test_round_releases_every_search_on_the_bus(self):
        """Each game registers one busy search at round start and ends it
        when its episode ends, so a finished round leaves no headcount
        behind to hold the next round's batches back; the bus caps a
        batch at the game count."""
        with make_engine(num_games=4) as engine:
            for _ in range(2):
                _, stats = engine.play_round()
                bus = engine.bus.stats()
                assert bus.busy_searches == 0
                assert bus.pending == 0
                assert bus.max_batch_seen <= 4
                assert 0 <= stats.linger_flushes <= stats.partial_flushes
                assert stats.partial_flushes <= stats.eval_batches

    def test_round_matches_sequential_episodes(self):
        """Program-template invariant at engine level: the concurrent round
        produces exactly the episodes a sequential loop over the same
        spawned seeds produces -- batching and caching change *where*
        evaluations run, never their results."""
        game = SyntheticTreeGame(fanout=4, depth_limit=6, board_size=5, seed=7)
        evaluator = UniformEvaluator()
        with MultiGameSelfPlayEngine(
            game, evaluator, num_games=4, num_playouts=10, rng=0
        ) as engine:
            results, _ = engine.play_round()

        reference_rngs = spawn_rngs(new_rng(0), 4)
        for got, game_rng in zip(results, reference_rngs):
            expected = play_episode(
                game, SerialMCTS(evaluator, rng=game_rng), 10, rng=game_rng
            )
            assert got.winner == expected.winner
            assert got.moves == expected.moves
            for ge, ee in zip(got.examples, expected.examples):
                np.testing.assert_array_equal(ge.policy, ee.policy)
                assert ge.value == ee.value

    def test_invalid_args(self):
        game = TicTacToe()
        with pytest.raises(ValueError):
            MultiGameSelfPlayEngine(game, UniformEvaluator(), num_games=0)
        with pytest.raises(ValueError):
            MultiGameSelfPlayEngine(game, UniformEvaluator(), num_playouts=0)
        with pytest.raises(ValueError):
            MultiGameSelfPlayEngine(game, UniformEvaluator(), backend="fiber")


class TestProcessBackend:
    """backend="process": the engine delegates rounds to a SelfPlayFarm
    behind the same play_round surface."""

    def test_round_matches_thread_backend(self):
        """Both backends spawn per-game seeds from the engine rng the same
        way, so with a deterministic evaluator they produce identical
        transcripts -- the engine-level scheme-equivalence invariant."""
        game = TicTacToe()
        with MultiGameSelfPlayEngine(
            game, UniformEvaluator(), num_games=4, num_playouts=10, rng=0
        ) as thread_engine:
            thread_results, _ = thread_engine.play_round()
        with MultiGameSelfPlayEngine(
            game, UniformEvaluator(), num_games=4, num_playouts=10, rng=0,
            backend="process", num_workers=2,
        ) as process_engine:
            process_results, process_stats = process_engine.play_round()
        for t, p in zip(thread_results, process_results):
            assert t.winner == p.winner and t.moves == p.moves
            for te, pe in zip(t.examples, p.examples):
                np.testing.assert_array_equal(te.policy, pe.policy)
        assert process_stats.num_workers == 2
        assert process_stats.worker_restarts == 0

    def test_weight_change_between_rounds_reaches_the_workers(self):
        """New weights loaded between rounds (as the SGD stage does) must
        reach the forked workers and flush their caches: round 2 then
        equals the thread backend's round 2 on the same weights."""
        game = TicTacToe()
        new_state = build_network_for(game, (2, 4, 4), rng=1).state_dict()

        def second_round(**kwargs):
            net = build_network_for(game, (2, 4, 4), rng=0)
            with MultiGameSelfPlayEngine(
                game, NetworkEvaluator(net), num_games=2, num_playouts=8,
                rng=0, **kwargs,
            ) as engine:
                engine.play_round()
                net.load_state_dict(new_state)
                if engine.cache is not None:
                    engine.cache.clear()  # what the pipeline does post-SGD
                results, _ = engine.play_round()
            return results

        thread_results = second_round()
        process_results = second_round(backend="process", num_workers=2)
        for t, p in zip(thread_results, process_results):
            assert t.moves == p.moves
            for te, pe in zip(t.examples, p.examples):
                np.testing.assert_array_equal(te.policy, pe.policy)

    @staticmethod
    def _count_syncs(engine) -> list[int]:
        """Wrap the farm's sync_weights; returns the list the wrapper
        appends to on every call."""
        calls: list[int] = []
        sync = engine._farm.sync_weights

        def counting(state):
            calls.append(len(state))
            sync(state)

        engine._farm.sync_weights = counting
        return calls

    def test_rounds_without_new_weights_skip_the_sync(self):
        """A sync clears every worker's cache, so the engine sends one
        only when the network's weights_version moved."""
        game = TicTacToe()
        net = build_network_for(game, (2, 4, 4), rng=0)
        with MultiGameSelfPlayEngine(
            game, NetworkEvaluator(net), num_games=2, num_playouts=6,
            rng=0, backend="process", num_workers=1,
        ) as engine:
            calls = self._count_syncs(engine)
            counts = []
            for _ in range(3):  # round 1's sync is the farm's pre-fork no-op
                engine.play_round()
                counts.append(len(calls))
            net.bump_weights_version()
            engine.play_round()
            counts.append(len(calls))
        assert counts == [1, 1, 1, 2]

    def test_network_less_evaluator_never_syncs(self):
        with MultiGameSelfPlayEngine(
            TicTacToe(), UniformEvaluator(), num_games=2, num_playouts=6,
            rng=0, backend="process", num_workers=1,
        ) as engine:
            calls = self._count_syncs(engine)
            engine.play_round()
            engine.play_round()
            assert engine.cache is None and engine.bus is None
        assert calls == []

    def test_default_workers_count_usable_cpus(self, monkeypatch):
        """Under a cpuset or taskset the default worker count follows the
        CPUs this process may use, not the host's CPU count."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with MultiGameSelfPlayEngine(
            TicTacToe(), UniformEvaluator(), num_games=4, num_playouts=4,
            rng=0, backend="process",
        ) as engine:
            _, stats = engine.play_round()
        assert stats.num_workers == 1

    def test_stats_accounting_consistent(self):
        with MultiGameSelfPlayEngine(
            TicTacToe(), UniformEvaluator(), num_games=4, num_playouts=8,
            rng=0, backend="process", num_workers=2,
        ) as engine:
            results, stats = engine.play_round()
        assert stats.games == 4
        assert stats.moves == sum(r.moves for r in results)
        # every request the evaluator process served was a cache miss first
        assert stats.eval_requests == stats.cache_misses
        assert stats.eval_batches > 0
        assert stats.mean_batch_occupancy == pytest.approx(
            stats.eval_requests / stats.eval_batches
        )
        d = stats.as_dict()
        assert d["num_workers"] == 2 and d["sims_per_sec"] > 0

    def test_pipeline_integration_with_weight_sync(self):
        """Process-backend engine inside the training loop: SGD updates
        the parent's network, and the engine must push the new weights
        into the forked workers (tests/farm/test_weight_sync.py checks
        that the synced round equals a serial loop on the new weights)."""
        game = TicTacToe()
        net = build_network_for(game, channels=(2, 4, 4), rng=0)
        engine = MultiGameSelfPlayEngine(
            game, NetworkEvaluator(net), num_games=2, num_playouts=6, rng=1,
            backend="process", num_workers=2,
        )
        trainer = Trainer(net, Adam(net.parameters(), lr=1e-3), AlphaZeroLoss())
        pipeline = TrainingPipeline(
            game, None, trainer, num_playouts=6, sgd_iterations=1,
            batch_size=8, rng=2, engine=engine,
        )
        with engine:
            metrics = pipeline.run(2)
            assert engine.cache is None  # the caches live in the workers
        assert metrics.episodes == 4
        assert metrics.eval_requests > 0
        assert len(metrics.loss_history) == 2


class TestPipelineIntegration:
    def test_pipeline_collects_rounds_and_serving_metrics(self):
        game = TicTacToe()
        net = build_network_for(game, channels=(2, 4, 4), rng=0)
        engine = MultiGameSelfPlayEngine(
            game, NetworkEvaluator(net), num_games=3, num_playouts=8, rng=1
        )
        trainer = Trainer(net, Adam(net.parameters(), lr=1e-3), AlphaZeroLoss())
        pipeline = TrainingPipeline(
            game, None, trainer, num_playouts=8, sgd_iterations=2,
            batch_size=16, rng=2, engine=engine,
        )
        with engine:
            metrics = pipeline.run(2)
        assert metrics.episodes == 6  # 2 rounds x 3 games
        assert metrics.samples_produced > 0
        assert len(metrics.loss_history) == 4
        assert metrics.eval_requests > 0
        assert metrics.eval_batches > 0
        assert metrics.cache_hits + metrics.cache_misses > 0
        assert 0.0 <= metrics.cache_hit_rate <= 1.0
        assert metrics.mean_batch_occupancy == pytest.approx(
            metrics.eval_requests / metrics.eval_batches
        )
        assert len(pipeline.buffer) > 0

    def test_mismatched_episode_knobs_rejected(self):
        """The engine duplicates the pipeline's episode knobs; silent
        disagreement would collect data at misreported settings."""
        game = TicTacToe()
        net = build_network_for(game, channels=(2, 4, 4), rng=0)
        engine = MultiGameSelfPlayEngine(
            game, NetworkEvaluator(net), num_games=2, num_playouts=10, rng=1
        )
        trainer = Trainer(net, Adam(net.parameters(), lr=1e-3), AlphaZeroLoss())
        with pytest.raises(ValueError, match="num_playouts"):
            TrainingPipeline(
                game, None, trainer, num_playouts=40, engine=engine,
            )

    def test_sgd_invalidates_evaluation_cache(self):
        """After a training stage the network changed, so evaluations cached
        during data collection must not survive into the next round."""
        game = TicTacToe()
        net = build_network_for(game, channels=(2, 4, 4), rng=0)
        engine = MultiGameSelfPlayEngine(
            game, NetworkEvaluator(net), num_games=2, num_playouts=6, rng=1
        )
        trainer = Trainer(net, Adam(net.parameters(), lr=1e-3), AlphaZeroLoss())
        pipeline = TrainingPipeline(
            game, None, trainer, num_playouts=6, sgd_iterations=1,
            batch_size=8, rng=2, engine=engine,
        )
        with engine:
            pipeline.run_episode()
            assert len(engine.cache) == 0  # cleared after SGD
            # without an SGD stage the cache is still valid and kept
            pipeline.sgd_iterations = 0
            pipeline.run_episode()
            assert len(engine.cache) > 0
