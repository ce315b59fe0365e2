"""SelfPlayFarm surface: validation, lifecycle, stats shape."""

import numpy as np
import pytest

from repro.farm import FarmError, FarmStats, SelfPlayFarm
from repro.games import TicTacToe, build_network_for
from repro.mcts.evaluation import (
    NetworkEvaluator,
    RandomRolloutEvaluator,
    UniformEvaluator,
)
from repro.utils.rng import seed_ladder


class TestValidation:
    def test_invalid_args(self):
        game, ev = TicTacToe(), UniformEvaluator()
        with pytest.raises(ValueError):
            SelfPlayFarm(game, ev, num_workers=0)
        with pytest.raises(ValueError):
            SelfPlayFarm(game, ev, num_playouts=0)
        with pytest.raises(ValueError):
            SelfPlayFarm(game, ev, max_retries=-1)

    def test_empty_round_rejected(self):
        with SelfPlayFarm(TicTacToe(), UniformEvaluator()) as farm:
            with pytest.raises(ValueError):
                farm.run_round([])

    def test_any_evaluator_is_accepted(self):
        """Workers evaluate their own leaves on live Game objects, so an
        evaluator that steps the game (rollouts) runs in the farm too."""
        with SelfPlayFarm(
            TicTacToe(), RandomRolloutEvaluator(rng=0), num_workers=2,
            num_playouts=6,
        ) as farm:
            results, stats = farm.run_round(seed_ladder(0, 2))
        assert len(results) == 2
        for episode in results:
            assert 5 <= episode.moves <= 9  # a finished tic-tac-toe game
            assert episode.winner in (-1, 0, 1)
        assert stats.eval_requests > 0


class TestLifecycle:
    def test_start_is_idempotent_and_close_is_final(self):
        farm = SelfPlayFarm(
            TicTacToe(), UniformEvaluator(), num_workers=2, num_playouts=6
        )
        farm.start()
        pids = farm.worker_pids
        farm.start()
        assert farm.worker_pids == pids
        farm.close()
        farm.close()
        with pytest.raises(RuntimeError):
            farm.start()

    def test_sync_weights_is_noop_before_start(self):
        farm = SelfPlayFarm(
            TicTacToe(), UniformEvaluator(), num_workers=1, num_playouts=4
        )
        farm.sync_weights({})  # forked evaluator will inherit anyway
        farm.close()

    def test_close_before_start_forks_nothing(self):
        farm = SelfPlayFarm(
            TicTacToe(), UniformEvaluator(), num_workers=2, num_playouts=4
        )
        farm.close()
        assert farm.worker_pids == []
        with pytest.raises(RuntimeError, match="closed"):
            farm.start()

    def test_round_after_close_rejected(self):
        farm = SelfPlayFarm(
            TicTacToe(), UniformEvaluator(), num_workers=1, num_playouts=4
        )
        farm.run_round(seed_ladder(0, 1))
        farm.close()
        with pytest.raises(RuntimeError, match="closed"):
            farm.run_round(seed_ladder(0, 1))

    def test_sync_weights_needs_a_network_and_an_open_farm(self):
        with SelfPlayFarm(
            TicTacToe(), UniformEvaluator(), num_workers=1, num_playouts=4
        ) as farm:
            farm.start()
            with pytest.raises(FarmError, match="network"):
                farm.sync_weights({})
        with pytest.raises(RuntimeError, match="closed"):
            farm.sync_weights({})


class TestFarmStats:
    def test_superset_of_serving_stats(self):
        from repro.serving import ServingStats

        assert issubclass(FarmStats, ServingStats)
        with SelfPlayFarm(
            TicTacToe(), UniformEvaluator(), num_workers=2, num_playouts=6
        ) as farm:
            _, stats = farm.run_round(seed_ladder(0, 3))
        d = stats.as_dict()
        for key in (
            "games", "moves", "playouts", "eval_requests", "eval_batches",
            "partial_flushes", "cache_hits", "cache_misses",
            "num_workers", "worker_restarts", "episodes_requeued",
            "sims_per_sec",
        ):
            assert key in d
        assert stats.sims_per_sec == pytest.approx(
            stats.playouts / stats.wall_time
        )
        assert stats.games == 3
        total = stats.cache_hits + stats.cache_misses
        assert stats.cache_hit_rate == pytest.approx(
            stats.cache_hits / total if total else 0.0
        )
        assert np.isfinite(stats.mean_batch_occupancy)

    def test_cache_lookups_equal_the_uncached_leaf_count(self):
        """A round's leaves depend only on its seeds: with caching every
        leaf is one lookup, and every miss one row at the evaluator."""
        def round_stats(cache_capacity):
            with SelfPlayFarm(
                TicTacToe(), UniformEvaluator(), num_workers=2,
                num_playouts=10, cache_capacity=cache_capacity,
            ) as farm:
                return farm.run_round(seed_ladder(5, 4))[1]

        cached, uncached = round_stats(8192), round_stats(0)
        assert cached.cache_hits + cached.cache_misses == uncached.eval_requests
        assert cached.eval_requests == cached.cache_misses
        assert cached.cache_hits > 0


def _policies(results):
    return [np.stack([ex.policy for ex in r.examples]) for r in results]


class TestWorkerCaches:
    """Each worker keeps its own LRU cache for the farm's lifetime; only a
    weight sync empties it.  One worker, so every episode meets the same
    cache and the counts are exact."""

    def test_cache_stays_warm_across_rounds(self):
        with SelfPlayFarm(
            TicTacToe(), UniformEvaluator(), num_workers=1, num_playouts=10
        ) as farm:
            first, cold = farm.run_round(seed_ladder(2, 3))
            second, warm = farm.run_round(seed_ladder(2, 3))
        assert cold.cache_misses > 0
        # the replayed round meets only positions round 1 cached
        assert warm.cache_misses == warm.eval_requests == 0
        assert warm.cache_hits == cold.cache_hits + cold.cache_misses
        for a, b in zip(_policies(first), _policies(second)):
            np.testing.assert_array_equal(a, b)

    def test_weight_sync_clears_the_cache(self):
        net = build_network_for(TicTacToe(), (2, 4, 4), rng=0)
        with SelfPlayFarm(
            TicTacToe(), NetworkEvaluator(net), num_workers=1, num_playouts=8
        ) as farm:
            first, cold = farm.run_round(seed_ladder(2, 2))
            farm.sync_weights(net.state_dict())  # same weights, fresh cache
            second, synced = farm.run_round(seed_ladder(2, 2))
        assert synced.cache_misses == cold.cache_misses > 0
        assert synced.cache_hits == cold.cache_hits
        for a, b in zip(_policies(first), _policies(second)):
            np.testing.assert_array_equal(a, b)

    def test_tiny_cache_evicts_without_changing_transcripts(self):
        def round_(cache_capacity):
            with SelfPlayFarm(
                TicTacToe(), UniformEvaluator(), num_workers=2,
                num_playouts=10, cache_capacity=cache_capacity,
            ) as farm:
                return farm.run_round(seed_ladder(9, 4))

        tiny_results, tiny = round_(4)
        big_results, big = round_(8192)
        assert tiny.cache_misses > big.cache_misses  # evictions happened
        assert tiny.cache_hits + tiny.cache_misses == big.cache_hits + big.cache_misses
        for a, b in zip(_policies(tiny_results), _policies(big_results)):
            np.testing.assert_array_equal(a, b)
