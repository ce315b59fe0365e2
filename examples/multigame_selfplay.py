#!/usr/bin/env python
"""Multi-game batched self-play: G concurrent games, one accelerator queue.

Demonstrates the serving layer (``repro.serving``):

1. run G self-play games concurrently, funnelling every leaf evaluation
   into a single shared EvaluationBus so DNN batches fill across games
   (Section 3.3's batching, scaled past one search tree);
2. put an LRU evaluation cache in front of the queue so states any game
   has already evaluated never reach the network again;
3. compare wall-clock against playing the same games sequentially, and
   print the serving statistics (occupancy, cache hit rate);
4. feed the engine into the Algorithm-1 training pipeline.

Run:  PYTHONPATH=src python examples/multigame_selfplay.py
"""

import time

from repro.games import TicTacToe, build_network_for
from repro.mcts import NetworkEvaluator, SerialMCTS
from repro.nn import Adam, AlphaZeroLoss
from repro.serving import MultiGameSelfPlayEngine
from repro.training import Trainer, TrainingPipeline, play_episode

GAMES = 8
PLAYOUTS = 24


def main() -> None:
    game = TicTacToe()
    net = build_network_for(game, channels=(8, 16, 16), rng=0)
    evaluator = NetworkEvaluator(net)

    # -- baseline: the same G games, sequentially, unbatched ----------------
    t0 = time.perf_counter()
    for seed in range(GAMES):
        play_episode(game, SerialMCTS(evaluator, rng=seed), PLAYOUTS, rng=seed)
    sequential = time.perf_counter() - t0
    print(f"sequential: {GAMES} games in {sequential:.2f}s "
          f"({GAMES / sequential:.1f} games/s)")

    # -- concurrent: one shared queue + evaluation cache --------------------
    engine = MultiGameSelfPlayEngine(
        game, evaluator, num_games=GAMES, num_playouts=PLAYOUTS, rng=0
    )
    with engine:
        results, stats = engine.play_round()
        print(f"batched   : {stats.games} games in {stats.wall_time:.2f}s "
              f"({stats.games_per_sec:.1f} games/s, "
              f"{sequential / stats.wall_time:.1f}x)")
        print(f"  mean batch occupancy : {stats.mean_batch_occupancy:.2f} "
              f"(of {GAMES})")
        print(f"  cache hit rate       : {stats.cache_hit_rate:.1%} "
              f"({stats.cache_hits} hits / {stats.cache_misses} misses)")

        # -- the engine slots straight into the Algorithm-1 pipeline --------
        trainer = Trainer(net, Adam(net.parameters(), lr=2e-3),
                          AlphaZeroLoss(1e-4))
        pipeline = TrainingPipeline(
            game, None, trainer, num_playouts=PLAYOUTS,
            sgd_iterations=4, batch_size=64, rng=1, engine=engine,
        )
        metrics = pipeline.run(2)
        print(f"\ntrained on {metrics.episodes} engine-collected episodes; "
              f"loss {metrics.loss_history[0].total:.3f} -> "
              f"{metrics.final_loss:.3f}")
        print(f"lifetime cache hit rate {metrics.cache_hit_rate:.1%}, "
              f"mean occupancy {metrics.mean_batch_occupancy:.2f}")


if __name__ == "__main__":
    main()
