#!/usr/bin/env python
"""Multiprocess self-play farm: worker processes that evaluate their own leaves.

Demonstrates ``repro.farm`` and the engine's ``backend="process"`` option:

1. run a round of self-play episodes across N worker processes, each
   playing whole episodes with the array-backed serial search and
   evaluating its own leaves through its own LRU cache -- no leaf ever
   crosses a process boundary;
2. verify the determinism contract: the farm round reproduces a serial
   loop over the same seed ladder transcript-for-transcript;
3. compare against the PR-1 thread engine on the same workload and print
   both engines' serving statistics;
4. run the same farm through ``MultiGameSelfPlayEngine`` inside the
   Algorithm-1 training pipeline (weights are re-synced into every
   worker, which clears its cache, after every SGD stage).

Exits non-zero if the farm's transcripts differ from the serial loop's
or the training pipeline fails.

Run:  PYTHONPATH=src python examples/farm_selfplay.py
"""

import os

from repro.farm import SelfPlayFarm
from repro.games import TicTacToe, build_network_for
from repro.mcts import NetworkEvaluator, SerialMCTS, UniformEvaluator
from repro.nn import Adam, AlphaZeroLoss
from repro.serving import MultiGameSelfPlayEngine
from repro.training import Trainer, TrainingPipeline, play_episode
from repro.utils.rng import seed_ladder

EPISODES = 8
PLAYOUTS = 24
WORKERS = min(4, os.cpu_count() or 1)


def main() -> None:
    game = TicTacToe()
    evaluator = UniformEvaluator()

    # -- the farm round ------------------------------------------------------
    with SelfPlayFarm(
        game, evaluator, num_workers=WORKERS, num_playouts=PLAYOUTS
    ) as farm:
        results, stats = farm.run_round(seed_ladder(0, EPISODES))
        print(f"farm      : {stats.games} episodes on {WORKERS} workers in "
              f"{stats.wall_time:.2f}s ({stats.sims_per_sec:.0f} sims/s)")
        print(f"  leaf evaluations: {stats.eval_requests} "
              f"(in the workers, one row per call)")
        print(f"  cache hit rate  : {stats.cache_hit_rate:.1%} "
              f"({stats.cache_hits} hits / {stats.cache_misses} misses)")
        print(f"  supervision     : {stats.worker_restarts} restarts, "
              f"{stats.episodes_requeued} requeues")

    # -- determinism: the farm round == a serial loop over the same ladder --
    for got, rng in zip(results, seed_ladder(0, EPISODES)):
        expected = play_episode(
            game, SerialMCTS(evaluator, rng=rng), PLAYOUTS, rng=rng
        )
        assert got.winner == expected.winner and got.moves == expected.moves
        assert all(
            (g.policy == e.policy).all()
            for g, e in zip(got.examples, expected.examples)
        )
    print("determinism : farm transcripts == serial transcripts (exact)")

    # -- same workload on the PR-1 thread engine -----------------------------
    with MultiGameSelfPlayEngine(
        game, evaluator, num_games=EPISODES, num_playouts=PLAYOUTS, rng=0
    ) as engine:
        _, tstats = engine.play_round()
    print(f"threads   : {tstats.games} episodes in {tstats.wall_time:.2f}s "
          f"({tstats.playouts / tstats.wall_time:.0f} sims/s) -- pick "
          f"processes on multi-core hosts, threads on small boards/1 core")

    # -- process backend inside the Algorithm-1 training pipeline ------------
    net = build_network_for(game, channels=(8, 16, 16), rng=0)
    engine = MultiGameSelfPlayEngine(
        game, NetworkEvaluator(net), num_games=4, num_playouts=PLAYOUTS,
        rng=1, backend="process", num_workers=WORKERS,
    )
    trainer = Trainer(net, Adam(net.parameters(), lr=2e-3), AlphaZeroLoss(1e-4))
    pipeline = TrainingPipeline(
        game, None, trainer, num_playouts=PLAYOUTS,
        sgd_iterations=4, batch_size=64, rng=2, engine=engine,
    )
    with engine:
        metrics = pipeline.run(2)
    print(f"\ntrained on {metrics.episodes} farm-collected episodes; "
          f"loss {metrics.loss_history[0].total:.3f} -> "
          f"{metrics.final_loss:.3f}")


if __name__ == "__main__":
    main()
