#!/usr/bin/env python
"""The paper's benchmark workload at reduced scale: parallel DNN-MCTS
training on Gomoku (Algorithm 1 with a tree-parallel search stage).

Uses the local-tree scheme (Algorithm 3) with batched network inference
for self-play, and tracks the paper's two metrics:
training throughput (samples/s, Section 5.4) and the loss curve
(Section 5.5).

The board is 8x8 five-in-a-row and the trunk is slimmed so the script
finishes in a few minutes on a laptop; pass --full for the paper's 15x15.

Run:  python examples/gomoku_training.py [--full] [--episodes K]
"""

import argparse

from repro.games import Gomoku, build_network_for
from repro.mcts import NetworkEvaluator
from repro.nn import Adam, AlphaZeroLoss
from repro.parallel import LocalTreeMCTS
from repro.training import Trainer, TrainingPipeline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="paper-scale 15x15 board")
    parser.add_argument("--episodes", type=int, default=8)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--playouts", type=int, default=None,
                        help="playouts per move (default 64, paper uses 1600)")
    args = parser.parse_args()

    if args.full:
        game = Gomoku(15, 5)
        channels = (32, 64, 128)
        playouts = args.playouts or 1600
    else:
        game = Gomoku(8, 5)
        channels = (8, 16, 32)
        playouts = args.playouts or 64

    net = build_network_for(game, channels=channels, rng=0)
    print(
        f"board {game.size}x{game.size}, network {net.num_parameters():,} params, "
        f"{args.workers} workers, {playouts} playouts/move"
    )

    scheme = LocalTreeMCTS(
        NetworkEvaluator(net),
        num_workers=args.workers,
        batch_size=max(1, args.workers // 2),
        dirichlet_epsilon=0.25,
        rng=1,
    )
    trainer = Trainer(net, Adam(net.parameters(), lr=2e-3), AlphaZeroLoss(1e-4))
    pipeline = TrainingPipeline(
        game,
        scheme,
        trainer,
        num_playouts=playouts,
        sgd_iterations=8,
        batch_size=64,
        max_moves=game.size * game.size,
        rng=2,
    )

    def report(i, metrics):
        point = metrics.loss_history[-1]
        print(
            f"episode {i + 1:3d}: samples={metrics.samples_produced:4d} "
            f"loss={point.total:6.3f} (value={point.value_loss:.3f} "
            f"policy={point.policy_loss:.3f}) "
            f"throughput={metrics.throughput:6.2f} samples/s"
        )

    metrics = pipeline.run(args.episodes, on_episode=report)

    print(
        f"\ndone: {metrics.episodes} episodes, {metrics.samples_produced} samples, "
        f"search {metrics.search_time:.1f}s + train {metrics.train_time:.1f}s, "
        f"final loss {metrics.final_loss:.3f}"
    )
    net.save("gomoku_net.npz")
    print("weights saved to gomoku_net.npz")


if __name__ == "__main__":
    main()
