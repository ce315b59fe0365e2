#!/usr/bin/env python
"""Head-to-head: all four parallel MCTS schemes play Connect-Four.

Every scheme from the paper's Sections 2.2-3.1 -- shared-tree, local-tree,
leaf-parallel, root-parallel -- plays a round-robin of Connect-Four
matches with identical playout budgets and Monte-Carlo rollout
evaluation.  A well-implemented scheme family should be roughly evenly
matched at equal budget (the paper's algorithm-quality argument); the
script also reports wall-clock per move, illustrating why the *timing*
comparison needs the simulator: every scheme here runs on the caller's
thread, so the paper's parallel speedups do not show.  Every scheme is
deterministic, so two runs print the same points.

Run:  python examples/scheme_showdown.py [--games N] [--playouts P]
"""

import argparse
import itertools
import time

import numpy as np

from repro.games import ConnectFour
from repro.mcts import RandomRolloutEvaluator
from repro.parallel import (
    LeafParallelMCTS,
    LocalTreeMCTS,
    RootParallelMCTS,
    SharedTreeMCTS,
)


def build_schemes(num_workers, seed):
    return {
        "shared_tree": SharedTreeMCTS(
            RandomRolloutEvaluator(rng=seed), num_workers=num_workers,
            c_puct=1.5, rng=seed,
        ),
        "local_tree": LocalTreeMCTS(
            RandomRolloutEvaluator(rng=seed + 1), num_workers=num_workers,
            c_puct=1.5, rng=seed + 1,
        ),
        "leaf_parallel": LeafParallelMCTS(
            RandomRolloutEvaluator(rng=seed + 2), num_workers=num_workers,
            c_puct=1.5, rng=seed + 2,
        ),
        "root_parallel": RootParallelMCTS(
            RandomRolloutEvaluator(rng=seed + 3), num_workers=num_workers,
            c_puct=1.5, rng=seed + 3,
        ),
    }


def play_match(scheme_x, scheme_o, playouts, rng):
    game = ConnectFour()
    move_times = []
    while not game.is_terminal:
        scheme = scheme_x if game.current_player == 1 else scheme_o
        t0 = time.perf_counter()
        prior = scheme.get_action_prior(game, playouts)
        move_times.append(time.perf_counter() - t0)
        # small sampling temperature keeps matches varied
        probs = prior**2
        probs /= probs.sum()
        game.step(int(rng.choice(len(prior), p=probs)))
    return game.winner, move_times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--games", type=int, default=2, help="games per pairing")
    parser.add_argument("--playouts", type=int, default=120)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    schemes = build_schemes(args.workers, seed=10)
    scores = {name: 0.0 for name in schemes}
    times: dict[str, list[float]] = {name: [] for name in schemes}

    pairings = list(itertools.permutations(schemes, 2))
    print(
        f"round-robin: {len(pairings)} pairings x {args.games} games, "
        f"{args.playouts} playouts/move, {args.workers} workers\n"
    )
    for name_x, name_o in pairings:
        for g in range(args.games):
            winner, move_times = play_match(
                schemes[name_x], schemes[name_o], args.playouts, rng
            )
            times[name_x].extend(move_times[0::2])
            times[name_o].extend(move_times[1::2])
            if winner == 1:
                scores[name_x] += 1
            elif winner == -1:
                scores[name_o] += 1
            else:
                scores[name_x] += 0.5
                scores[name_o] += 0.5
        print(f"  {name_x:14s} vs {name_o:14s} done")

    print("\nfinal scores (equal playout budget):")
    for name, score in sorted(scores.items(), key=lambda kv: -kv[1]):
        mean_ms = 1e3 * float(np.mean(times[name]))
        print(f"  {name:14s} {score:5.1f} points   {mean_ms:7.1f} ms/move (wall)")
    print(
        "\n(every scheme runs on one thread here; see benchmarks/ for the "
        "virtual-time comparison on the paper's 64-core platform)"
    )


if __name__ == "__main__":
    main()
