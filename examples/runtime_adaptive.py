#!/usr/bin/env python
"""Runtime adaptivity: the optimal scheme changes *during* a game.

The paper selects the parallel scheme at compile time from the
application's tree fanout.  But Gomoku's fanout is not constant: every
stone placed removes an action, so the in-tree cost per playout falls as
the game progresses -- and with it, the balance of Equations 3 vs 5.

This script shows the effect two ways:

1. statically: profile positions at increasing fill levels and report the
   Equation-3/5 choice at N=64 (the scheme flips as the board fills);
2. dynamically: play a game with AutoSwitchingScheme, which re-profiles
   every few moves and switches the underlying implementation when the
   prediction flips.

Run:  python examples/runtime_adaptive.py
"""

import numpy as np

from repro.games import Gomoku
from repro.mcts import UniformEvaluator
from repro.perfmodel import DesignConfigurator, profile_virtual
from repro.perfmodel.runtime import AutoSwitchingScheme
from repro.simulator import paper_platform
from repro.utils.logging import format_table

N_WORKERS = 64


def filled_position(stones: int, rng: np.random.Generator) -> Gomoku:
    """A 15x15 position with *stones* random (legal, non-terminal) moves."""
    while True:
        game = Gomoku(15, 5)
        for _ in range(stones):
            game.step(int(rng.choice(game.legal_actions())))
            if game.is_terminal:
                break
        if not game.is_terminal:
            return game


def main() -> None:
    platform = paper_platform()
    rng = np.random.default_rng(0)

    # 1. static sweep over board fill -----------------------------------------
    rows = []
    for stones in (0, 40, 80, 120, 160):
        game = filled_position(stones, rng)
        prof = profile_virtual(game, platform, num_playouts=300)
        cfg = DesignConfigurator(prof, platform.gpu).configure_cpu(N_WORKERS)
        rows.append(
            {
                "stones": stones,
                "fanout": int(prof.mean_expand_children),
                "T_in_local_us": round(prof.in_tree_local * 1e6, 1),
                "choice@N=64": cfg.scheme.value,
                "predicted_us": round(cfg.predicted_latency * 1e6, 1),
            }
        )
    print(f"compile-time choice at N={N_WORKERS} vs board fill:")
    print(format_table(rows))

    # 2. dynamic switching during a real game ----------------------------------
    print("\nplaying one game with AutoSwitchingScheme (re-profile every 8 moves):")
    scheme = AutoSwitchingScheme(
        UniformEvaluator(),
        platform,
        num_workers=N_WORKERS,
        reprofile_every=8,
        profile_playouts=300,
        rng=1,
    )
    game = Gomoku(15, 5)
    move_rng = np.random.default_rng(2)
    moves = 0
    while not game.is_terminal and moves < 120:
        scheme.get_action_prior(game, 100)  # the searched move...
        # ...but step randomly so the demo game fills the board instead of
        # ending in a quick tactical win (we are showcasing re-profiling,
        # not playing strength)
        game.step(int(move_rng.choice(game.legal_actions())))
        moves += 1
    print(f"  game over after {moves} moves (winner: {game.winner})")
    print("  scheme decisions (move, scheme, batch):")
    for move, name, batch in scheme.decisions:
        print(f"    move {move:3d}: {name} (B={batch})")
    if len(scheme.decisions) > 1:
        print("  -> the optimal scheme changed mid-game; a compile-time-only")
        print("     choice would have been suboptimal for part of the game.")


if __name__ == "__main__":
    main()
