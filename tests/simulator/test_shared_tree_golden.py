"""The shared-tree DES and the virtual profiler against recorded runs.

``tests/fixtures/shared_tree_sim_golden.json`` holds what
:class:`SharedTreeSimulation` and :func:`profile_virtual` produced on a
grid of games (one a midgame whose searches end in terminal states),
worker counts, CPU/GPU evaluation and the lock-free variant when both
still searched ``Node`` trees.  Both now search the
array tree; every recorded float must come back bit for bit (JSON keeps
a float's shortest round-trip repr, so ``==`` is exact).

Regenerate (only on purpose, e.g. after a latency-model change) with::

    PYTHONPATH=src python tests/simulator/test_shared_tree_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.games import ConnectFour, Gomoku, TicTacToe
from repro.mcts.evaluation import UniformEvaluator
from repro.perfmodel import profile_virtual
from repro.simulator import SharedTreeSimulation, paper_platform

FIXTURE = Path(__file__).parents[1] / "fixtures" / "shared_tree_sim_golden.json"
PLAT = paper_platform()


def tictactoe_midgame():
    """X has played 0 and 1 and threatens 2: searches reach terminals."""
    game = TicTacToe()
    for action in (0, 4, 1):
        game.step(action)
    return game


GAMES = {
    "tictactoe": TicTacToe,
    "tictactoe-midgame": tictactoe_midgame,
    "connect4": ConnectFour,
    "gomoku9": lambda: Gomoku(9, 5),
}
WORKERS = (1, 4, 16)
PLAYOUTS = 200
PROFILE_PLAYOUTS = (1, 30, 200)


def sim_key(game: str, n: int, use_gpu: bool, lock_free: bool) -> str:
    device = "gpu" if use_gpu else "cpu"
    locks = "lockfree" if lock_free else "locked"
    return f"{game}-N{n}-{device}-{locks}"


def sim_record(game: str, n: int, use_gpu: bool, lock_free: bool) -> dict:
    result = SharedTreeSimulation(
        GAMES[game](),
        UniformEvaluator(),
        PLAT,
        num_workers=n,
        use_gpu=use_gpu,
        lock_free=lock_free,
    ).run(PLAYOUTS)
    children = result.root.children
    return {
        "total_time": result.total_time,
        "lock_wait": result.lock_wait,
        "gpu_busy": result.gpu_busy,
        "gpu_batches": result.gpu_batches,
        "compute_by_tag": result.compute_by_tag,
        "mean_path_length": result.mean_path_length,
        "tree_size": result.tree_size,
        "tree_depth": result.tree_depth,
        "root_visits": {str(a): c.visit_count for a, c in sorted(children.items())},
        "root_value_sums": {str(a): c.value_sum for a, c in sorted(children.items())},
    }


def profile_record(game: str, playouts: int) -> dict:
    profile = profile_virtual(GAMES[game](), PLAT, num_playouts=playouts)
    return dataclasses.asdict(profile)


SIM_CASES = [
    (game, n, use_gpu, lock_free)
    for game in sorted(GAMES)
    for n in WORKERS
    for use_gpu in (False, True)
    for lock_free in (False, True)
]
PROFILE_CASES = [(game, p) for game in sorted(GAMES) for p in PROFILE_PLAYOUTS]


def capture() -> dict:
    return {
        "shared_tree": {sim_key(*case): sim_record(*case) for case in SIM_CASES},
        "profile_virtual": {
            f"{game}-P{p}": profile_record(game, p) for game, p in PROFILE_CASES
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "case", SIM_CASES, ids=[sim_key(*case) for case in SIM_CASES]
)
def test_shared_tree_sim_matches_golden(golden, case):
    assert sim_record(*case) == golden["shared_tree"][sim_key(*case)]


@pytest.mark.parametrize(
    "game,playouts", PROFILE_CASES, ids=[f"{g}-P{p}" for g, p in PROFILE_CASES]
)
def test_profile_virtual_matches_golden(golden, game, playouts):
    expected = golden["profile_virtual"][f"{game}-P{playouts}"]
    assert profile_record(game, playouts) == expected


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
