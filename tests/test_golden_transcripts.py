"""Golden-transcript regression fixtures: the refactor tripwire.

Each fixture in ``tests/fixtures/golden_*.json`` is a seeded serial
self-play transcript -- network init seed, search seed, episode seed,
and the resulting move list -- generated against the current stack
(array tree + fused float32 inference).  The tests replay the
exact same configuration and assert **move-for-move equality**.

Why this exists: the evaluator stack is now four layers deep (game
encoding -> array tree -> batching/cache -> compiled inference plan),
and PRs 2-4 each promised "bit-identical, just faster".  These fixtures
pin that promise across *future* refactors: any change to canonical
keys, PUCT tie-breaking, plan compilation, RNG plumbing, or masking that
shifts even one move of one episode fails here first, with a diffable
transcript instead of a silently drifted benchmark.

Regenerate (only when a change is *supposed* to alter search behaviour,
and say so in the commit):

    PYTHONPATH=src python tests/test_golden_transcripts.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.games import make_game
from repro.games.base import build_network_for
from repro.mcts import NetworkEvaluator, SerialMCTS
from repro.training.selfplay import play_episode

FIXTURE_DIR = Path(__file__).parent / "fixtures"

#: fixture name -> full generation recipe.  Everything that influences
#: the transcript is pinned here; the JSON additionally records the
#: recipe so a mismatch between code and fixture fails loudly.
SPECS: dict[str, dict] = {
    "tictactoe": {
        "game": "tictactoe",
        "channels": [4, 8, 8],
        "net_seed": 11,
        "search_seed": 12,
        "episode_seed": 13,
        "playouts": 32,
        "temperature_moves": 4,
        "max_moves": None,
    },
    "connect4": {
        "game": "connect4",
        "channels": [4, 8, 8],
        "net_seed": 21,
        "search_seed": 22,
        "episode_seed": 23,
        "playouts": 24,
        "temperature_moves": 6,
        "max_moves": None,
    },
    "gomoku9": {
        "game": "gomoku9",
        "channels": [4, 8, 8],
        "net_seed": 31,
        "search_seed": 32,
        "episode_seed": 33,
        "playouts": 16,
        # cap the episode: full 9x9 games would dominate suite runtime
        # without adding regression coverage beyond the first plies
        "max_moves": 12,
        "temperature_moves": 4,
    },
}


def _build_game(name: str):
    if name == "gomoku9":
        return make_game("gomoku", 9)
    return make_game(name)


def play_transcript(spec: dict) -> dict:
    """Run the spec's seeded self-play episode on the current stack."""
    game = _build_game(spec["game"])
    net = build_network_for(
        game, channels=tuple(spec["channels"]), rng=spec["net_seed"]
    )
    agent = SerialMCTS(
        NetworkEvaluator(net),
        dirichlet_epsilon=0.25,
        rng=spec["search_seed"],
    )
    result = play_episode(
        game,
        agent,
        spec["playouts"],
        temperature_moves=spec["temperature_moves"],
        max_moves=spec["max_moves"],
        rng=spec["episode_seed"],
    )
    return {
        "spec": spec,
        "actions": result.actions,
        "winner": result.winner,
        "moves": result.moves,
    }


def _fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"golden_{name}.json"


@pytest.mark.parametrize("name", sorted(SPECS))
def test_golden_transcript_replays_exactly(name):
    path = _fixture_path(name)
    assert path.exists(), (
        f"missing fixture {path}; generate with "
        "`PYTHONPATH=src python tests/test_golden_transcripts.py --regenerate`"
    )
    golden = json.loads(path.read_text())
    assert golden["spec"] == SPECS[name], (
        f"fixture {name} was generated from a different recipe than the "
        "one in SPECS -- regenerate the fixture or revert the spec change"
    )
    replay = play_transcript(SPECS[name])
    assert replay["actions"] == golden["actions"], (
        f"transcript drift in {name}: the current stack plays different "
        "moves than the checked-in golden episode.\n"
        f"golden : {golden['actions']}\n"
        f"replay : {replay['actions']}\n"
        "If this change is *intended* to alter search behaviour, "
        "regenerate the fixtures and call it out in the commit message."
    )
    assert replay["winner"] == golden["winner"]
    assert replay["moves"] == golden["moves"]


def test_fixture_actions_are_legal():
    """The checked-in transcripts must themselves be valid games."""
    for name, spec in SPECS.items():
        path = _fixture_path(name)
        if not path.exists():
            pytest.fail(f"missing fixture {path}")
        golden = json.loads(path.read_text())
        game = _build_game(spec["game"])
        for ply, action in enumerate(golden["actions"]):
            assert not game.is_terminal, f"{name}: move {ply} after terminal"
            assert bool(game.legal_mask()[action]), (
                f"{name}: illegal move {action} at ply {ply}"
            )
            game.step(int(action))


def _regenerate() -> None:
    FIXTURE_DIR.mkdir(exist_ok=True)
    for name, spec in SPECS.items():
        transcript = play_transcript(spec)
        path = _fixture_path(name)
        path.write_text(json.dumps(transcript, indent=2) + "\n")
        print(f"wrote {path} ({transcript['moves']} moves, "
              f"winner {transcript['winner']:+d})")


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("usage: python tests/test_golden_transcripts.py --regenerate")
    _regenerate()
