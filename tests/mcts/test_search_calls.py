"""Every search driver's evaluator calls and root statistics, pinned.

Each scenario runs one driver of the search on TicTacToe or Connect Four
with the uniform evaluator or a small seeded network, and records:

- per evaluator call, in order, a digest of each row's ``canonical_key``
  (so the row count is the list's length);
- per search, each root child's action, visit count and value sum, the
  value sum written with ``float.hex``.

The drivers are inline serial search, tree reuse over three moves,
leaf-parallel, root-parallel, local-tree with and without virtual loss,
shared-tree, and the gateway's search master with a warm cache, fused
and unfused.  A change to how any driver schedules the search must leave
every record equal to ``tests/fixtures/search_calls.json``.  Network
rows are the fused float32 plan's, so the value sums pin this stack, as
the golden transcripts do.

Regenerate (only when a change is *supposed* to alter the calls or the
trees, and say so in the commit):

    PYTHONPATH=src python tests/mcts/test_search_calls.py --regenerate
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.games import ConnectFour, TicTacToe, build_network_for
from repro.mcts import NetworkEvaluator, SerialMCTS, UniformEvaluator
from repro.mcts.evaluation import Evaluation, Evaluator
from repro.mcts.reuse import TreeReuseMCTS
from repro.mcts.virtual_loss import NoVirtualLoss
from repro.parallel import (
    LeafParallelMCTS,
    LocalTreeMCTS,
    RootParallelMCTS,
    SharedTreeMCTS,
)
from repro.serving import MultiGameSelfPlayEngine
from repro.serving.cache import EvaluationCache
from repro.serving.master import SearchMaster

FIXTURE = Path(__file__).parents[1] / "fixtures" / "search_calls.json"
PLAYOUTS = 30
GAMES = {"tictactoe": TicTacToe, "connect4": ConnectFour}
EVALUATORS = ("uniform", "network")


def key_digest(game) -> str:
    key = repr(game.canonical_key()).encode()
    return hashlib.blake2b(key, digest_size=6).hexdigest()


class CallLog(Evaluator):
    """Records every call that reaches *inner*: its method and rows."""

    def __init__(self, inner: Evaluator) -> None:
        self.inner = inner
        self.calls: list[list[str]] = []
        self.methods: list[str] = []

    def evaluate(self, game) -> Evaluation:
        self.calls.append([key_digest(game)])
        self.methods.append("evaluate")
        return self.inner.evaluate(game)

    def evaluate_batch(self, games) -> list[Evaluation]:
        self.calls.append([key_digest(g) for g in games])
        self.methods.append("evaluate_batch")
        return self.inner.evaluate_batch(games)


def make_evaluator(kind: str, game) -> Evaluator:
    if kind == "uniform":
        return UniformEvaluator()
    return NetworkEvaluator(build_network_for(game, channels=(2, 4, 4), rng=3))


def root_record(root) -> list:
    return [
        [int(action), int(child.visit_count), float(child.value_sum).hex()]
        for action, child in sorted(root.children.items())
    ]


def best_action(root) -> int:
    return max(root.children.items(), key=lambda kv: (kv[1].visit_count, -kv[0]))[0]


# -- drivers: each returns the roots of its searches --------------------------
def one_search(make_scheme):
    def run(ev, game):
        return [make_scheme(ev).search(game, PLAYOUTS)]

    return run


def tree_reuse(ev, game):
    agent = TreeReuseMCTS(ev, rng=7)
    roots = []
    for _ in range(3):
        root = agent.search(game, PLAYOUTS)
        roots.append(root_record(root))
        action = best_action(root)
        game.step(action)
        agent.observe(action)
    return roots


async def _master_rounds(master: SearchMaster, rounds) -> list:
    roots = []
    for programs in rounds:
        # hold the master's lock so one round admits every program at once
        with master._wake:
            futures = [master.run(program) for program in programs]
        roots.extend([await future for future in futures])
    await master.aclose()
    return roots


def search_master(fuse: bool):
    """Two rounds on one master: a 16-playout search warms the cache,
    then a 30-playout search of the same position (its first 16 leaves
    hit) runs beside a search one move later."""

    def run(ev, game):
        master = SearchMaster(ev, EvaluationCache(4096), workers=2, fuse=fuse)
        later = game.copy()
        later.step(int(np.flatnonzero(later.legal_mask())[0]))
        rounds = [
            [TreeReuseMCTS(ev, rng=1).search_program(game.copy(), 16)],
            [
                TreeReuseMCTS(ev, rng=2).search_program(game.copy(), PLAYOUTS),
                TreeReuseMCTS(ev, rng=3).search_program(later, PLAYOUTS),
            ],
        ]
        return asyncio.run(_master_rounds(master, rounds))

    return run


def _local(n: int, b: int, no_vl: bool):
    return one_search(
        lambda ev: LocalTreeMCTS(
            ev, num_workers=n, batch_size=b, rng=0,
            vl_policy=NoVirtualLoss() if no_vl else None,
        )
    )


DRIVERS = {
    "serial": one_search(lambda ev: SerialMCTS(ev, rng=0)),
    "tree_reuse": tree_reuse,
    "leaf_parallel_n2": one_search(lambda ev: LeafParallelMCTS(ev, 2, rng=0)),
    "root_parallel_n1": one_search(lambda ev: RootParallelMCTS(ev, 1, rng=0)),
    "root_parallel_n3": one_search(lambda ev: RootParallelMCTS(ev, 3, rng=0)),
    **{
        f"local_tree_n{n}_b{b}_{'novl' if no_vl else 'wu'}": _local(n, b, no_vl)
        for n, b in [(1, 1), (2, 1), (2, 2), (4, 2)]
        for no_vl in (False, True)
    },
    "shared_tree_n4": one_search(lambda ev: SharedTreeMCTS(ev, 4, rng=0)),
    "master_fused": search_master(fuse=True),
    "master_unfused": search_master(fuse=False),
}

SCENARIOS = [
    f"{driver}/{game}/{evaluator}"
    for driver in DRIVERS
    for game in GAMES
    for evaluator in EVALUATORS
]


def record(scenario: str) -> dict:
    driver, game_name, kind = scenario.split("/")
    game = GAMES[game_name]()
    log = CallLog(make_evaluator(kind, game))
    roots = DRIVERS[driver](log, game)
    return {
        "calls": log.calls,
        "roots": [r if isinstance(r, list) else root_record(r) for r in roots],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    assert FIXTURE.exists(), (
        f"missing fixture {FIXTURE}; generate with "
        "`PYTHONPATH=src python tests/mcts/test_search_calls.py --regenerate`"
    )
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_calls_and_roots_match_the_fixture(scenario, golden):
    got = record(scenario)
    want = golden[scenario]
    assert [len(c) for c in got["calls"]] == [len(c) for c in want["calls"]]
    assert got["calls"] == want["calls"]
    assert got["roots"] == want["roots"]


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


# -- one evaluate per leaf: the self-play bus rides evaluate ---------------------
@pytest.mark.parametrize("game_name", sorted(GAMES))
def test_serial_and_tree_reuse_call_evaluate_once_per_leaf(game_name):
    game = GAMES[game_name]()
    for scheme in (SerialMCTS, TreeReuseMCTS):
        log = CallLog(UniformEvaluator())
        agent = scheme(log, rng=0)
        agent.search(game.copy(), PLAYOUTS)
        assert set(log.methods) == {"evaluate"}
        assert len(log.methods) == agent.stats.evaluations


# -- the drivers that step several programs: one method each ---------------------
@pytest.mark.parametrize(
    "driver, method",
    [
        ("root_parallel_n1", "evaluate_batch"),
        ("root_parallel_n3", "evaluate_batch"),
        ("master_fused", "evaluate_batch"),
        ("master_unfused", "evaluate"),
    ],
)
@pytest.mark.parametrize("game_name", sorted(GAMES))
def test_multi_program_drivers_call_one_method(driver, method, game_name):
    """The fixture records rows, not methods: at N = 1 it cannot tell a
    one-row evaluate_batch from an unfused evaluate."""
    log = CallLog(UniformEvaluator())
    DRIVERS[driver](log, GAMES[game_name]())
    assert set(log.methods) == {method}


def test_engine_searches_call_evaluate_once_per_leaf():
    schemes: list[SerialMCTS] = []

    def factory(ev, game_rng):
        schemes.append(SerialMCTS(ev, rng=game_rng))
        return schemes[-1]

    with MultiGameSelfPlayEngine(
        ConnectFour(), UniformEvaluator(), num_games=2, num_playouts=12,
        scheme_factory=factory, max_moves=6, rng=0,
    ) as engine:
        log = CallLog(engine.shared_evaluator)
        engine.shared_evaluator = log
        engine.play_round()
    assert len(schemes) == 2
    assert set(log.methods) == {"evaluate"}
    assert len(log.methods) == sum(s.stats.evaluations for s in schemes)


if __name__ == "__main__":
    if "--regenerate" not in sys.argv:
        sys.exit("usage: tests/mcts/test_search_calls.py --regenerate")
    FIXTURE.write_text(
        json.dumps({s: record(s) for s in SCENARIOS}, separators=(",", ":")) + "\n"
    )
    print(f"wrote {len(SCENARIOS)} scenarios to {FIXTURE}")
