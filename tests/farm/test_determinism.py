"""Determinism test subsystem: farm rounds are transcript-exact.

The farm's seeding contract: episode *i* of a round is driven by
generator *i* of a ladder spawned from one root ``SeedSequence``
(:func:`repro.utils.rng.seed_ladder`), and an episode's transcript
depends only on its own generator -- never on which worker process runs
it, how evaluation batches compose, or what the shared cache happens to
contain (evaluations are pure functions of the state, stored at full
float64 precision).  Consequence: a multiprocess farm round must
reproduce a plain serial loop over the same ladder *exactly* -- same
moves, same winners, same policy targets, same encoded planes.
"""

import numpy as np
import pytest

from repro.farm import SelfPlayFarm
from repro.games import ConnectFour, TicTacToe, build_network_for
from repro.mcts.evaluation import NetworkEvaluator, UniformEvaluator
from repro.mcts.serial import SerialMCTS
from repro.training.selfplay import play_episode
from repro.utils.rng import seed_ladder

EPISODES = 4
SEED = 11

GAMES = {
    "tictactoe": (TicTacToe, 12, None),
    "connect4": (ConnectFour, 8, 16),  # (factory, playouts, max_moves)
}


def serial_transcripts(game, playouts, max_moves, seed, evaluator=None):
    """The reference: a sequential loop over the same seed ladder."""
    evaluator = UniformEvaluator() if evaluator is None else evaluator
    episodes = []
    for rng in seed_ladder(seed, EPISODES):
        episodes.append(
            play_episode(
                game,
                SerialMCTS(evaluator, rng=rng),
                playouts,
                max_moves=max_moves,
                rng=rng,
            )
        )
    return episodes


def assert_transcripts_equal(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.winner == e.winner
        assert g.moves == e.moves
        assert g.total_playouts == e.total_playouts
        assert len(g.examples) == len(e.examples)
        for ge, ee in zip(g.examples, e.examples):
            np.testing.assert_array_equal(ge.planes, ee.planes)
            np.testing.assert_array_equal(ge.policy, ee.policy)
            assert ge.value == ee.value


@pytest.mark.parametrize("name", sorted(GAMES))
def test_two_worker_farm_reproduces_serial_run(name):
    factory, playouts, max_moves = GAMES[name]
    game = factory()
    expected = serial_transcripts(game, playouts, max_moves, SEED)
    with SelfPlayFarm(
        game,
        UniformEvaluator(),
        num_workers=2,
        num_playouts=playouts,
        max_moves=max_moves,
    ) as farm:
        got, stats = farm.run_round(seed_ladder(SEED, EPISODES))
    assert_transcripts_equal(got, expected)
    assert stats.games == EPISODES
    assert stats.worker_restarts == 0


def test_farm_round_is_repeatable_across_farms_and_rounds():
    """Same ladder -> same transcripts, run to run -- including a second
    round on the *same* farm, where the shared cache is already warm (a
    hit must be bit-identical to the evaluation it replaced)."""
    game = TicTacToe()
    with SelfPlayFarm(
        game, UniformEvaluator(), num_workers=2, num_playouts=10
    ) as farm:
        first, first_stats = farm.run_round(seed_ladder(SEED, EPISODES))
        second, second_stats = farm.run_round(seed_ladder(SEED, EPISODES))
    assert_transcripts_equal(second, first)
    # round 2 replays round 1's states against the warm shared cache
    assert second_stats.cache_hit_rate >= first_stats.cache_hit_rate


def test_count_and_seed_form_matches_explicit_ladder():
    game = TicTacToe()
    with SelfPlayFarm(
        game, UniformEvaluator(), num_workers=2, num_playouts=8
    ) as farm:
        implicit, _ = farm.run_round(3, seed=SEED)
    with SelfPlayFarm(
        game, UniformEvaluator(), num_workers=2, num_playouts=8
    ) as farm:
        explicit, _ = farm.run_round(seed_ladder(SEED, 3))
    assert_transcripts_equal(implicit, explicit)


def test_seed_ladder_is_deterministic_and_per_episode():
    a = seed_ladder(SEED, 5)
    b = seed_ladder(SEED, 5)
    for ga, gb in zip(a, b):
        np.testing.assert_array_equal(
            ga.integers(0, 1 << 30, 16), gb.integers(0, 1 << 30, 16)
        )
    # distinct rungs are distinct streams
    c = seed_ladder(SEED, 2)
    assert not np.array_equal(
        c[0].integers(0, 1 << 30, 16), c[1].integers(0, 1 << 30, 16)
    )


def test_more_workers_than_episodes_still_exact():
    """Scheduling degeneracy: idle workers must not perturb transcripts."""
    game = TicTacToe()
    expected = serial_transcripts(game, 10, None, SEED)[:2]
    with SelfPlayFarm(
        game, UniformEvaluator(), num_workers=4, num_playouts=10
    ) as farm:
        got, _ = farm.run_round(seed_ladder(SEED, 2))
    assert_transcripts_equal(got, expected)


def test_cache_disabled_farm_still_exact():
    game = TicTacToe()
    expected = serial_transcripts(game, 10, None, SEED)
    with SelfPlayFarm(
        game, UniformEvaluator(), num_workers=2, num_playouts=10,
        cache_capacity=0,
    ) as farm:
        got, stats = farm.run_round(seed_ladder(SEED, EPISODES))
    assert_transcripts_equal(got, expected)
    assert stats.cache_hits == 0 and stats.cache_misses == 0


@pytest.mark.parametrize("cache_capacity", [8192, 0])
def test_network_evaluator_farm_reproduces_serial_run(cache_capacity):
    """A real network behind each worker's own cache: every worker
    evaluates with its forked copy, and a cache hit is the very
    evaluation a fresh forward would return, so the round is still
    bit-identical to the serial loop."""
    game = ConnectFour()
    evaluator = NetworkEvaluator(build_network_for(game, (4, 8, 8), rng=3))
    expected = serial_transcripts(game, 16, 8, SEED, evaluator)
    with SelfPlayFarm(
        game,
        evaluator,
        num_workers=2,
        num_playouts=16,
        max_moves=8,
        cache_capacity=cache_capacity,
    ) as farm:
        got, stats = farm.run_round(seed_ladder(SEED, EPISODES))
    assert_transcripts_equal(got, expected)
    # every leaf the cache missed reached the network as one row
    assert stats.eval_requests == stats.eval_batches > 0
    if cache_capacity:
        assert stats.cache_misses == stats.eval_requests
        assert stats.cache_hits > 0
    else:
        assert stats.cache_hits == stats.cache_misses == 0
