"""Weight sync: after ``sync_weights`` a farm round equals a serial loop
on the new network.

Each worker evaluates with a forked copy of the network behind its own
cache, so a sync must do two things in every worker: load the new
weights, and drop the evaluations cached under the old ones.  The
second round replays the first round's seed ladder, so every episode
revisits positions the workers' caches hold from round 1 (the opening
position at least): a worker that kept either its old weights or its
old cache entries plays a different transcript.
"""

import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro.farm import FarmError, SelfPlayFarm
from repro.games import ConnectFour, build_network_for
from repro.mcts.evaluation import NetworkEvaluator
from repro.mcts.serial import SerialMCTS
from repro.training.selfplay import play_episode
from repro.utils.rng import seed_ladder
from test_supervision import KamikazeOnce

EPISODES = 4
PLAYOUTS = 16
MAX_MOVES = 6
SEED = 3
CHANNELS = (4, 8, 8)


def serial_policies(network):
    """Per-episode policy targets of the serial loop on *network*."""
    episodes = []
    for rng in seed_ladder(SEED, EPISODES):
        episode = play_episode(
            ConnectFour(),
            SerialMCTS(NetworkEvaluator(network), rng=rng),
            PLAYOUTS,
            max_moves=MAX_MOVES,
            rng=rng,
        )
        episodes.append(np.stack([ex.policy for ex in episode.examples]))
    return episodes


def policies(results):
    return [np.stack([ex.policy for ex in r.examples]) for r in results]


def assert_same(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g, e)


def differs(a, b):
    return any(x.shape != y.shape or not np.array_equal(x, y) for x, y in zip(a, b))


def test_round_after_sync_matches_serial_on_new_weights():
    game = ConnectFour()
    net = build_network_for(game, CHANNELS, rng=0)
    new_state = build_network_for(game, CHANNELS, rng=1).state_dict()
    old_expected = serial_policies(net)
    with SelfPlayFarm(
        game, NetworkEvaluator(net), num_workers=2,
        num_playouts=PLAYOUTS, max_moves=MAX_MOVES,
    ) as farm:
        first, _ = farm.run_round(seed_ladder(SEED, EPISODES))
        assert_same(policies(first), old_expected)
        net.load_state_dict(new_state)
        farm.sync_weights(net.state_dict())
        second, stats = farm.run_round(seed_ladder(SEED, EPISODES))
    new_expected = serial_policies(net)
    assert differs(new_expected, old_expected)  # the check has teeth
    assert_same(policies(second), new_expected)
    assert stats.worker_restarts == 0


def test_respawn_after_sync_runs_on_synced_weights():
    """A worker SIGKILLed after the sync is respawned from the parent,
    whose network here still holds the *old* weights: the requeued
    episode must still run on the synced ones."""
    game = ConnectFour()
    net = build_network_for(game, CHANNELS, rng=0)
    new_net = build_network_for(game, CHANNELS, rng=1)
    flag = mp.get_context("fork").Value("i", 1)  # disarmed for round 1
    with SelfPlayFarm(
        game, NetworkEvaluator(net), num_workers=2,
        num_playouts=PLAYOUTS, max_moves=MAX_MOVES,
        scheme_factory=lambda ev, rng: KamikazeOnce(SerialMCTS(ev, rng=rng), flag),
    ) as farm:
        farm.run_round(seed_ladder(SEED, EPISODES))
        farm.sync_weights(new_net.state_dict())
        flag.value = 0  # arm: the first episode to reach move 2 dies
        second, stats = farm.run_round(seed_ladder(SEED, EPISODES))
    assert flag.value == 1  # the kill actually fired
    assert stats.worker_restarts == 1 and stats.episodes_requeued == 1
    assert_same(policies(second), serial_policies(new_net))


def test_worker_dead_at_sync_is_respawned_on_the_new_weights():
    """A worker that died idle between rounds cannot take the sync: the
    sync respawns it, and the respawn loads the synced state."""
    game = ConnectFour()
    net = build_network_for(game, CHANNELS, rng=0)
    new_net = build_network_for(game, CHANNELS, rng=1)
    with SelfPlayFarm(
        game, NetworkEvaluator(net), num_workers=2,
        num_playouts=PLAYOUTS, max_moves=MAX_MOVES,
    ) as farm:
        farm.run_round(seed_ladder(SEED, EPISODES))
        victim = farm._workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        assert not victim.is_alive()
        farm.sync_weights(new_net.state_dict())
        assert farm.worker_restarts == 1
        second, stats = farm.run_round(seed_ladder(SEED, EPISODES))
    assert stats.worker_restarts == 0  # the respawn happened at the sync
    assert_same(policies(second), serial_policies(new_net))


def test_state_a_worker_cannot_load_closes_the_farm():
    game = ConnectFour()
    net = build_network_for(game, CHANNELS, rng=0)
    farm = SelfPlayFarm(
        game, NetworkEvaluator(net), num_workers=2,
        num_playouts=PLAYOUTS, max_moves=MAX_MOVES,
    )
    try:
        farm.run_round(seed_ladder(SEED, 2))
        with pytest.raises(FarmError, match="weight sync failed"):
            farm.sync_weights({})  # no tensors: load_state_dict refuses
        with pytest.raises(RuntimeError, match="closed"):
            farm.run_round(seed_ladder(SEED, 2))
    finally:
        farm.close()
    assert not [p for p in mp.active_children() if p.name.startswith("farm-")]
