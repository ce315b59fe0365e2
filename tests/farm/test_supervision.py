"""Fault-injection suite: the farm survives SIGKILLed workers.

Worker processes are killed *from inside* a search scheme (deterministic
placement: mid-episode, after the first move completed), which exercises
the full supervision path -- sentinel detection, episode requeue under
the same generator, worker respawn with a fresh task pipe -- and the
process hygiene of :meth:`~repro.farm.farm.SelfPlayFarm.close`: no
worker process the farm ever forked outlives it, crash or no crash.

Marked ``slow``: each test forks a process tree and at least one test
deliberately burns the retry budget.
"""

import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro.farm import FarmError, SelfPlayFarm
from repro.games import TicTacToe
from repro.mcts.evaluation import UniformEvaluator
from repro.mcts.serial import SerialMCTS
from repro.training.selfplay import play_episode
from repro.utils.rng import seed_ladder

pytestmark = pytest.mark.slow

EPISODES = 6
PLAYOUTS = 10
SEED = 7


class KamikazeOnce:
    """Scheme wrapper that SIGKILLs its own process once, fleet-wide, on
    the second move of whatever episode gets there first.

    The kill flag is tested-and-set under its lock but the kill itself
    happens *outside* the critical section -- dying while holding a shared
    lock would wedge every later acquirer, which is a property of POSIX
    semaphores, not of the farm.
    """

    def __init__(self, inner, flag):
        self.inner = inner
        self.flag = flag
        self.calls = 0

    def get_action_prior(self, game, num_playouts):
        self.calls += 1
        if self.calls == 2:
            with self.flag.get_lock():
                shoot = self.flag.value == 0
                if shoot:
                    self.flag.value = 1
            if shoot:
                os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.get_action_prior(game, num_playouts)


class AlwaysKill:
    """Scheme whose every episode attempt dies immediately."""

    def __init__(self, inner):
        self.inner = inner

    def get_action_prior(self, game, num_playouts):
        os.kill(os.getpid(), signal.SIGKILL)


def make_kamikaze_farm(flag, **kwargs):
    return SelfPlayFarm(
        TicTacToe(),
        UniformEvaluator(),
        num_workers=2,
        num_playouts=PLAYOUTS,
        scheme_factory=lambda ev, rng: KamikazeOnce(SerialMCTS(ev, rng=rng), flag),
        **kwargs,
    )


class TestSigkillRequeue:
    def test_killed_worker_is_requeued_and_round_completes(self):
        flag = mp.get_context("fork").Value("i", 0)
        with make_kamikaze_farm(flag) as farm:
            results, stats = farm.run_round(seed_ladder(SEED, EPISODES))
        assert flag.value == 1  # the kill actually fired
        assert stats.games == EPISODES
        assert stats.worker_restarts == 1
        assert stats.episodes_requeued == 1

    def test_transcripts_survive_the_crash(self):
        """The requeued episode re-runs under the same generator, so the
        round is still transcript-identical to the serial reference."""
        flag = mp.get_context("fork").Value("i", 0)
        with make_kamikaze_farm(flag) as farm:
            results, _ = farm.run_round(seed_ladder(SEED, EPISODES))
        for got, rng in zip(results, seed_ladder(SEED, EPISODES)):
            expected = play_episode(
                TicTacToe(),
                SerialMCTS(UniformEvaluator(), rng=rng),
                PLAYOUTS,
                rng=rng,
            )
            assert got.winner == expected.winner
            assert got.moves == expected.moves
            for ge, ee in zip(got.examples, expected.examples):
                np.testing.assert_array_equal(ge.policy, ee.policy)
                assert ge.value == ee.value

    def test_stats_stay_consistent_after_requeue(self):
        flag = mp.get_context("fork").Value("i", 0)
        with make_kamikaze_farm(flag) as farm:
            results, stats = farm.run_round(seed_ladder(SEED, EPISODES))
        assert stats.moves == sum(r.moves for r in results)
        assert stats.playouts == sum(r.total_playouts for r in results)
        assert stats.eval_requests > 0
        assert stats.eval_batches > 0
        # every served request was a cache miss first; a killed worker may
        # count a miss whose doorbell never lands, never the reverse
        assert stats.eval_requests <= stats.cache_misses
        assert stats.games_per_sec > 0


def assert_no_farm_children(pids):
    """None of *pids* is alive and no farm worker is still a child."""
    assert not [p for p in mp.active_children() if p.name.startswith("farm-")]
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestChildProcessHygiene:
    def test_no_child_alive_after_close(self):
        farm = SelfPlayFarm(
            TicTacToe(), UniformEvaluator(), num_workers=2, num_playouts=8
        )
        farm.run_round(seed_ladder(SEED, 2))
        pids = farm.worker_pids
        assert len(pids) == 2
        farm.close()
        assert_no_farm_children(pids)
        farm.close()  # idempotent

    def test_no_child_alive_after_worker_kills(self):
        flag = mp.get_context("fork").Value("i", 0)
        farm = make_kamikaze_farm(flag)
        farm.start()
        pids = set(farm.worker_pids)
        try:
            farm.run_round(seed_ladder(SEED, EPISODES))
            pids |= set(farm.worker_pids)
        finally:
            farm.close()
        assert flag.value == 1 and len(pids) == 3  # two first, one respawn
        assert_no_farm_children(pids)


class TestRetryBudget:
    def test_budget_exhaustion_raises_farm_error(self):
        farm = SelfPlayFarm(
            TicTacToe(),
            UniformEvaluator(),
            num_workers=2,
            num_playouts=PLAYOUTS,
            max_retries=1,
            scheme_factory=lambda ev, rng: AlwaysKill(SerialMCTS(ev, rng=rng)),
        )
        try:
            with pytest.raises(FarmError, match="retry budget"):
                farm.run_round(seed_ladder(SEED, 3))
        finally:
            farm.close()
        assert_no_farm_children(farm.worker_pids)
