"""Thread placement of the pools whose searches share an evaluation bus.

The self-play engine's game threads and the bus-on gateway's search
threads hand the GIL and each fused batch to each other at every leaf,
so their pools are pinned to the CPU of the thread that builds them.
These tests observe placement only through public seams -- a scheme or
an evaluator that records ``os.sched_getaffinity(0)`` on the thread it
runs on -- and check the other half of the rule: no thread the program
did not create (the caller, an injected executor's threads, local-tree's
inference workers, the bus-off gateway's pool) changes its mask, and
placement never changes a result.
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.games import TicTacToe
from repro.mcts import SerialMCTS, UniformEvaluator
from repro.parallel import LocalTreeMCTS
from repro.serving import MatchGateway, MultiGameSelfPlayEngine, evalbus

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="placement needs sched_setaffinity and more than one usable CPU",
)


def _mask() -> frozenset[int]:
    return frozenset(os.sched_getaffinity(0))


class MaskLog:
    """Thread-safe record of the affinity mask each thread was seen with."""

    def __init__(self) -> None:
        self.seen: dict[int, frozenset[int]] = {}
        self._lock = threading.Lock()

    def record(self) -> None:
        with self._lock:
            self.seen[threading.get_ident()] = _mask()

    @property
    def masks(self) -> set[frozenset[int]]:
        return set(self.seen.values())


class MaskRecordingScheme:
    """Wraps a search scheme; records the mask of every thread that asks
    it for a move."""

    def __init__(self, scheme, log: MaskLog) -> None:
        self.scheme = scheme
        self.log = log

    def get_action_prior(self, game, num_playouts):
        self.log.record()
        return self.scheme.get_action_prior(game, num_playouts)


class MaskRecordingEvaluator(UniformEvaluator):
    """Uniform evaluator that records the mask of every thread that runs
    a (singleton or fused) evaluation."""

    def __init__(self) -> None:
        self.log = MaskLog()

    def evaluate(self, game):
        self.log.record()
        return super().evaluate(game)

    def evaluate_batch(self, games):
        self.log.record()
        return super().evaluate_batch(games)


def play_engine_round(num_games: int = 2):
    log = MaskLog()
    with MultiGameSelfPlayEngine(
        TicTacToe(),
        UniformEvaluator(),
        num_games=num_games,
        num_playouts=12,
        rng=0,
        scheme_factory=lambda ev, rng: MaskRecordingScheme(
            SerialMCTS(ev, rng=rng), log
        ),
    ) as engine:
        results, _ = engine.play_round()
    return [r.actions for r in results], log


def play_gateway_match(evaluator=None, **kwargs):
    """One full seeded TicTacToe match; returns the engine's moves."""

    async def run():
        moves = []
        async with MatchGateway(
            evaluator or UniformEvaluator(),
            backend="thread",
            workers=2,
            deadline_ms=10_000.0,
            num_playouts=24,
            seed=7,
            **kwargs,
        ) as gw:
            session = await gw.create_session("tictactoe")
            done = False
            while not done:
                reply = await gw.play_move(session)
                moves.append(reply.engine_action)
                done = reply.done
        return moves

    return asyncio.run(run())


class TestColocated:
    def test_engine_game_threads_share_one_cpu(self):
        before = _mask()
        _, log = play_engine_round(num_games=3)
        assert len(log.seen) >= 2, "expected the games on several threads"
        (mask,) = log.masks
        assert len(mask) == 1 and mask <= before
        assert _mask() == before  # the caller is never pinned

    def test_bus_on_gateway_searches_share_one_cpu(self):
        before = _mask()
        evaluator = MaskRecordingEvaluator()
        play_gateway_match(evaluator, cache_capacity=1)
        (mask,) = evaluator.log.masks
        assert len(mask) == 1 and mask <= before
        assert _mask() == before  # the event-loop (test) thread is unpinned


class TestNotPinned:
    def test_local_tree_workers_keep_the_full_mask(self):
        full = _mask()
        evaluator = MaskRecordingEvaluator()
        with LocalTreeMCTS(evaluator, num_workers=2, batch_size=2, rng=0) as scheme:
            scheme.get_action_prior(TicTacToe(), 40)
        assert evaluator.log.masks == {full}

    def test_bus_off_gateway_keeps_the_full_mask(self):
        full = _mask()
        evaluator = MaskRecordingEvaluator()
        play_gateway_match(evaluator, cache_capacity=1, evalbus=False)
        assert evaluator.log.masks == {full}

    def test_injected_executor_keeps_the_full_mask(self):
        full = _mask()
        evaluator = MaskRecordingEvaluator()
        with ThreadPoolExecutor(max_workers=2) as executor:
            play_gateway_match(evaluator, cache_capacity=1, executor=executor)
        assert evaluator.log.masks == {full}
        assert _mask() == full


class TestFallback:
    """Placement is best effort: where it cannot be applied the pools run
    unpinned, and no path changes a transcript."""

    @pytest.fixture(scope="class")
    def colocated(self):
        engine_moves, _ = play_engine_round()
        return engine_moves, play_gateway_match()

    def test_setaffinity_raising_oserror(self, monkeypatch, colocated):
        calls = []

        def refuse(pid, mask):
            calls.append(mask)
            raise OSError("affinity refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        engine_moves, log = play_engine_round()
        gateway_moves = play_gateway_match()
        assert calls, "the pools never tried to pin their threads"
        assert (engine_moves, gateway_moves) == colocated
        assert len(next(iter(log.masks))) > 1

    def test_setaffinity_absent(self, monkeypatch, colocated):
        monkeypatch.delattr(os, "sched_setaffinity")
        engine_moves, log = play_engine_round()
        assert (engine_moves, play_gateway_match()) == colocated
        assert len(next(iter(log.masks))) > 1


class TestCurrentCpu:
    def test_both_readers_name_the_pinned_cpu(self, monkeypatch):
        """``/proc/thread-self/stat`` field 39 and libc ``sched_getcpu``
        agree with the CPU a (test-owned) thread is pinned to."""
        seen = {}

        def probe():
            for cpu in sorted(_mask()):
                os.sched_setaffinity(0, {cpu})
                seen[cpu] = [evalbus._current_cpu()]
            with monkeypatch.context() as m:
                m.setattr(evalbus, "open", refuse_open, raising=False)
                for cpu in seen:
                    os.sched_setaffinity(0, {cpu})
                    seen[cpu].append(evalbus._current_cpu())

        def refuse_open(*args, **kwargs):
            raise OSError("no /proc")

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen and all(got == [cpu, cpu] for cpu, got in seen.items())
