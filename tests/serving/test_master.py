"""The gateway's search master: fused rounds, failure and shutdown.

Each test holds the master inside its first evaluator call (an event the
test releases), queues a second move meanwhile, and then reads which
calls the evaluator saw.  Round composition is therefore fixed by the
events, never by timing: the held call carries session A's first leaf,
and the next round steps A's second leaf and session B's first one.
The sessions play different games, so no leaf of one is a cache hit
for the other.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time

import pytest

from repro.mcts import UniformEvaluator
from repro.serving import MatchGateway, SessionNotFound

WAIT_S = 10.0


class GatedEvaluator(UniformEvaluator):
    """Uniform evaluator whose first call waits for ``release``; records
    the rows of every call and raises on call number *fail_call*."""

    def __init__(self, fail_call: int | None = None) -> None:
        self.fail_call = fail_call
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls: list[int] = []

    def evaluate(self, game):
        return self.evaluate_batch([game])[0]

    def evaluate_batch(self, games):
        self.calls.append(len(games))
        if len(self.calls) == 1:
            self.entered.set()
            assert self.release.wait(timeout=WAIT_S)
        if len(self.calls) == self.fail_call:
            raise RuntimeError("device lost")
        return [super(GatedEvaluator, self).evaluate(g) for g in games]


def gateway(evaluator, **kwargs) -> MatchGateway:
    kwargs = {
        "workers": 2,
        "deadline_ms": 60_000.0,
        "num_playouts": 2,  # two leaves per move: the root, then a child
        "seed": 0,
        **kwargs,
    }
    return MatchGateway(evaluator, **kwargs)


async def _until(predicate) -> None:
    stop = time.monotonic() + WAIT_S
    while not predicate():
        assert time.monotonic() < stop, "condition never held"
        await asyncio.sleep(0.001)


async def hold_a_then_queue_b(gw: MatchGateway, gate: GatedEvaluator):
    """Start A's move and hold it in the first call; queue B's move."""
    a = await gw.create_session("tictactoe")
    b = await gw.create_session("connect4")
    move_a = asyncio.ensure_future(gw.play_move(a))
    assert await asyncio.to_thread(gate.entered.wait, WAIT_S)
    move_b = asyncio.ensure_future(gw.play_move(b))
    await _until(lambda: len(gw._master._queue) == 1)
    return (a, move_a), (b, move_b)


class TestRounds:
    @pytest.mark.parametrize(
        "evalbus, calls", [(True, [1, 2, 1]), (False, [1, 1, 1, 1])]
    )
    def test_pending_leaves_of_two_sessions_share_one_call(self, evalbus, calls):
        gate = GatedEvaluator()

        async def run():
            async with gateway(gate, evalbus=evalbus) as gw:
                (_, move_a), (_, move_b) = await hold_a_then_queue_b(gw, gate)
                gate.release.set()
                await asyncio.wait_for(asyncio.gather(move_a, move_b), WAIT_S)
                return gw.stats()

        stats = asyncio.run(run())
        assert gate.calls == calls
        assert stats.bus_enabled is evalbus
        if evalbus:
            assert (stats.bus_batches, stats.bus_requests) == (3, 4)
            assert stats.bus_occupancy == pytest.approx(4 / 3)
        else:
            assert (stats.bus_batches, stats.bus_requests) == (0, 0)
        assert stats.bus_linger_flushes == stats.bus_deadline_flushes == 0


class TestFailure:
    @pytest.mark.parametrize("evalbus", [True, False])
    def test_a_raising_call_fails_exactly_the_moves_it_carried(self, evalbus):
        """The second call raises.  Fused, it carried A's and B's leaves,
        and both moves fail; unfused, it carried A's leaf alone, and B's
        move is served.  Either way the master goes on serving: both
        sessions then play a move."""
        gate = GatedEvaluator(fail_call=2)

        async def run():
            async with gateway(gate, evalbus=evalbus) as gw:
                (a, move_a), (b, move_b) = await hold_a_then_queue_b(gw, gate)
                gate.release.set()
                outcomes = await asyncio.wait_for(
                    asyncio.gather(move_a, move_b, return_exceptions=True),
                    WAIT_S,
                )
                later = [await gw.play_move(s) for s in (a, b)]
                return outcomes, later

        (out_a, out_b), later = asyncio.run(run())
        assert isinstance(out_a, RuntimeError) and str(out_a) == "device lost"
        if evalbus:
            assert isinstance(out_b, RuntimeError)
        else:
            assert out_b.engine_action is not None
        assert all(reply.engine_action is not None for reply in later)


class TestShutdown:
    @pytest.mark.parametrize("fail_call", [None, 1])
    def test_aclose_finishes_or_fails_every_move_in_flight(self, fail_call):
        """aclose with A inside a call and B queued: aclose returns only
        once each move is served or has failed with the evaluator's
        error, so nothing is left awaiting.  With one worker, B is
        admitted only after A leaves.  Moves after aclose are refused."""
        gate = GatedEvaluator(fail_call=fail_call)

        async def run():
            gw = await gateway(gate, workers=1).start()
            (a, move_a), (_, move_b) = await hold_a_then_queue_b(gw, gate)
            closing = asyncio.ensure_future(gw.aclose())
            await asyncio.sleep(0)
            gate.release.set()
            await asyncio.wait_for(closing, WAIT_S)
            assert move_a.done() and move_b.done()
            with pytest.raises(SessionNotFound):
                await gw.play_move(a)
            return [m.exception() or m.result() for m in (move_a, move_b)]

        out_a, out_b = asyncio.run(run())
        if fail_call is None:
            assert out_a.engine_action is not None
            assert gate.calls == [1, 1, 1, 1]  # A's two leaves, then B's
        else:
            assert isinstance(out_a, RuntimeError)
            assert gate.calls == [1, 1, 1]  # A's failed leaf, then B's two
        assert out_b.engine_action is not None

    def test_cancelled_move_leaves_the_master(self):
        """A move cancelled while its leaf is in the evaluator is dropped
        at the next round (its program closed); B is served alone."""
        gate = GatedEvaluator()

        async def run():
            async with gateway(gate) as gw:
                (_, move_a), (_, move_b) = await hold_a_then_queue_b(gw, gate)
                move_a.cancel()
                gate.release.set()
                reply = await asyncio.wait_for(move_b, WAIT_S)
                return move_a, reply

        move_a, reply = asyncio.run(run())
        assert move_a.cancelled()
        assert reply.engine_action is not None
        assert gate.calls == [1, 1, 1]  # A's held leaf, then B's two


class TestStress:
    def test_many_sessions_under_a_short_switch_interval(self):
        """24 sessions on 4 workers hand moves to the master while the
        interpreter switches threads every 10 us: every move is served,
        and the bus counters match the calls the evaluator saw."""
        seen: list[int] = []

        class Recording(UniformEvaluator):
            def evaluate_batch(self, games):
                seen.append(len(games))
                return [super(Recording, self).evaluate(g) for g in games]

        async def run():
            async with gateway(
                Recording(), workers=4, max_inflight=24, num_playouts=8
            ) as gw:
                sessions = [await gw.create_session("connect4") for _ in range(24)]
                for _ in range(3):
                    await asyncio.wait_for(
                        asyncio.gather(*(gw.play_move(s) for s in sessions)),
                        WAIT_S,
                    )
                return gw.stats()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            stats = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        assert stats.moves_served == 72
        assert (stats.bus_batches, stats.bus_requests) == (len(seen), sum(seen))
        assert max(seen) <= 4
