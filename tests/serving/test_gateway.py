"""Match-gateway unit tests: sessions, deadlines, backpressure, wire layer.

No pytest-asyncio dependency: each test drives its own event loop via
``asyncio.run`` (the gateway's public API is plain coroutines, so a
short-lived loop per test keeps state isolation trivial).
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.games import TicTacToe
from repro.mcts import UniformEvaluator
from repro.serving import (
    GatewayClient,
    GatewayError,
    GatewayOverloaded,
    GatewayServer,
    InvalidMove,
    LatencyTracker,
    MatchGateway,
    SessionNotFound,
    SessionStatus,
)


def make_gateway(evaluator=None, **kwargs) -> MatchGateway:
    defaults = dict(workers=2, deadline_ms=100.0, num_playouts=24, seed=0)
    defaults.update(kwargs)
    return MatchGateway(evaluator or UniformEvaluator(), **defaults)


class SlowUniform(UniformEvaluator):
    def __init__(self, delay: float) -> None:
        self.delay = delay

    def evaluate(self, game):
        time.sleep(self.delay)
        return super().evaluate(game)


class TestSessions:
    def test_ids_are_monotonic_and_never_reused(self):
        async def run():
            async with make_gateway() as gw:
                first = await gw.create_session("tictactoe")
                second = await gw.create_session("tictactoe")
                await gw.resign(first)
                third = await gw.create_session("tictactoe")
                return first, second, third

        first, second, third = asyncio.run(run())
        assert first < second < third  # resigning never frees an id

    def test_move_applies_client_action_then_engine_replies(self):
        async def run():
            async with make_gateway() as gw:
                session = await gw.create_session("tictactoe")
                reply = await gw.play_move(session, action=4)
                return reply

        reply = asyncio.run(run())
        assert reply.engine_action is not None and reply.engine_action != 4
        assert reply.move_number == 2  # client ply + engine ply
        assert reply.prior is not None and reply.prior.sum() == pytest.approx(1.0)
        assert reply.prior[4] == 0  # the occupied square got no mass

    def test_illegal_move_rejected(self):
        async def run():
            async with make_gateway() as gw:
                session = await gw.create_session("tictactoe")
                await gw.play_move(session, action=0)
                with pytest.raises(InvalidMove):
                    await gw.play_move(session, action=0)
                # the failed request must not have corrupted the session
                reply = await gw.play_move(session, action=None)
                return reply

        assert asyncio.run(run()).engine_action is not None

    def test_game_plays_to_completion_and_session_is_removed(self):
        async def run():
            async with make_gateway() as gw:
                session = await gw.create_session("tictactoe")
                while True:
                    reply = await gw.play_move(session)
                    if reply.done:
                        break
                assert reply.winner in (-1, 0, 1)
                assert reply.status is SessionStatus.FINISHED
                assert gw.session_count == 0
                with pytest.raises(SessionNotFound):
                    await gw.play_move(session)
                return gw.stats()

        stats = asyncio.run(run())
        assert stats.sessions_finished == 1 and stats.sessions_active == 0

    def test_resign_closes_session(self):
        async def run():
            async with make_gateway() as gw:
                session = await gw.create_session("connect4")
                status = await gw.resign(session)
                assert status is SessionStatus.RESIGNED
                assert gw.session_count == 0
                with pytest.raises(SessionNotFound):
                    await gw.resign(session)
                return gw.stats()

        assert asyncio.run(run()).sessions_resigned == 1

    def test_resign_queued_behind_finishing_move_gets_404(self):
        """A resign waiting on the session lock while the in-flight move
        ends the game must not overwrite FINISHED / double-count."""

        async def run():
            async with make_gateway(workers=1) as gw:
                session = await gw.create_session("tictactoe")

                async def play_out():
                    while True:
                        try:
                            reply = await gw.play_move(session)
                        except SessionNotFound:
                            return  # the resign legitimately won the race
                        if reply.done:
                            return

                async def resign_spam():
                    outcomes = []
                    for _ in range(20):
                        try:
                            await gw.resign(session)
                            outcomes.append("resigned")
                            return outcomes
                        except SessionNotFound:
                            outcomes.append("404")
                            await asyncio.sleep(0.002)
                    return outcomes

                _, outcomes = await asyncio.gather(play_out(), resign_spam())
                return gw.stats(), outcomes

        stats, _ = asyncio.run(run())
        # lifecycle counters must reconcile: exactly one terminal outcome
        assert (
            stats.sessions_finished + stats.sessions_resigned
            == stats.sessions_created
            == 1
        )

    def test_game_template_rejects_mismatched_sessions(self):
        async def run():
            gw = MatchGateway(
                UniformEvaluator(), workers=1,
                game_template=TicTacToe(), seed=0,
            )
            async with gw:
                ok = await gw.create_session("tictactoe")
                assert ok >= 1
                with pytest.raises(GatewayError):
                    await gw.create_session("connect4")
                with pytest.raises(GatewayError):
                    await gw.create_session("gomoku", size=9)
                return gw.stats()

        assert asyncio.run(run()).sessions_created == 1

    def test_unknown_session_raises(self):
        async def run():
            async with make_gateway() as gw:
                with pytest.raises(SessionNotFound):
                    await gw.play_move(999)

        asyncio.run(run())

    def test_max_sessions_rejects_with_503(self):
        async def run():
            async with make_gateway(max_sessions=2) as gw:
                await gw.create_session()
                await gw.create_session()
                with pytest.raises(GatewayOverloaded):
                    await gw.create_session()
                return gw.stats()

        assert asyncio.run(run()).rejected == 1


class TestIdleGC:
    def test_idle_sessions_expire_and_table_empties(self):
        async def run():
            async with make_gateway(idle_timeout_s=10.0) as gw:
                ids = [await gw.create_session() for _ in range(3)]
                await gw.play_move(ids[0])
                swept = gw.expire_idle(now=time.monotonic() + 60.0)
                assert sorted(swept) == sorted(ids)
                assert gw.session_count == 0
                return gw.stats()

        stats = asyncio.run(run())
        assert stats.sessions_expired == 3

    def test_fresh_sessions_survive_the_sweep(self):
        async def run():
            async with make_gateway(idle_timeout_s=3600.0) as gw:
                session = await gw.create_session()
                assert gw.expire_idle() == []
                assert gw.session_count == 1
                await gw.resign(session)

        asyncio.run(run())

    def test_background_gc_task_runs(self):
        async def run():
            async with make_gateway(
                idle_timeout_s=0.01, gc_interval_s=0.02
            ) as gw:
                await gw.create_session()
                await asyncio.sleep(0.1)  # let the GC loop fire
                return gw.session_count, gw.stats().sessions_expired

        count, expired = asyncio.run(run())
        assert count == 0 and expired == 1


class TestBackpressure:
    def test_rejection_accounting_is_exact(self):
        async def run():
            gw = make_gateway(
                workers=1, max_inflight=1, num_playouts=4096,
                deadline_ms=250.0,
            )
            async with gw:
                sessions = [await gw.create_session() for _ in range(6)]
                replies = await asyncio.gather(
                    *[gw.play_move(s) for s in sessions],
                    return_exceptions=True,
                )
                served = [r for r in replies if not isinstance(r, Exception)]
                rejected = [r for r in replies if isinstance(r, GatewayOverloaded)]
                assert len(served) + len(rejected) == 6
                stats = gw.stats()
                assert stats.rejected == len(rejected)
                assert stats.moves_served == len(served)
                assert len(rejected) >= 1  # the limit really bound
                return stats

        stats = asyncio.run(run())
        assert stats.inflight == 0  # every admission slot was released

    def test_rejected_requests_leave_sessions_playable(self):
        async def run():
            async with make_gateway(max_inflight=1) as gw:
                session = await gw.create_session()
                other = await gw.create_session()
                first, second = await asyncio.gather(
                    gw.play_move(session),
                    gw.play_move(other),
                    return_exceptions=True,
                )
                # whichever lost admission can simply retry
                losers = [
                    s for s, r in ((session, first), (other, second))
                    if isinstance(r, GatewayOverloaded)
                ]
                for s in losers:
                    reply = await gw.play_move(s)
                    assert reply.engine_action is not None

        asyncio.run(run())


class TestDeadlines:
    def test_deadline_miss_accounting(self):
        async def run():
            gw = MatchGateway(
                SlowUniform(0.01),  # 10ms/eval >> the 1ms deadline
                workers=1, deadline_ms=1.0,
                num_playouts=64, deadline_tolerance_ms=0.0, seed=0,
            )
            async with gw:
                session = await gw.create_session()
                reply = await gw.play_move(session)
                stats = gw.stats()
                assert reply.engine_action is not None
                return stats

        assert asyncio.run(run()).deadline_misses == 1

    def test_moves_respect_the_deadline_budget(self):
        async def run():
            gw = make_gateway(
                workers=1, num_playouts=1_000_000, deadline_ms=50.0
            )
            async with gw:
                session = await gw.create_session()
                t0 = time.perf_counter()
                await gw.play_move(session)
                return time.perf_counter() - t0

        # generous slack: scheduler + executor handoff on a loaded box
        assert asyncio.run(run()) < 1.0

    def test_invalid_deadline_rejected(self):
        async def run():
            async with make_gateway() as gw:
                session = await gw.create_session()
                with pytest.raises(GatewayError):
                    await gw.play_move(session, deadline_ms=0.0)

        asyncio.run(run())


class TestLoadWeights:
    def test_new_session_searches_with_the_loaded_net(self):
        """After load_weights no search is answered from the old net's
        cached evaluations: a session opened after the load plays what a
        gateway built on the new net plays, bit for bit."""
        from repro.games import build_network_for
        from repro.mcts import NetworkEvaluator
        from repro.utils.wire import encode_state

        def gateway(seed: int) -> MatchGateway:
            net = build_network_for(TicTacToe(), channels=(8, 16, 16), rng=seed)
            return make_gateway(
                evaluator=NetworkEvaluator(net), deadline_ms=60_000.0,
                num_playouts=16, game_template=TicTacToe(),
            )

        async def second_prior(gw: MatchGateway, load=None) -> np.ndarray:
            async with gw:
                await gw.play_move(await gw.create_session())
                if load is not None:
                    gw.load_weights(encode_state(load.state_dict()))
                reply = await gw.play_move(await gw.create_session())
                return reply.prior

        net_b = build_network_for(TicTacToe(), channels=(8, 16, 16), rng=2)
        rolled = asyncio.run(second_prior(gateway(1), load=net_b))
        fresh = asyncio.run(second_prior(gateway(2)))
        assert np.array_equal(rolled, fresh)


class TestWireLayer:
    def test_tcp_round_trip(self):
        async def run():
            gw = make_gateway()
            server = GatewayServer(gw)
            host, port = await server.start()
            client = await GatewayClient.connect(host, port)
            try:
                session = await client.new_match("tictactoe")
                reply = await client.move(session, action=0)
                assert reply["ok"] and reply["engine_action"] is not None
                assert reply["prior"] is not None
                assert sum(reply["prior"]) == pytest.approx(1.0, abs=1e-4)
                stats = await client.stats()
                assert stats["moves_served"] == 1
                await client.resign(session)
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())

    def test_errors_travel_as_codes_not_disconnects(self):
        async def run():
            server = GatewayServer(make_gateway())
            host, port = await server.start()
            client = await GatewayClient.connect(host, port)
            try:
                # unknown session -> 404 mapped back to SessionNotFound
                with pytest.raises(SessionNotFound):
                    await client.move(999)
                # malformed op -> 400, connection still usable
                raw = await client.request({"op": "warp"})
                assert raw["ok"] is False and raw["code"] == 400
                # out-of-range / non-integer actions -> 422 InvalidMove,
                # never a dead connection (regression: unchecked index)
                session = await client.new_match()
                for bad_action in (99, -1, 4.5, "4", True):
                    reply = await client.request(
                        {"op": "move", "session": session, "action": bad_action}
                    )
                    assert reply["ok"] is False and reply["code"] == 422, (
                        bad_action
                    )
                good = await client.move(session, action=4)
                assert good["ok"]
                # raw garbage line -> 400, connection still usable
                client._writer.write(b"this is not json\n")
                await client._writer.drain()
                bad = json.loads(await client._reader.readline())
                assert bad["ok"] is False and bad["code"] == 400
                assert await client.new_match() >= 1
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())

    def test_shutdown_does_not_hang_on_idle_connections(self):
        """Server.close() does not end open connections, and on Python
        >= 3.12.1 wait_closed() waits for every handler -- aclose() must
        cancel live handlers or an idle client wedges shutdown."""

        async def run():
            server = GatewayServer(make_gateway())
            host, port = await server.start()
            idle = await GatewayClient.connect(host, port)
            assert (await idle.request({"op": "ping"}))["ok"]
            # the idle client never disconnects; aclose must still return
            await asyncio.wait_for(server.aclose(), timeout=5.0)
            await idle.aclose()

        asyncio.run(run())

    def test_unexpected_server_error_replies_500_and_keeps_connection(self):
        """A crashed backend (e.g. BrokenProcessPool after a worker OOM
        kill) must surface as a 500 reply, not a dead socket."""

        async def run():
            gw = make_gateway()
            server = GatewayServer(gw)
            host, port = await server.start()
            client = await GatewayClient.connect(host, port)

            async def explode(*a, **k):
                raise RuntimeError("worker pool gone")

            gw.play_move = explode
            try:
                session = await client.new_match()
                reply = await client.request({"op": "move", "session": session})
                assert reply["ok"] is False and reply["code"] == 500
                assert "worker pool gone" in reply["error"]
                # the connection survived the failure
                assert (await client.request({"op": "ping"}))["ok"]
            finally:
                await client.aclose()
                await server.aclose()

        asyncio.run(run())

    def test_concurrent_clients_share_one_gateway(self):
        async def run():
            server = GatewayServer(make_gateway(workers=4))
            host, port = await server.start()

            async def one_full_game() -> int:
                client = await GatewayClient.connect(host, port)
                try:
                    session = await client.new_match()
                    while True:
                        reply = await client.move(session)
                        if reply["done"]:
                            return reply["move_number"]
                finally:
                    await client.aclose()

            try:
                moves = await asyncio.gather(*[one_full_game() for _ in range(4)])
                stats = server.gateway.stats()
                assert stats.sessions_finished == 4
                assert stats.moves_served == sum(moves)
                return moves
            finally:
                await server.aclose()

        assert all(m >= 3 for m in asyncio.run(run()))


class TestLatencyTracker:
    def test_percentiles_over_window(self):
        tracker = LatencyTracker(window=100)
        for v in range(1, 101):
            tracker.record(v / 1000.0)
        assert tracker.percentile(50) == pytest.approx(0.0505, abs=1e-3)
        assert tracker.percentile(99) == pytest.approx(0.1, abs=2e-3)
        assert tracker.count == 100
        summary = tracker.summary_ms()
        assert summary["count"] == 100 and summary["p50_ms"] > 0

    def test_ring_keeps_recent_samples(self):
        tracker = LatencyTracker(window=4)
        for v in (1.0, 1.0, 1.0, 1.0, 0.002, 0.002, 0.002, 0.002):
            tracker.record(v)
        # the old 1s outliers fell out of the window
        assert tracker.percentile(99) == pytest.approx(0.002)
        assert tracker.count == 8

    def test_empty_tracker_is_zero(self):
        tracker = LatencyTracker()
        assert tracker.percentile(99) == 0.0 and tracker.mean == 0.0

    def test_thread_safe_recording(self):
        import threading

        tracker = LatencyTracker(window=64)

        def hammer():
            for _ in range(500):
                tracker.record(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracker.count == 2000

    def test_engine_round_reports_latency_percentiles(self):
        from repro.serving import MultiGameSelfPlayEngine

        with MultiGameSelfPlayEngine(
            TicTacToe(), UniformEvaluator(), num_games=2, num_playouts=8,
            rng=0,
        ) as engine:
            _, stats = engine.play_round()
        assert stats.move_latency_p99_ms >= stats.move_latency_p50_ms > 0
        d = stats.as_dict()
        assert "move_latency_p99_ms" in d


def test_gateway_rejects_bad_config():
    # threads are the gateway's only backend; multi-core serving is the
    # cluster's ProcessShard
    for backend in ("quantum", "process"):
        with pytest.raises(ValueError):
            MatchGateway(UniformEvaluator(), backend=backend)
    with pytest.raises(ValueError):
        MatchGateway(UniformEvaluator(), workers=0)
    with pytest.raises(ValueError):
        MatchGateway(UniformEvaluator(), deadline_ms=0)
    with pytest.raises(ValueError):
        MatchGateway(UniformEvaluator(), num_playouts=0)
    with pytest.raises(ValueError):
        # not silently coerced to the 2*workers default
        MatchGateway(UniformEvaluator(), max_inflight=0)


def test_make_game_rejects_zero_gomoku_size():
    from repro.games import make_game

    assert make_game("gomoku").board_shape == (15, 15)
    with pytest.raises(ValueError):
        make_game("gomoku", 0)


def test_prior_is_over_legal_moves_only():
    async def run():
        async with make_gateway() as gw:
            session = await gw.create_session("tictactoe")
            occupied = []
            while True:
                reply = await gw.play_move(session)
                if reply.done:
                    return
                assert np.all(np.asarray(reply.prior)[occupied] == 0)
                occupied.append(reply.engine_action)

    asyncio.run(run())
