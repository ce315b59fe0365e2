"""Wall-clock gateway smoke (``soak`` marker -- nightly lane).

**Scenario authors: start at ``tests/simtime`` instead.**  The scale and
duration coverage that used to live here -- 64-session soaks, idle-GC
over hours, exact backpressure sweeps -- moved to the virtual-time
harness (:mod:`repro.serving.simulate`), where it runs deterministically
in the push lane in seconds.  What remains here is the one thing virtual
time cannot assert: that the gateway on the default
:data:`~repro.utils.clock.WALL_CLOCK` -- real thread pool, real
``asyncio.sleep``, real GIL time-slicing -- still honours the same
contracts.  This is the WallClock-parity smoke for the Clock seam, kept
deliberately small:

- **No session leaks.**  Every session ends FINISHED and leaves the
  table; counters reconcile exactly with what the clients observed.
- **Bounded latency.**  Served moves stay within the *admission-scaled*
  bound (a move may time-slice one GIL with up to ``max_inflight``
  searches), with generous slack for a loaded CI box -- the simtime
  suite asserts the tight bound.
- **Exact rejection accounting.**  503s seen by clients equal the
  gateway's ``rejected`` counter.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.mcts import UniformEvaluator
from repro.serving import GatewayOverloaded, MatchGateway

pytestmark = pytest.mark.soak

SESSIONS = 16
DEADLINE_MS = 50.0
WORKERS = 4
MAX_INFLIGHT = 8
#: admission-scaled compliance bound (see module docstring): a served
#: move may wait behind up to MAX_INFLIGHT GIL-sharing searches, plus
#: generous scheduler slack for a loaded CI box
TOLERANCE_MS = DEADLINE_MS * MAX_INFLIGHT + 1500.0


async def _play_to_completion(gw: MatchGateway, results: list) -> None:
    """One client: create a session, play engine-vs-engine to the end,
    retrying (with backoff) when admission control sheds the request."""
    session = await gw.create_session("tictactoe")
    moves = 0
    retries = 0
    latencies: list[float] = []
    while True:
        try:
            reply = await gw.play_move(session, deadline_ms=DEADLINE_MS)
        except GatewayOverloaded:
            retries += 1
            await asyncio.sleep(0.002)
            continue
        moves += 1
        latencies.append(reply.latency_ms)
        if reply.done:
            results.append((session, moves, retries, latencies))
            return


class TestGatewayWallSmoke:
    @pytest.fixture(scope="class")
    def smoke_run(self):
        gw = MatchGateway(
            UniformEvaluator(),
            workers=WORKERS,
            deadline_ms=DEADLINE_MS,
            num_playouts=64,
            max_inflight=MAX_INFLIGHT,
            max_sessions=SESSIONS + 8,
            idle_timeout_s=60.0,
            seed=0,
        )
        results: list = []

        async def run():
            async with gw:
                await asyncio.gather(
                    *[_play_to_completion(gw, results) for _ in range(SESSIONS)]
                )
                return gw.stats(), gw.session_count

        stats, leftover = asyncio.run(run())
        return gw, results, stats, leftover

    def test_all_sessions_complete(self, smoke_run):
        _, results, stats, _ = smoke_run
        assert len(results) == SESSIONS
        assert stats.sessions_created == SESSIONS
        assert stats.sessions_finished == SESSIONS
        ids = {sid for sid, *_ in results}
        assert ids == set(range(min(ids), min(ids) + SESSIONS)), (
            "session ids must be a contiguous monotonic block"
        )

    def test_zero_session_leaks_after_gc(self, smoke_run):
        gw, _, _, leftover = smoke_run
        assert leftover == 0  # finished sessions left the table on their own
        swept = gw.expire_idle(now=1e12)  # final sweep finds nothing to free
        assert swept == [] and gw.session_count == 0

    def test_move_accounting_reconciles(self, smoke_run):
        _, results, stats, _ = smoke_run
        assert stats.moves_served == sum(moves for _, moves, _, _ in results)
        client_retries = sum(r for _, _, r, _ in results)
        assert stats.rejected == client_retries  # every 503 was counted once
        assert stats.inflight == 0

    def test_every_move_within_admission_scaled_deadline(self, smoke_run):
        _, results, stats, _ = smoke_run
        worst = max(max(lats) for *_, lats in results)
        assert worst <= DEADLINE_MS + TOLERANCE_MS, (
            f"worst served move {worst:.1f}ms exceeds "
            f"{DEADLINE_MS}+{TOLERANCE_MS}ms"
        )
        assert stats.latency_p99_ms <= DEADLINE_MS + TOLERANCE_MS


class TestForcedBackpressure:
    def test_rejections_are_exact_under_overload(self):
        gw = MatchGateway(
            UniformEvaluator(),
            workers=1,
            deadline_ms=200.0,
            num_playouts=4096,
            max_inflight=1,  # force the rejection path hard
            seed=1,
        )

        async def run():
            async with gw:
                sessions = [await gw.create_session() for _ in range(16)]
                replies = await asyncio.gather(
                    *[gw.play_move(s, deadline_ms=200.0) for s in sessions],
                    return_exceptions=True,
                )
                served = sum(1 for r in replies if not isinstance(r, Exception))
                rejected = sum(
                    1 for r in replies if isinstance(r, GatewayOverloaded)
                )
                unexpected = [
                    r
                    for r in replies
                    if isinstance(r, Exception)
                    and not isinstance(r, GatewayOverloaded)
                ]
                assert not unexpected
                return served, rejected, gw.stats()

        served, rejected, stats = asyncio.run(run())
        assert served + rejected == 16
        assert served >= 1 and rejected >= 1
        assert stats.rejected == rejected
        assert stats.moves_served == served
