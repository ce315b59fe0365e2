"""The PR-5 soak properties, re-expressed in virtual time (``simtime``).

Same gateway, same public API, same three guarantees the wall-clock soak
asserts -- no session leaks, bounded latency, exact rejection accounting
-- but on a :class:`~repro.utils.clock.VirtualClock` with modelled
search durations, which upgrades every bound from "generous slack for a
loaded CI box" to an exact number:

- the admission-scaled latency bound is asserted *tight*
  (``max_inflight * service_time``, no +1500 ms scheduler allowance);
- backpressure outcomes are exact counts, not ``>= 1``;
- the whole 64-session soak is deterministic and runs in the push lane.

The wall-clock original survives as a thin nightly smoke
(``tests/serving/test_gateway_soak.py``) validating WallClock parity.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.mcts import UniformEvaluator
from repro.serving import (
    GatewayOverloaded,
    InlineExecutor,
    MatchGateway,
    SimulatedSearchExecutor,
)
from repro.utils.clock import VirtualClock

pytestmark = pytest.mark.simtime

SESSIONS = 64
DEADLINE_MS = 50.0
SERVICE_S = 0.02  # modelled per-search virtual cost
MAX_INFLIGHT = 8
#: the admission-scaled bound, now exact: a served move waits behind at
#: most MAX_INFLIGHT - 1 other in-flight searches, each charging
#: SERVICE_S of virtual time, plus its own
TIGHT_BOUND_MS = MAX_INFLIGHT * SERVICE_S * 1e3


async def _play_to_completion(
    gw: MatchGateway, clock: VirtualClock, results: list, think_s: float = 1.0
) -> None:
    """One client: think, move, retry on 503 with virtual backoff."""
    session = await gw.create_session("tictactoe")
    moves = 0
    retries = 0
    latencies: list[float] = []
    while True:
        await clock.sleep(think_s)
        try:
            reply = await gw.play_move(session, deadline_ms=DEADLINE_MS)
        except GatewayOverloaded:
            retries += 1
            await clock.sleep(0.002)
            continue
        moves += 1
        latencies.append(reply.latency_ms)
        if reply.done:
            results.append((session, moves, retries, latencies))
            return


def _run_soak(sessions: int, seed: int = 0):
    clock = VirtualClock()
    executor = SimulatedSearchExecutor(clock, default_duration_s=SERVICE_S)
    gw = MatchGateway(
        UniformEvaluator(),
        workers=1,
        deadline_ms=DEADLINE_MS,
        num_playouts=16,
        max_inflight=MAX_INFLIGHT,
        max_sessions=sessions + 8,
        idle_timeout_s=3600.0,
        gc_interval_s=60.0,
        seed=seed,
        clock=clock,
        executor=executor,
    )
    results: list = []

    async def main():
        async with gw:
            await asyncio.gather(
                *[_play_to_completion(gw, clock, results) for _ in range(sessions)]
            )
            return gw.stats(), gw.session_count

    stats, leftover = clock.run(main())
    return gw, results, stats, leftover, clock


class TestGatewaySimSoak:
    @pytest.fixture(scope="class")
    def soak_run(self):
        return _run_soak(SESSIONS)

    def test_all_sessions_complete(self, soak_run):
        _, results, stats, _, _ = soak_run
        assert len(results) == SESSIONS
        assert stats.sessions_created == SESSIONS
        assert stats.sessions_finished == SESSIONS
        ids = {sid for sid, *_ in results}
        assert ids == set(range(min(ids), min(ids) + SESSIONS))

    def test_zero_session_leaks_after_gc(self, soak_run):
        gw, _, _, leftover, clock = soak_run
        assert leftover == 0
        swept = gw.expire_idle(now=clock.now + 1e9)
        assert swept == [] and gw.session_count == 0

    def test_move_accounting_reconciles(self, soak_run):
        _, results, stats, _, _ = soak_run
        assert stats.moves_served == sum(moves for _, moves, _, _ in results)
        assert stats.rejected == sum(r for _, _, r, _ in results)
        assert stats.inflight == 0

    def test_latency_within_tight_admission_scaled_bound(self, soak_run):
        """The wall soak needs +1500 ms of scheduler slack here; virtual
        time asserts the bound the architecture actually promises."""
        _, results, stats, _, _ = soak_run
        worst = max(max(lats) for *_, lats in results)
        assert worst <= TIGHT_BOUND_MS + 1e-6, (
            f"worst served move {worst:.3f}ms exceeds the exact "
            f"admission-scaled bound {TIGHT_BOUND_MS}ms"
        )
        assert stats.latency_p99_ms <= TIGHT_BOUND_MS + 1e-6

    def test_soak_is_deterministic(self):
        _, r1, s1, l1, c1 = _run_soak(24, seed=3)
        _, r2, s2, l2, c2 = _run_soak(24, seed=3)
        assert r1 == r2
        assert s1 == s2
        assert (l1, c1.now) == (l2, c2.now)


class TestForcedBackpressureExact:
    def test_rejection_outcome_is_exact(self):
        """16 simultaneous moves against max_inflight=1: in virtual time
        the outcome is not ``served >= 1`` but *exactly* one served and
        fifteen rejected, every run."""
        clock = VirtualClock()
        executor = SimulatedSearchExecutor(clock, default_duration_s=0.1)
        gw = MatchGateway(
            UniformEvaluator(),
            workers=1,
            deadline_ms=200.0,
            num_playouts=8,
            max_inflight=1,
            seed=1,
            clock=clock,
            executor=executor,
        )

        async def main():
            async with gw:
                sessions = [await gw.create_session() for _ in range(16)]
                replies = await asyncio.gather(
                    *[gw.play_move(s, deadline_ms=200.0) for s in sessions],
                    return_exceptions=True,
                )
                served = [r for r in replies if not isinstance(r, Exception)]
                rejected = [
                    r for r in replies if isinstance(r, GatewayOverloaded)
                ]
                assert len(served) + len(rejected) == 16
                return len(served), len(rejected), gw.stats()

        served, rejected, stats = clock.run(main())
        assert (served, rejected) == (1, 15)
        assert stats.rejected == 15 and stats.moves_served == 1


class TestModelledLatency:
    def test_latency_stamp_is_the_modelled_duration(self):
        """With an armed duration the gateway's latency stamp *is* the
        script's service time, so deadline misses are exact functions of
        the scenario (tolerance 0: no scheduler noise to absorb)."""
        clock = VirtualClock()
        executor = SimulatedSearchExecutor(clock)
        gw = MatchGateway(
            UniformEvaluator(),
            workers=1,
            deadline_ms=50.0,
            num_playouts=4,
            deadline_tolerance_ms=0.0,
            seed=0,
            clock=clock,
            executor=executor,
        )

        async def main():
            async with gw:
                session = await gw.create_session("tictactoe")
                executor.expect(0.010)
                fast = await gw.play_move(session, deadline_ms=50.0)
                executor.expect(0.060)
                slow = await gw.play_move(session, deadline_ms=50.0)
                return fast, slow, gw.stats()

        fast, slow, stats = clock.run(main())
        assert fast.latency_ms == pytest.approx(10.0)
        assert slow.latency_ms == pytest.approx(60.0)
        assert stats.deadline_misses == 1
        assert stats.moves_served == 2


class HandOffExecutor(InlineExecutor):
    """Inline executor whose hand-off costs *delay_s* of virtual time
    before the submitted search starts."""

    def __init__(self, clock: VirtualClock, delay_s: float) -> None:
        self.clock = clock
        self.delay_s = delay_s

    def submit(self, fn, /, *args, **kwargs):
        self.clock.advance(self.delay_s)
        return super().submit(fn, *args, **kwargs)


class TestDeadlineArming:
    @pytest.mark.parametrize(
        "hand_off_ms, remaining_ms", [(30.0, 70.0), (150.0, 1.0)]
    )
    def test_executor_hand_off_counts_against_the_deadline(
        self, hand_off_ms, remaining_ms
    ):
        """The search's allowance is what the move has left when the
        search starts on the executor: a 30 ms hand-off leaves 70 of a
        100 ms deadline, and an exhausted one still gets the 1 ms floor."""
        clock = VirtualClock()
        seen: list[float] = []
        gw = MatchGateway(
            UniformEvaluator(),
            workers=1,
            deadline_ms=100.0,
            num_playouts=4,
            seed=0,
            clock=clock,
            executor=HandOffExecutor(clock, hand_off_ms / 1e3),
            evalbus=False,
        )

        async def main():
            async with gw:
                session = await gw.create_session("tictactoe")
                agent = gw._sessions[session].agent
                search = agent.search

                def recording_search(game, budget):
                    seen.append(budget.time_budget_ms)
                    return search(game, budget)

                agent.search = recording_search
                return await gw.play_move(session)

        reply = clock.run(main())
        assert seen == [pytest.approx(remaining_ms)]
        assert reply.latency_ms == pytest.approx(hand_off_ms)


class TestClockSeamGuards:
    def test_injected_executor_is_borrowed_not_owned(self):
        clock = VirtualClock()
        executor = SimulatedSearchExecutor(clock)
        gw = MatchGateway(UniformEvaluator(), clock=clock, executor=executor)

        async def main():
            async with gw:
                pass

        clock.run(main())
        # aclose() must not have shut the borrowed executor down
        assert executor.submit(lambda: 41 + 1).result() == 42
