"""Idle-GC edge cases under virtual time (``simtime`` marker).

The sweep's corner cases live at time scales wall-clock tests cannot
visit -- hours of idle cadence, a GC interval much longer than the TTL,
a sweep racing a move that takes minutes -- and at boundaries too tight
to hit reliably on a real clock.  On a VirtualClock each one is a few
deterministic lines:

- the background sweep reaps on its virtual cadence, and a 24-simulated-
  hour empty gateway stays bounded;
- a sweep racing session creation expires exactly the stale session;
- a session whose *move is in flight* is never reaped however stale its
  ``last_active`` looks (the satellite regression for the historic
  ``perf_counter``-vs-``monotonic`` timebase mix: activity stamps and
  the sweep now read one injected clock).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.mcts import UniformEvaluator
from repro.serving import (
    MatchGateway,
    SessionNotFound,
    SessionStatus,
    SimulatedSearchExecutor,
)
from repro.serving.engine import LatencyTracker
from repro.utils.clock import VirtualClock

pytestmark = pytest.mark.simtime


def _gateway(clock, executor=None, **overrides) -> MatchGateway:
    kwargs = dict(
        workers=1,
        deadline_ms=50.0,
        num_playouts=2,
        idle_timeout_s=60.0,
        gc_interval_s=30.0,
        seed=0,
        clock=clock,
        executor=executor
        if executor is not None
        else SimulatedSearchExecutor(clock),
    )
    kwargs.update(overrides)
    return MatchGateway(UniformEvaluator(), **kwargs)


class TestSweepCadence:
    def test_background_sweep_reaps_on_virtual_time(self):
        clock = VirtualClock()
        gw = _gateway(clock, idle_timeout_s=30.0, gc_interval_s=10.0)

        async def main():
            async with gw:
                await gw.create_session()
                # sweeps at 10/20/30 see idle <= 30 (not strictly past
                # the TTL); the one at t=40 reaps
                await clock.sleep(41.0)
                return gw.session_count, gw.stats()

        leftover, stats = clock.run(main())
        assert leftover == 0
        assert stats.sessions_expired == 1

    def test_gc_interval_much_longer_than_ttl(self):
        """With interval >> TTL the session outlives its timeout until
        the next sweep actually runs -- the documented cadence contract,
        directly observable in virtual time."""
        clock = VirtualClock()
        gw = _gateway(clock, idle_timeout_s=60.0, gc_interval_s=3600.0)

        async def main():
            async with gw:
                await gw.create_session()
                await clock.sleep(3599.0)
                alive_before_sweep = gw.session_count
                await clock.sleep(2.0)  # the t=3600 sweep runs in between
                return alive_before_sweep, gw.session_count, gw.stats()

        alive, after, stats = clock.run(main())
        assert alive == 1, "idle past TTL but unswept: still in the table"
        assert after == 0 and stats.sessions_expired == 1

    def test_24_simulated_hours_of_empty_sweeps_stay_bounded(self):
        clock = VirtualClock()
        gw = _gateway(clock, idle_timeout_s=300.0, gc_interval_s=60.0)

        async def main():
            async with gw:
                await clock.sleep(24 * 3600.0)
                return gw.session_count, gw.stats()

        leftover, stats = clock.run(main())
        assert clock.now >= 24 * 3600.0
        assert clock.fires >= 24 * 60, "one sweep per simulated minute"
        assert leftover == 0
        assert stats.sessions_created == stats.sessions_expired == 0
        assert stats.moves_served == stats.rejected == 0

    def test_expiry_surfaces_as_session_not_found(self):
        clock = VirtualClock()
        gw = _gateway(clock, idle_timeout_s=60.0, gc_interval_s=30.0)

        async def main():
            async with gw:
                session = await gw.create_session()
                await clock.sleep(100.0)  # the t=90 sweep reaps mid-think
                with pytest.raises(SessionNotFound):
                    await gw.play_move(session)
                return gw.stats()

        stats = clock.run(main())
        assert stats.sessions_expired == 1


class TestSweepBoundaries:
    def test_sweep_races_session_creation(self):
        """A sweep lands between an old session and a fresh one: exactly
        the stale session is reaped, at the exact TTL boundary (strict
        ``>`` -- idle == timeout survives)."""
        clock = VirtualClock()
        gw = _gateway(clock, idle_timeout_s=30.0)

        async def main():
            old = await gw.create_session()
            clock.advance(29.5)
            fresh = await gw.create_session()
            assert gw.expire_idle() == [], "29.5s idle < 30s TTL"
            clock.advance(0.5)
            assert gw.expire_idle() == [], "exactly the TTL is not past it"
            clock.advance(0.5)
            assert gw.expire_idle() == [old]
            assert gw.session_count == 1
            clock.advance(31.0)
            assert gw.expire_idle() == [fresh]
            await gw.aclose()

        asyncio.run(main())
        assert gw.stats().sessions_expired == 2

    def test_mid_move_gc_never_reaps_an_active_session(self):
        """The satellite regression: a search takes 5 simulated minutes,
        the GC sweeps every 30s with a 60s TTL -- the sweep runs *during*
        the move and must spare the session (held lock; and the move
        stamped ``last_active`` at its own start on the same clock).
        Afterwards the same sweep cadence must still reap it once it is
        genuinely idle -- the spare is surgical, not a leak."""
        clock = VirtualClock()
        executor = SimulatedSearchExecutor(clock)
        gw = _gateway(
            clock, executor=executor, idle_timeout_s=60.0, gc_interval_s=30.0
        )

        async def main():
            async with gw:
                session = await gw.create_session()
                executor.expect(300.0)  # the search "runs" for 5 minutes
                reply = await gw.play_move(session, deadline_ms=50.0)
                mid_move_state = (gw.session_count, gw.stats().sessions_expired)
                # genuinely idle now: the t=390 sweep (90s past the move)
                # must reap it
                await clock.sleep(91.0)
                return reply, mid_move_state, gw.session_count, gw.stats()

        reply, (alive, expired_mid), leftover, stats = clock.run(main())
        assert reply.status is SessionStatus.ACTIVE
        assert reply.latency_ms == pytest.approx(300_000.0)
        assert (alive, expired_mid) == (1, 0), (
            "the sweep that ran mid-move reaped an active session"
        )
        assert leftover == 0 and stats.sessions_expired == 1


class TestBoundedTelemetry:
    def test_latency_tracker_window_bounds_memory_over_sim_hours(self):
        clock = VirtualClock()
        tracker = LatencyTracker(window=16, clock=clock)
        for _ in range(1000):
            with tracker.measure():
                clock.advance(0.25)  # hours of virtual load, 16 floats kept
        assert len(tracker._samples) == 16
        assert tracker.count == 1000
        assert tracker.percentile(99) == pytest.approx(0.25)
        assert tracker.mean == pytest.approx(0.25)

    def test_measure_records_virtual_duration(self):
        clock = VirtualClock(start=40.0)
        tracker = LatencyTracker(clock=clock)
        with tracker.measure():
            clock.advance(1.5)
        assert tracker.count == 1
        assert tracker.percentile(50) == pytest.approx(1.5)
