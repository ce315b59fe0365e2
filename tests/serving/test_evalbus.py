"""Cross-session evaluation bus: fusion, urgency, degradation, wiring.

The bus is the gateway's convergence point for leaf evaluations from
*all* live sessions, so these tests cover its three promises separately:

- **Fusion** -- leaves from distinct searches fuse into one accelerator
  batch once every busy search has one pending (the busy-headcount
  threshold), with the single armed linger window as the stall bound.
- **Urgency** -- a session inside its ``deadline_lead_ms`` horizon never
  lingers, and when the backlog exceeds ``max_batch`` the closest
  deadlines ship first.
- **Degradation** -- with the bus off the gateway serves exactly as
  before (per-session evaluation), and with it on, generous deadlines
  produce the identical game transcript (batched rows are value-equal
  to singleton evaluations).
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.games import TicTacToe
from repro.mcts import SerialMCTS, UniformEvaluator
from repro.mcts.budget import BudgetClock, SearchBudget, active_budget_snapshot
from repro.serving import BusEvaluator, EvaluationBus, MatchGateway
from repro.serving.evalbus import BusClosed
from repro.utils.clock import VirtualClock, WallClock


class RecordingEvaluator(UniformEvaluator):
    """Uniform evaluator that records every batch it is handed."""

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.batches: list[list] = []
        self._lock = threading.Lock()

    def evaluate_batch(self, games):
        with self._lock:
            self.batches.append(list(games))
        if self.delay:
            time.sleep(self.delay)
        return super().evaluate_batch(games)


class TestFusion:
    def test_threshold_flush_at_busy_headcount(self):
        """N busy searches, N submissions -> exactly one fused batch."""
        rec = RecordingEvaluator()
        bus = EvaluationBus(rec, linger=0.5)  # linger generous: must not fire
        for _ in range(4):
            bus.begin_search()
        results: list = []
        lock = threading.Lock()

        def worker():
            ev = bus.evaluate(TicTacToe())
            with lock:
                results.append(ev)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        t0 = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert time.monotonic() - t0 < 0.4, "waited for linger, not threshold"
        assert len(results) == 4
        assert [len(b) for b in rec.batches] == [4]
        stats = bus.stats()
        assert stats.threshold_flushes == 1
        assert stats.mean_occupancy == 4.0
        bus.close()

    def test_straggler_resolves_via_linger(self):
        """Fewer pending leaves than busy searches: only the linger window
        may flush them (the cache-hit / select-phase stall bound)."""
        bus = EvaluationBus(UniformEvaluator(), linger=0.01)
        bus.begin_search()
        bus.begin_search()  # second search busy but never submits
        ev = bus.evaluate(TicTacToe())
        assert ev is not None
        assert bus.stats().linger_flushes == 1
        bus.close()

    def test_no_thread_and_lone_waiter_flushes_at_linger(self):
        """The bus starts no thread; below the threshold the waiter itself
        flushes once its leaf has aged past the linger, not before."""
        before = set(threading.enumerate())
        bus = EvaluationBus(UniformEvaluator(), linger=0.05)
        assert set(threading.enumerate()) == before
        bus.begin_search()
        bus.begin_search()  # threshold 2: the lone leaf cannot fill it
        t0 = time.monotonic()
        bus.evaluate(TicTacToe())
        waited = time.monotonic() - t0
        assert 0.05 <= waited < 5.0
        stats = bus.stats()
        assert stats.linger_flushes == stats.batches == 1
        assert set(threading.enumerate()) == before
        bus.close()

    def test_end_search_lowers_threshold_and_flushes(self):
        """A search finishing mid-window releases waiters whose backlog
        now meets the lowered headcount."""
        rec = RecordingEvaluator()
        bus = EvaluationBus(rec, linger=10.0)  # effectively never
        bus.begin_search()
        bus.begin_search()
        done = threading.Event()

        def worker():
            bus.evaluate(TicTacToe())
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        time.sleep(0.05)
        assert not done.is_set()  # 1 pending < 2 busy: still lingering
        bus.end_search()  # headcount drops to 1 = backlog
        assert done.wait(timeout=5.0)
        t.join(timeout=5.0)
        bus.end_search()
        bus.close()

    def test_evaluate_batch_bypasses_accumulation(self):
        rec = RecordingEvaluator()
        bus = EvaluationBus(rec, linger=0.5)
        facade = BusEvaluator(bus)
        games = [TicTacToe() for _ in range(3)]
        out = facade.evaluate_batch(games)
        assert len(out) == 3
        assert [len(b) for b in rec.batches] == [3]
        assert bus.stats().requests == 0  # never entered the bus
        bus.close()

    def test_closed_bus_refuses_and_drains(self):
        bus = EvaluationBus(UniformEvaluator(), linger=0.01)
        bus.close()
        bus.close()  # idempotent
        with pytest.raises(BusClosed):
            bus.evaluate(TicTacToe())


class GatedEvaluator(UniformEvaluator):
    """Uniform evaluator whose first batch holds the device until
    ``release`` is set (and then raises *first_error*, if given); it
    records every batch and the most calls ever inside it at once."""

    def __init__(self, first_error: BaseException | None = None) -> None:
        self.first_error = first_error
        self.started = threading.Event()
        self.release = threading.Event()
        self.batches: list[list] = []
        self.max_inside = 0
        self._inside = 0
        self._lock = threading.Lock()

    def evaluate_batch(self, games):
        with self._lock:
            first = not self.batches
            self.batches.append(list(games))
            self._inside += 1
            self.max_inside = max(self.max_inside, self._inside)
        try:
            if first:
                self.started.set()
                assert self.release.wait(timeout=10.0)
                if self.first_error is not None:
                    raise self.first_error
            return super().evaluate_batch(games)
        finally:
            with self._lock:
                self._inside -= 1


class CountingLock:
    """A lock that counts its successful acquisitions per thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquisitions: dict[int, int] = {}

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        if got:
            me = threading.get_ident()
            self.acquisitions[me] = self.acquisitions.get(me, 0) + 1
        return got

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


class FrozenWallClock(WallClock):
    """Real waits (the bus's threaded mode) over a clock that never moves,
    so no leaf ever ages past its linger window."""

    __slots__ = ()

    def perf_counter(self) -> float:
        return 0.0


def _until(predicate, timeout: float = 10.0) -> bool:
    """Poll *predicate* until it holds (bounded; never a pass by delay)."""
    stop = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > stop:
            return False
        time.sleep(0.001)
    return True


class TestOneBatchInFlight:
    """At most one fused batch is inside ``evaluate_batch`` per bus.  The
    gates are events held by the evaluator; the linger window is out of
    play (generous, or on a clock that never moves), so each batch goes
    out at the threshold, never by timing."""

    def _spawn(self, bus, outcomes, key):
        def worker():
            outcomes[key] = threading.get_ident()
            try:
                outcomes[key] = (outcomes[key], bus.evaluate(TicTacToe()))
            except BaseException as err:  # noqa: BLE001 - recorded for asserts
                outcomes[key] = (outcomes[key], err)

        t = threading.Thread(target=worker, daemon=True)  # a hang fails, not stalls
        t.start()
        return t

    def test_no_reentry_and_backlog_leaves_as_one_batch(self):
        rec = GatedEvaluator()
        bus = EvaluationBus(rec, linger=10.0)
        bus.begin_search()
        bus.begin_search()  # threshold 2
        outcomes: dict = {}
        threads = [self._spawn(bus, outcomes, k) for k in "ab"]
        assert rec.started.wait(timeout=10.0)
        # three more leaves arrive while [a, b] is in evaluation; two of
        # them already meet the threshold, yet none may enter the device
        threads += [self._spawn(bus, outcomes, k) for k in "cde"]
        assert _until(lambda: bus.pending_count == 3)
        assert len(rec.batches) == 1
        rec.release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert rec.max_inside == 1
        assert [len(b) for b in rec.batches] == [2, 3]
        assert all(not isinstance(v, BaseException) for _, v in outcomes.values())
        stats = bus.stats()
        assert (stats.batches, stats.requests, stats.pending) == (2, 5, 0)
        bus.close()

    def test_failed_batch_releases_gate_and_fails_its_waiters(self):
        rec = GatedEvaluator(first_error=RuntimeError("device lost"))
        bus = EvaluationBus(rec, linger=10.0)
        bus.begin_search()
        bus.begin_search()
        outcomes: dict = {}
        threads = [self._spawn(bus, outcomes, k) for k in "ab"]
        assert rec.started.wait(timeout=10.0)
        threads.append(self._spawn(bus, outcomes, "c"))
        assert _until(lambda: bus.pending_count == 1)
        bus.end_search()  # c alone now meets the threshold, but the gate holds
        assert bus.pending_count == 1
        rec.release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        for key in "ab":
            err = outcomes[key][1]
            assert isinstance(err, RuntimeError) and str(err) == "device lost"
        assert not isinstance(outcomes["c"][1], BaseException)
        assert [len(b) for b in rec.batches] == [2, 1]
        # a later leaf still flushes through the released gate
        assert bus.evaluate(TicTacToe()) is not None
        assert bus.stats().batches == 2  # the failed batch is not counted
        bus.close()

    def test_rider_takes_the_lock_at_most_once_while_it_waits(self):
        rec = GatedEvaluator()
        linger = 0.002
        bus = EvaluationBus(rec, linger=linger, clock=FrozenWallClock())
        counting = CountingLock()
        bus._lock = counting
        bus._batch_done = threading.Condition(counting)
        bus.begin_search()
        bus.begin_search()
        outcomes: dict = {}
        rider = self._spawn(bus, outcomes, "rider")
        assert _until(lambda: bus.pending_count == 1)
        flusher = self._spawn(bus, outcomes, "flusher")  # meets the threshold
        assert rec.started.wait(timeout=10.0)
        rider_id = outcomes["rider"]
        before = counting.acquisitions[rider_id]
        # the batch stays in evaluation for many linger windows: a rider
        # that polled the bus would take the lock once per window
        time.sleep(50 * linger)
        rec.release.set()
        rider.join(timeout=10.0)
        flusher.join(timeout=10.0)
        assert not rider.is_alive() and not flusher.is_alive()
        assert [len(b) for b in rec.batches] == [2]
        assert counting.acquisitions[rider_id] - before <= 1
        bus.close()


class TestUrgency:
    def _snapshot(self, clock: VirtualClock, remaining_ms: float):
        budget = SearchBudget(time_budget_ms=remaining_ms, clock=clock)
        return BudgetClock(budget, None).snapshot()

    def test_deadline_inside_lead_flushes_immediately(self):
        """A leaf whose session has <= deadline_lead_ms left must not
        linger, however generous the window."""
        clock = VirtualClock()
        rec = RecordingEvaluator()
        bus = EvaluationBus(
            rec, linger=10.0, deadline_lead_ms=5.0, clock=clock
        )
        bus.begin_search()
        bus.begin_search()  # threshold 2: a lone submit cannot flush by count
        ev = bus.evaluate(TicTacToe(), snapshot=self._snapshot(clock, 3.0))
        assert ev is not None
        stats = bus.stats()
        assert stats.deadline_flushes == 1
        assert stats.linger_flushes == 0
        bus.close()

    def test_urgent_sessions_ship_first_when_overloaded(self):
        """Backlog beyond max_batch: the fused batch is the most-urgent
        slice, not arrival order."""
        clock = VirtualClock()
        rec = RecordingEvaluator()
        bus = EvaluationBus(
            rec, max_batch=4, linger=10.0, deadline_lead_ms=0.0, clock=clock
        )
        # inline mode (virtual clock): submissions accumulate until an
        # explicit flush, so ordering is fully deterministic
        lax = TicTacToe()
        mid = TicTacToe()
        hot = TicTacToe()
        bus.begin_search()
        bus.begin_search()
        bus.begin_search()
        bus.begin_search()  # threshold 4 > 3 pending: no count flush
        f_lax = bus.submit(lax, snapshot=self._snapshot(clock, 500.0))
        f_mid = bus.submit(mid, snapshot=self._snapshot(clock, 80.0))
        f_hot = bus.submit(hot, snapshot=self._snapshot(clock, 20.0))
        # the device cap drops below the backlog (in production the
        # backlog overruns max_batch by accumulating during an in-flight
        # evaluation); the fused batch must be the most-urgent slice
        bus.max_batch = 2
        bus.flush()
        # the most urgent two ship together (batch keeps arrival order
        # internally -- composition, not position, is what urgency buys)
        assert {id(g) for g in rec.batches[0]} == {id(hot), id(mid)}
        assert f_hot.done() and f_mid.done() and not f_lax.done()
        bus.flush()
        assert [id(g) for g in rec.batches[1]] == [id(lax)]
        assert f_lax.done()
        bus.close()

    def test_budget_seam_publishes_inside_search(self):
        """SerialMCTS under a deadline budget publishes its clock to the
        evaluator seam; the probe sees a live remaining_ms."""
        seen: list = []

        class Probe(UniformEvaluator):
            def evaluate(self, game):
                seen.append(active_budget_snapshot())
                return super().evaluate(game)

        agent = SerialMCTS(Probe(), rng=0)
        agent.search(
            TicTacToe(),
            SearchBudget(num_playouts=8, time_budget_ms=10_000.0),
        )
        assert seen, "no leaf evaluations happened"
        assert all(s is not None for s in seen)
        assert all(0.0 < s.remaining_ms <= 10_000.0 for s in seen)
        # count-only budgets publish nothing: no urgency to report
        seen.clear()
        agent.search(TicTacToe(), 8)
        assert seen and all(s is None for s in seen)


class TestGatewayWiring:
    def test_thread_backend_defaults_bus_on(self):
        async def run():
            async with MatchGateway(
                UniformEvaluator(), backend="thread", workers=2, num_playouts=8
            ) as gw:
                session = await gw.create_session("tictactoe")
                await gw.play_move(session)
                return gw.stats()

        stats = asyncio.run(run())
        assert stats.bus_enabled
        assert stats.bus_requests > 0
        assert stats.as_dict()["bus_enabled"] is True

    def test_evalbus_off_degrades_to_per_session(self):
        async def run():
            async with MatchGateway(
                UniformEvaluator(),
                backend="thread",
                workers=2,
                num_playouts=8,
                evalbus=False,
            ) as gw:
                session = await gw.create_session("tictactoe")
                reply = await gw.play_move(session)
                return reply, gw.stats()

        reply, stats = asyncio.run(run())
        assert reply.engine_action is not None
        assert not stats.bus_enabled
        assert stats.bus_requests == 0

    def test_process_backend_rejects_explicit_bus(self):
        with pytest.raises(ValueError, match="thread-backend"):
            MatchGateway(
                UniformEvaluator(), backend="process", evalbus=True
            )

    def test_bus_on_off_transcripts_identical_under_generous_deadline(self):
        """Same seed, generous deadline: the bus must not change a single
        move (batched evaluation rows are value-equal to singletons, and
        deadline checks read the clock without consuming RNG)."""

        async def transcript(evalbus: bool):
            moves = []
            async with MatchGateway(
                UniformEvaluator(),
                backend="thread",
                workers=2,
                deadline_ms=10_000.0,
                num_playouts=24,
                seed=7,
                evalbus=evalbus,
            ) as gw:
                session = await gw.create_session("tictactoe")
                done = False
                while not done:
                    reply = await gw.play_move(session)
                    moves.append(reply.engine_action)
                    done = reply.done
            return moves

        on = asyncio.run(transcript(True))
        off = asyncio.run(transcript(False))
        assert on == off

    def test_concurrent_sessions_fuse_across_the_bus(self):
        """The tentpole end to end: concurrent sessions' leaves actually
        share batches (occupancy > 1 is impossible without cross-session
        fusion -- each session submits one leaf at a time)."""

        async def run():
            async with MatchGateway(
                UniformEvaluator(),
                backend="thread",
                workers=8,
                max_inflight=8,
                deadline_ms=2_000.0,
                num_playouts=32,
                seed=3,
                cache_capacity=1,  # force every leaf through the bus
                bus_linger_ms=4.0,
            ) as gw:
                sessions = [
                    await gw.create_session("tictactoe") for _ in range(8)
                ]
                await asyncio.gather(
                    *[gw.play_move(s) for s in sessions]
                )
                return gw.stats()

        stats = asyncio.run(run())
        assert stats.bus_enabled
        assert stats.bus_batches > 0
        assert stats.bus_occupancy > 1.5, stats.bus_occupancy
