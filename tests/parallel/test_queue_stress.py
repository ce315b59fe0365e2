"""Concurrency stress tests for the evaluation bus as the accelerator
queue (Section 3.3).

The bus is the serving layer's single point of convergence: every search
of every concurrent game blocks on it.  These tests hammer it from many
threads, each registered through ``begin_search`` as the engine registers
its games, with batch caps that never divide the request count evenly.
Correctness depends on the linger partial flush (no request may be
stranded at a move tail), on one fused batch at a time reaching the
evaluator, on ``end_search`` flushing the backlog a
smaller headcount meets, and on the statistics counters being updated
under the lock (unsynchronised ``+=`` loses increments when flushes run
concurrently on producer threads -- the race the counter assertions
guard).
"""

import sys
import threading
import time

import pytest

from repro.games import TicTacToe
from repro.mcts.evaluation import UniformEvaluator
from repro.serving import EvaluationBus


class SlowEvaluator(UniformEvaluator):
    """Uniform evaluator with a deliberate stall inside evaluate_batch to
    widen race windows between concurrent flushers; records the most
    calls ever inside it at once (the bus allows one)."""

    def __init__(self, delay: float = 0.0005) -> None:
        self.delay = delay
        self.calls = 0
        self.max_inside = 0
        self._inside = 0
        self._lock = threading.Lock()

    def evaluate_batch(self, games):
        with self._lock:
            self.calls += 1
            self._inside += 1
            self.max_inside = max(self.max_inside, self._inside)
        try:
            time.sleep(self.delay)
            return super().evaluate_batch(games)
        finally:
            with self._lock:
                self._inside -= 1


def hammer(bus: EvaluationBus, per_thread: list[int]) -> list:
    """Drive ``bus.evaluate`` from one producer per entry of *per_thread*
    (that many requests each); returns all evaluations.

    Every producer is registered before any starts and ends its search
    when done, as the engine brackets its games.  Joins with a timeout so
    a deadlock fails the test instead of hanging the suite.
    """
    results: list = []
    errors: list = []
    lock = threading.Lock()

    def producer(count: int):
        try:
            for _ in range(count):
                ev = bus.evaluate(TicTacToe())
                with lock:
                    results.append(ev)
        except Exception as err:  # pragma: no cover - failure path
            with lock:
                errors.append(err)
        finally:
            bus.end_search()

    threads = [threading.Thread(target=producer, args=(n,)) for n in per_thread]
    for _ in threads:
        bus.begin_search()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more thread switches, more interleavings
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60.0
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads), "bus deadlocked"
    assert not errors, errors
    return results


class TestQueueStress:
    def test_sixteen_producers_indivisible_batch(self):
        """16 threads x 25 requests with a batch cap of 7 (400 % 7 != 0):
        every future resolves and the counters account for every request."""
        evaluator = SlowEvaluator()
        bus = EvaluationBus(evaluator, max_batch=7, linger=0.002)
        results = hammer(bus, [25] * 16)
        total = 16 * 25
        stats = bus.stats()
        assert len(results) == total
        assert stats.requests == total  # exact: counters are lock-guarded
        assert stats.batches == evaluator.calls
        assert stats.pending == 0
        assert stats.busy_searches == 0
        assert stats.batches >= total // 7
        assert stats.max_batch_seen <= 7
        assert evaluator.max_inside == 1  # one fused batch in flight

    def test_move_tail_resolves_via_linger(self):
        """Fewer pending leaves than busy searches (the rest are off in
        select phases): only the linger flush can resolve them -- the
        move-tail no-deadlock property."""
        bus = EvaluationBus(UniformEvaluator(), linger=0.005)
        for _ in range(61):  # busy, never submitting
            bus.begin_search()
        results = hammer(bus, [2, 2, 2])
        stats = bus.stats()
        assert len(results) == 6
        assert stats.requests == 6
        assert stats.threshold_flushes == 0
        assert stats.linger_flushes == stats.batches >= 1

    def test_partial_flush_counter_on_uneven_tail(self):
        bus = EvaluationBus(UniformEvaluator(), max_batch=4, linger=0.002)
        bus.begin_search()
        bus.begin_search()  # threshold 4 with two producers submitting
        hammer(bus, [3, 3])
        stats = bus.stats()
        assert stats.requests == 6
        assert stats.batches - stats.threshold_flushes >= 1

    def test_concurrent_end_search_never_strands_a_waiter(self):
        """Searches leave flight while producers hammer the bus: producers
        finish at staggered times and an extra thread retires eight idle
        searches.  The linger is far beyond the test's runtime, so every
        flush must come from a submit or an ``end_search`` meeting the
        headcount -- a missed re-check would strand a waiter for 30 s."""
        evaluator = SlowEvaluator()
        bus = EvaluationBus(evaluator, max_batch=16, linger=30.0)
        idle = 8
        for _ in range(idle):
            bus.begin_search()

        def retire():
            for _ in range(idle):
                time.sleep(0.002)
                bus.end_search()

        retirer = threading.Thread(target=retire)
        per_thread = [5 + 3 * i for i in range(8)]
        t0 = time.monotonic()
        retirer.start()
        try:
            results = hammer(bus, per_thread)
        finally:
            retirer.join(timeout=10.0)
        stats = bus.stats()
        assert time.monotonic() - t0 < 20.0
        assert len(results) == sum(per_thread)
        assert stats.requests == sum(per_thread)
        assert stats.linger_flushes == 0
        assert stats.pending == 0
        assert stats.busy_searches == 0

    def test_exception_during_storm_reaches_every_waiter(self):
        class Flaky(UniformEvaluator):
            def evaluate_batch(self, games):
                raise RuntimeError("device lost")

        bus = EvaluationBus(Flaky(), max_batch=3, linger=0.002)
        errors = []
        lock = threading.Lock()

        def producer():
            try:
                bus.evaluate(TicTacToe())
            except RuntimeError as err:
                with lock:
                    errors.append(err)

        threads = [threading.Thread(target=producer) for _ in range(9)]
        for _ in threads:
            bus.begin_search()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert len(errors) == 9

    def test_linger_window_not_shattered_by_parked_waiters(self):
        """The thundering-herd regression, pinned deterministically.

        Six staggered producers fill the first threshold batch and then
        park on its (slow) evaluation.  Historically each parked waiter
        kept running a private ``linger`` timer and flushed
        unconditionally on expiry, so the timers carpeted the timeline
        and any *fresh* arrival during the in-flight evaluation was
        flushed within milliseconds -- long before its own linger window
        -- shattering D and E below into two singleton batches.  The bus
        arms one window from the oldest pending entry: D (arriving
        100 ms in) waits out its full 50 ms linger, E (30 ms later)
        rides along, and the two fuse into one batch.
        """
        delay = 0.4  # first-batch evaluation: the window the herd spams
        evaluator = SlowEvaluator(delay=delay)
        batches: list[list[int]] = []
        rec_lock = threading.Lock()
        original = evaluator.evaluate_batch

        def recording(games):
            with rec_lock:
                batches.append([id(g) for g in games])
            return original(games)

        evaluator.evaluate_batch = recording
        bus = EvaluationBus(evaluator, max_batch=6, linger=0.05)
        game_ids: dict[str, int] = {}

        def blocking(name: str, offset: float) -> None:
            time.sleep(offset)
            g = TicTacToe()
            game_ids[name] = id(g)
            bus.evaluate(g)

        specs = [(f"s{i}", 0.008 * i) for i in range(6)]
        specs += [("D", 0.100), ("E", 0.130)]
        threads = [
            threading.Thread(target=blocking, args=spec) for spec in specs
        ]
        for _ in threads:  # eight busy searches, threshold capped at 6
            bus.begin_search()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads), "bus deadlocked"
        assert any(
            game_ids["D"] in b and game_ids["E"] in b for b in batches
        ), f"herd shattered D and E into separate flushes: {batches}"
        # [6, 2], never the herd's [6, 1, 1]
        assert min(len(b) for b in batches) >= 2
        stats = bus.stats()
        assert stats.mean_occupancy >= 3.5
        assert stats.linger_flushes >= 1

    @pytest.mark.slow
    def test_sustained_storm_nightly(self):
        """Nightly-lane scale: more threads, more rounds, slower device."""
        evaluator = SlowEvaluator(delay=0.001)
        bus = EvaluationBus(evaluator, max_batch=13, linger=0.002)
        results = hammer(bus, [50] * 24)
        total = 24 * 50
        stats = bus.stats()
        assert len(results) == total
        assert stats.requests == total
        assert stats.batches == evaluator.calls
        assert stats.mean_occupancy > 1.0
        assert evaluator.max_inside == 1
