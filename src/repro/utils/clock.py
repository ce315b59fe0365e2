"""The Clock seam: one time interface, wall and virtual implementations.

Every time-touching layer of the serving stack (deadline arming in
:class:`~repro.mcts.budget.BudgetClock`, session idle-GC and latency
stamps in :class:`~repro.serving.service.MatchGateway`, round timing in
:class:`~repro.serving.engine.MultiGameSelfPlayEngine` and the farm, the
evaluation bus's linger) reads time through a :class:`Clock` instead of the
``time`` module directly.  Production injects nothing and gets
:data:`WALL_CLOCK` -- behaviour is bit-identical to calling
``time.monotonic()`` / ``time.perf_counter()`` / ``asyncio.sleep()``.
Tests inject a :class:`VirtualClock` and compress hours of soak into
milliseconds of wall time.

The virtual clock follows the doeff-time ``SimClock`` / ``TimeQueue``
idiom (SNIPPETS.md snippets 2-3): time is a number that only moves when
someone moves it.  Sleepers park on a time-ordered heap; a *driver*
coroutine advances the clock straight to the next due waiter, but only
once every runnable task has parked -- so virtual time never jumps past
work that was still in progress, and a scripted scenario unfolds in one
deterministic order however many simulated hours it spans.

No global event loop is monkeypatched: :meth:`VirtualClock.sleep` is an
ordinary awaitable and the driver is an ordinary task, so virtual-time
code interoperates with real asyncio primitives (locks, gather,
``run_in_executor``) unchanged.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from contextlib import asynccontextmanager
from typing import Awaitable, Protocol, TypeVar, runtime_checkable

__all__ = [
    "Clock",
    "WallClock",
    "VirtualClock",
    "WALL_CLOCK",
    "ClockTimeout",
    "clock_timeout",
]

T = TypeVar("T")


@runtime_checkable
class Clock(Protocol):
    """What the serving stack asks of time.

    ``monotonic`` stamps activity (session idle tracking, linger ages);
    ``perf_counter`` measures intervals (deadlines, latencies); ``sleep``
    parks an asyncio task.  A virtual implementation may back all three
    with one number -- consumers must never assume the two counters share
    an epoch, only that each is individually monotonic.
    """

    def monotonic(self) -> float:  # pragma: no cover - protocol
        ...

    def perf_counter(self) -> float:  # pragma: no cover - protocol
        ...

    async def sleep(self, seconds: float) -> None:  # pragma: no cover
        ...


class ClockTimeout(TimeoutError):
    """:func:`clock_timeout` expired before the awaited work finished."""


async def clock_timeout(clock: Clock, aw: Awaitable[T], timeout_s: float) -> T:
    """``asyncio.wait_for`` against an *injected* clock.

    The stdlib's ``wait_for`` arms its deadline with ``loop.call_later``
    -- real time, invisible to a :class:`VirtualClock` and therefore
    useless in simulated failure timelines.  This helper races the
    awaitable against ``clock.sleep(timeout_s)`` instead, so cluster
    health checks and RPC read deadlines time out on whichever clock the
    stack runs on: wall in production, virtual in the chaos suite.

    On timeout the work task is cancelled (and awaited) before
    :class:`ClockTimeout` is raised, so no orphan task keeps mutating
    state after its caller has moved on.
    """
    work = asyncio.ensure_future(aw)
    timer = asyncio.ensure_future(clock.sleep(timeout_s))
    try:
        await asyncio.wait({work, timer}, return_when=asyncio.FIRST_COMPLETED)
    except asyncio.CancelledError:
        work.cancel()
        timer.cancel()
        await asyncio.gather(work, timer, return_exceptions=True)
        raise
    if work.done():
        timer.cancel()
        # a VirtualClock sleep future parked on the heap is simply
        # skipped once cancelled; a real asyncio.sleep task unwinds
        await asyncio.gather(timer, return_exceptions=True)
        return work.result()
    work.cancel()
    await asyncio.gather(work, return_exceptions=True)
    raise ClockTimeout(f"no result within {timeout_s:g}s")


class WallClock:
    """Production time: the ``time`` module and real ``asyncio.sleep``.

    Stateless, picklable, and safe to share as the :data:`WALL_CLOCK`
    singleton.
    """

    __slots__ = ()

    def monotonic(self) -> float:
        return time.monotonic()

    def perf_counter(self) -> float:
        return time.perf_counter()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(seconds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "WallClock()"


#: the default clock every seam falls back to when nothing is injected
WALL_CLOCK = WallClock()


class VirtualClock:
    """Deterministic simulated time over a real asyncio event loop.

    ``monotonic()`` and ``perf_counter()`` both read one simulated
    second counter.  :meth:`sleep` parks the calling task on a
    time-ordered heap; time advances either *synchronously* via
    :meth:`advance` / :meth:`advance_to` (a test or a simulated-latency
    executor modelling "this took 80 ms") or *automatically* via the
    driver (:meth:`run` / :meth:`driving`), which jumps straight to the
    next due waiter whenever the event loop is otherwise quiescent --
    the SNIPPETS.md ``sim_time`` handler's idle-priority clock-driver
    daemon, translated to plain asyncio.

    Quiescence is detected by yielding to the loop until its ready queue
    drains (introspected when the loop exposes one, with a bounded
    yield-count fallback otherwise), so virtual time never overtakes a
    task that still had same-tick work to do.  Tasks blocked on *real*
    concurrency (a thread-pool search) are invisible to this check:
    deterministic scenarios must run such work inline (see
    :class:`repro.serving.simulate.InlineExecutor`).
    """

    def __init__(self, start: float = 0.0, *, grace_yields: int = 32) -> None:
        if grace_yields < 1:
            raise ValueError("grace_yields must be >= 1")
        self._now = float(start)
        self._seq = itertools.count()
        # heap of (due, seq, future): seq breaks ties FIFO, deterministically
        self._waiters: list[tuple[float, int, asyncio.Future]] = []
        self._grace = grace_yields
        self._wake: asyncio.Event | None = None
        self.sleeps = 0  # lifetime sleep() calls (telemetry for tests)
        self.fires = 0  # lifetime waiters fired

    # -- Clock surface -------------------------------------------------------
    def monotonic(self) -> float:
        return self._now

    def perf_counter(self) -> float:
        return self._now

    async def sleep(self, seconds: float) -> None:
        """Park until the virtual clock reaches ``now + seconds``.

        A non-positive delay still parks (due immediately): the waiter
        fires on the next advance/driver pass, preserving the "sleep
        yields to everyone else first" ordering real loops give.
        """
        self.sleeps += 1
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        due = self._now + max(0.0, float(seconds))
        heapq.heappush(self._waiters, (due, next(self._seq), future))
        if self._wake is not None:
            self._wake.set()
        await future

    # -- introspection -------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def waiter_count(self) -> int:
        """Live (uncancelled) parked sleepers."""
        return sum(1 for _, _, fut in self._waiters if not fut.done())

    def next_due(self) -> float | None:
        """Due time of the earliest live waiter, or ``None``."""
        for due, _, fut in sorted(self._waiters)[:]:
            if not fut.done():
                return due
        return None

    # -- synchronous advancement --------------------------------------------
    def advance(self, seconds: float) -> int:
        """Move time forward by ``seconds``; returns waiters released."""
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        return self.advance_to(self._now + seconds)

    def advance_to(self, target: float) -> int:
        """Jump to ``target`` (no-op if in the past), releasing every
        waiter due on the way in due order.  Released tasks *resume* on
        the event loop's next pass, not inside this call -- callers in
        async context yield (``await clock.sleep(0)`` or similar) to let
        them run."""
        fired = 0
        while self._waiters and self._waiters[0][0] <= target:
            due, _, future = heapq.heappop(self._waiters)
            self._now = max(self._now, due)
            if not future.done():  # skip sleepers whose task was cancelled
                future.set_result(None)
                fired += 1
        self._now = max(self._now, target)
        self.fires += fired
        return fired

    # -- automatic advancement (the clock driver) ----------------------------
    async def _settle(self) -> bool:
        """Yield until every runnable task has parked.

        Returns True when the loop looks quiescent.  Each ``sleep(0)``
        requeues this coroutine behind everything currently runnable, so
        an empty ready queue right after resuming means nothing else can
        make progress without time moving.
        """
        loop = asyncio.get_running_loop()
        ready = getattr(loop, "_ready", None)  # stdlib loops expose this
        for _ in range(self._grace):
            await asyncio.sleep(0)
            if ready is not None and not ready:
                return True
        # unknown loop internals: a full grace of yields is our best signal
        return ready is None

    async def _drive(self) -> None:
        self._wake = asyncio.Event()
        try:
            while True:
                settled = await self._settle()
                if not settled:
                    continue  # new same-tick work appeared; let it run
                # drop waiters cancelled while parked
                while self._waiters and self._waiters[0][2].done():
                    heapq.heappop(self._waiters)
                if self._waiters:
                    due, _, future = heapq.heappop(self._waiters)
                    self._now = max(self._now, due)
                    future.set_result(None)
                    self.fires += 1
                else:
                    # nothing due: park until a new sleeper registers
                    self._wake.clear()
                    await self._wake.wait()
        finally:
            self._wake = None

    @asynccontextmanager
    async def driving(self):
        """Async context manager running the clock driver alongside the
        body, for virtual-time blocks inside an existing event loop."""
        driver = asyncio.ensure_future(self._drive())
        try:
            yield self
        finally:
            driver.cancel()
            try:
                await driver
            except asyncio.CancelledError:
                pass

    def run(self, main: Awaitable[T]) -> T:
        """``asyncio.run`` with the clock driver: execute ``main`` to
        completion, auto-advancing virtual time whenever every task is
        parked.  The entry point virtual-time tests use."""

        async def runner() -> T:
            async with self.driving():
                return await main

        return asyncio.run(runner())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VirtualClock(now={self._now:.6f}, "
            f"waiters={self.waiter_count})"
        )
