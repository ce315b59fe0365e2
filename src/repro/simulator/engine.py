"""Virtual-time discrete-event engine.

Tasks are plain Python generators that *yield effects*; the engine owns
the clock, dispatches effects and resumes tasks with the effect's result:

    def worker(lock):
        yield Compute(5e-6)          # burn 5 us of virtual time
        yield Acquire(lock)          # block until the lock is granted
        yield Compute(1e-6)
        yield Release(lock)
        item = yield Get(fifo)       # block until a producer puts
        yield Wait(future)           # block until resolved

Determinism: the ready queue is ordered by ``(time, sequence)`` with a
monotone sequence counter, and lock/FIFO wait queues are strictly FIFO, so
identical programs produce identical schedules on every run -- the
property that makes the figure benchmarks reproducible bit-for-bit.

This is the same generator-as-coroutine architecture SimPy uses; it is
re-implemented here (in ~200 lines) because the paper's experiments need
custom metrics (lock contention, per-phase busy time) and an accelerator
resource, and because external dependencies are unavailable offline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.simulator.resources import SimFIFO, SimFuture, SimLock

__all__ = [
    "Compute",
    "Acquire",
    "Release",
    "Put",
    "Get",
    "Wait",
    "SimEngine",
    "EngineMetrics",
]


# -- effects -------------------------------------------------------------


@dataclass(frozen=True)
class Compute:
    """Advance this task's clock by *duration* seconds of busy work."""

    duration: float
    tag: str = ""

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative compute duration {self.duration}")


@dataclass(frozen=True)
class Acquire:
    lock: SimLock


@dataclass(frozen=True)
class Release:
    lock: SimLock


@dataclass(frozen=True)
class Put:
    fifo: SimFIFO
    item: Any


@dataclass(frozen=True)
class Get:
    fifo: SimFIFO


@dataclass(frozen=True)
class Wait:
    future: SimFuture


Effect = Compute | Acquire | Release | Put | Get | Wait
TaskGen = Generator[Effect, Any, Any]


class _Task:
    """Bookkeeping wrapper around a task generator."""

    __slots__ = ("gen", "name", "done", "result", "blocked_since", "busy_time")

    def __init__(self, gen: TaskGen, name: str) -> None:
        self.gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        #: when the task began waiting for a lock (for the lock-wait metric)
        self.blocked_since = 0.0
        self.busy_time = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Task({self.name!r}, done={self.done})"


@dataclass
class EngineMetrics:
    """Aggregate counters the experiment harness reads after a run."""

    total_lock_wait: float = 0.0
    compute_by_tag: dict[str, float] = field(default_factory=dict)

    def record_compute(self, tag: str, duration: float) -> None:
        if tag:
            self.compute_by_tag[tag] = self.compute_by_tag.get(tag, 0.0) + duration


class SimEngine:
    """Deterministic virtual-time event loop."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, int]] = []  # (time, seq, slot)
        self._slots: dict[int, tuple[_Task, Any]] = {}
        self._seq = 0
        self._callbacks: dict[int, Callable[[], None]] = {}
        self.tasks: list[_Task] = []
        self.metrics = EngineMetrics()

    # -- scheduling ------------------------------------------------------
    def spawn(self, gen: TaskGen, name: str = "task") -> _Task:
        """Register a generator as a task, ready at the current time."""
        task = _Task(gen, name)
        self.tasks.append(task)
        self._schedule(self.now, task, None)
        return task

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Run *fn* at virtual *time* (used by the accelerator model)."""
        if time < self.now - 1e-15:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        self._seq += 1
        slot = self._seq
        self._callbacks[slot] = fn
        heapq.heappush(self._heap, (time, self._seq, slot))

    def _schedule(self, time: float, task: _Task, value: Any) -> None:
        self._seq += 1
        slot = self._seq
        self._slots[slot] = (task, value)
        heapq.heappush(self._heap, (time, self._seq, slot))

    # -- resource wake-ups -------------------------------------------------
    def resolve_future(self, future: SimFuture, value: Any) -> None:
        """Resolve *future* now; wakes every waiter at the current time."""
        if future.done:
            raise RuntimeError("future already resolved")
        future.done = True
        future.value = value
        for task in future.waiters:
            self._schedule(self.now, task, value)
        future.waiters.clear()

    def fifo_put(self, fifo: SimFIFO, item: Any) -> None:
        """External (callback-context) FIFO put at the current time."""
        if fifo.getters:
            getter = fifo.getters.popleft()
            self._schedule(self.now, getter, item)
        else:
            fifo.items.append(item)

    # -- main loop ------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until the heap empties (or *until* is reached).

        Returns the final virtual time.
        """
        while self._heap:
            time, _seq, slot = heapq.heappop(self._heap)
            if until is not None and time > until:
                # leave the event for a later run() call
                heapq.heappush(self._heap, (time, _seq, slot))
                self.now = until
                return self.now
            self.now = time
            callback = self._callbacks.pop(slot, None)
            if callback is not None:
                callback()
                continue
            task, value = self._slots.pop(slot)
            self._step(task, value)
        return self.now

    def _step(self, task: _Task, send_value: Any) -> None:
        """Resume *task*, dispatch every immediately-resolvable effect."""
        while True:
            try:
                effect = task.gen.send(send_value)
            except StopIteration as stop:
                task.done = True
                task.result = stop.value
                return
            send_value = None

            if isinstance(effect, Compute):
                task.busy_time += effect.duration
                self.metrics.record_compute(effect.tag, effect.duration)
                self._schedule(self.now + effect.duration, task, None)
                return
            if isinstance(effect, Acquire):
                lock = effect.lock
                lock.acquisitions += 1
                if lock.holder is None:
                    lock.holder = task
                    continue  # granted immediately, keep stepping
                lock.contended += 1
                task.blocked_since = self.now
                lock.waiters.append(task)
                return
            if isinstance(effect, Release):
                lock = effect.lock
                if lock.holder is not task:
                    raise RuntimeError(
                        f"{task.name} releasing lock {lock.name!r} it does not hold"
                    )
                if lock.waiters:
                    next_task = lock.waiters.popleft()
                    lock.holder = next_task
                    self.metrics.total_lock_wait += self.now - next_task.blocked_since
                    self._schedule(self.now, next_task, None)
                else:
                    lock.holder = None
                continue
            if isinstance(effect, Put):
                self.fifo_put(effect.fifo, effect.item)
                continue
            if isinstance(effect, Get):
                fifo = effect.fifo
                if fifo.items:
                    send_value = fifo.items.popleft()
                    continue
                fifo.getters.append(task)
                return
            if isinstance(effect, Wait):
                future = effect.future
                if future.done:
                    send_value = future.value
                    continue
                future.waiters.append(task)
                return
            raise TypeError(f"task {task.name} yielded non-effect {effect!r}")
