"""Cross-process atomic counters for farm serving statistics.

PR-1 hardening moved the thread engine's queue statistics under the queue
lock because unsynchronised ``+=`` read-modify-write updates silently lose
counts.  The process backend has the same hazard one level down: counter
updates now race across *processes*, where a plain ``multiprocessing.Value``
``+=`` is still a non-atomic read-modify-write.  :class:`AtomicCounter`
pins every update under the value's own cross-process lock, so the round
deltas the engine reports (``partial_flushes`` above all -- the counter the
PR-1 note called out) are exact no matter how many workers and evaluator
flushes race.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp

__all__ = ["AtomicCounter", "FarmCounters"]


class AtomicCounter:
    """A 64-bit counter shared across forked processes; atomic increments.

    All mutation goes through :meth:`add`, which holds the underlying
    ``Value`` lock for the whole read-modify-write.  Reads take the same
    lock, so a read never observes a torn update.
    """

    def __init__(self, ctx: mp.context.BaseContext | None = None) -> None:
        ctx = ctx or mp.get_context("fork")
        self._value = ctx.Value(ctypes.c_int64, 0)

    def add(self, n: int = 1) -> None:
        with self._value.get_lock():
            self._value.value += n

    @property
    def value(self) -> int:
        with self._value.get_lock():
            return int(self._value.value)


class FarmCounters:
    """The evaluator-server statistics triple, mirroring the evaluation bus.

    ``requests_served`` / ``batches_flushed`` / ``partial_flushes`` carry
    the meaning of the :class:`repro.serving.evalbus.EvaluationBus`
    ``requests`` / ``batches`` / ``batches - threshold_flushes`` (a
    *partial* flush went out below the flush threshold in force at the
    time), but live in shared memory because the producer (the evaluator
    process) and the consumer (the engine, computing round deltas) are
    different processes.
    """

    def __init__(self, ctx: mp.context.BaseContext | None = None) -> None:
        ctx = ctx or mp.get_context("fork")
        self.requests_served = AtomicCounter(ctx)
        self.batches_flushed = AtomicCounter(ctx)
        self.partial_flushes = AtomicCounter(ctx)

    def snapshot(self) -> dict[str, int]:
        return {
            "requests_served": self.requests_served.value,
            "batches_flushed": self.batches_flushed.value,
            "partial_flushes": self.partial_flushes.value,
        }
