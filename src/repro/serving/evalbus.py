"""Evaluation bus: the one in-process batching queue (paper Section 3.3).

"We utilize a dedicated accelerator queue for accumulating DNN inference
task requests produced by the tree selection process.  When the queue size
reaches a predetermined threshold, all tasks are submitted together to the
GPU for computation."

:class:`EvaluationBus` is that queue for the self-play engine's
concurrent games, each searching on its own thread (the match gateway
batches on one thread instead: :mod:`repro.serving.master`).  Each
search keeps calling its plain
``evaluator.evaluate(game)``; behind that seam a :class:`BusEvaluator`
facade submits the leaf to the bus, and the bus fuses concurrent leaves
into one ``evaluate_batch`` call.  Scheduling policy:

- **Busy-headcount threshold.**  The flush threshold is
  :func:`flush_threshold` of the number of searches in flight
  (``begin_search`` / ``end_search``): when every active search has a
  leaf pending, waiting longer buys nothing, so the submission that meets
  the headcount runs the fused batch inline.  A headcount of one (or an
  unregistered caller) flushes every submission inline, so a lone search
  never waits on the linger.
- **Single armed linger.**  Below the threshold the waiters themselves
  are the flushers: whichever observes the *oldest* pending leaf aged
  past ``linger`` first takes the whole backlog -- one window per
  backlog, never one private timer per waiter (the thundering-herd bug
  that shattered batches as load rose).  There is no scheduler thread.
- **One batch in flight.**  At most one fused batch is inside
  ``evaluate_batch`` at a time.  Leaves that arrive meanwhile accumulate,
  and when the batch returns the backlog goes out as one batch (at the
  threshold or once its window has aged), rather than as partial batches
  queueing at the device one launch each.  A waiter whose leaf already
  rides a running batch blocks on its own entry's lock, which the
  flusher releases when the result lands: it neither polls the bus nor
  flushes other games' backlog.  A backlog beyond
  ``max_batch`` goes out in arrival order.

On a virtual clock the submitting caller flushes synchronously instead of
waiting: nothing else can run concurrently in a virtual-time harness, so
the result is deterministic and immediate.

The bus is an overlay on the evaluator seam, not a rewrite of it:
evaluations are value-identical with or without it, because a fused
``evaluate_batch`` row equals the singleton ``evaluate`` result (the
engine's serial-parity suite already stands on this), so
generous-deadline bit-parity is preserved for every scheme.

**Placement.**  :func:`colocating_initializer` pins the engine's game
threads, which hand the GIL and each fused batch to each other at every
leaf, to one CPU (see :mod:`repro.serving.engine`).  Placement never
changes a result, only where the same work runs.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable

from repro.games.base import Game
from repro.mcts.evaluation import Evaluation, Evaluator
from repro.utils.clock import WALL_CLOCK, Clock, WallClock

__all__ = [
    "BusClosed",
    "EvalBusStats",
    "EvaluationBus",
    "BusEvaluator",
    "colocating_initializer",
    "flush_threshold",
]


def flush_threshold(busy: int, max_batch: int) -> int:
    """The headcount rule: flush once every busy search has a leaf
    aboard, capped at the device batch and floored at 1 so an
    unregistered caller never waits."""
    return max(1, min(busy, max_batch))


class BusClosed(RuntimeError):
    """Submission after :meth:`EvaluationBus.close`."""


class _Entry:
    """One pending leaf: who waits, and since when.  ``taken`` turns
    true when a flush detaches it into a batch, which fills ``result``
    or ``error`` and releases ``landed`` (allocated held) for the
    waiter; ``fut`` exists only for :meth:`EvaluationBus.submit`."""

    __slots__ = ("game", "fut", "enqueued_at", "taken", "result", "error", "landed")

    def __init__(self, game: Game, fut: Future | None, enqueued_at: float) -> None:
        self.game = game
        self.fut = fut
        self.enqueued_at = enqueued_at
        self.taken = False
        self.result: Evaluation | None = None
        self.error: BaseException | None = None
        self.landed = threading.Lock()
        self.landed.acquire()

    def outcome(self) -> Evaluation:
        """Block until the batch carrying this leaf returns."""
        self.landed.acquire()
        if self.error is not None:
            raise self.error
        return self.result


@dataclass(frozen=True)
class EvalBusStats:
    """Bus-lifetime scheduling telemetry.

    ``mean_occupancy`` is the Section-3.3 figure of merit (requests per
    fused batch); the flush-cause counters say *why* batches went out --
    a healthy loaded bus flushes mostly at the threshold, and inline
    flushes are the explicit ones (``flush``, ``close`` and every
    virtual-clock submit).  ``batches - threshold_flushes`` is the
    partial-flush count.
    """

    requests: int
    batches: int
    mean_occupancy: float
    threshold_flushes: int
    linger_flushes: int
    inline_flushes: int
    max_batch_seen: int
    busy_searches: int
    pending: int


class EvaluationBus:
    """Batching queue over one batched evaluator.

    Producers register with :meth:`begin_search` / :meth:`end_search`
    and submit leaves through :meth:`evaluate`; the policy is in the
    module docstring.  No thread is started: on a wall clock the blocked
    waiters flush the aged backlog themselves, on a virtual clock every
    :meth:`evaluate` flushes inline.  Whichever path flushes, at most one
    fused batch is in evaluation at a time; a flush that comes due while
    one runs waits for it to return and then takes the whole backlog.

    Parameters
    ----------
    evaluator : the backing evaluator; fused batches go through its
        ``evaluate_batch`` (the fused-plan pipeline when a network sits
        behind it).
    max_batch : hard cap on one fused batch (and on the flush
        threshold); an over-full backlog is split in arrival order.
    linger : seconds the oldest pending leaf tolerates before a partial
        flush (the batching window below the busy-headcount threshold).
    clock : time source for enqueue ages.  A virtual clock selects the
        inline mode: real-time waits on virtual timestamps would
        deadlock.

    Statistics are kept under the bus lock: flushes run concurrently on
    producer threads, and unsynchronised ``+=`` updates would lose counts.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        *,
        max_batch: int = 64,
        linger: float = 0.002,
        clock: Clock | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if linger <= 0:
            raise ValueError("linger must be positive")
        self.evaluator = evaluator
        self.max_batch = max_batch
        self.linger = linger
        self.clock: Clock = WALL_CLOCK if clock is None else clock
        self._inline = not isinstance(self.clock, WallClock)
        self._lock = threading.Lock()
        # waiters with a pending leaf sleep here; a returning batch wakes them
        self._batch_done = threading.Condition(self._lock)
        self._running = False  # a fused batch is inside evaluate_batch
        self._entries: list[_Entry] = []
        self._busy = 0
        self._closed = False
        # lifetime counters (all mutated under the lock)
        self._requests = 0
        self._batches = 0
        self._threshold_flushes = 0
        self._linger_flushes = 0
        self._inline_flushes = 0
        self._max_batch_seen = 0

    # -- search headcount ----------------------------------------------------
    def begin_search(self) -> None:
        """A search entered flight: raise the flush threshold."""
        with self._lock:
            self._busy += 1

    def end_search(self) -> None:
        """A search left flight: lower the threshold, flushing any backlog
        the smaller headcount now satisfies (the round-tail rule -- the
        remaining searches must never wait on departed ones)."""
        batch = None
        with self._lock:
            self._busy = max(0, self._busy - 1)
            threshold = flush_threshold(self._busy, self.max_batch)
            if self._entries and len(self._entries) >= threshold:
                batch = self._take_locked("threshold")
        if batch:
            self._run_batch(batch)

    # -- submission ----------------------------------------------------------
    def submit(self, game: Game) -> Future:
        """Enqueue a leaf; returns a future resolving to its Evaluation."""
        fut = Future()
        self._enqueue(game, fut)
        return fut

    def evaluate(self, game: Game) -> Evaluation:
        """Submit and wait (the :class:`BusEvaluator` hot path).

        On a wall clock the waiters are the flushers, sharing one armed
        window: whoever observes the backlog at the threshold, or the
        oldest leaf aged past the linger, first takes the *whole*
        backlog -- once no batch is in flight.  A waiter whose leaf was
        taken blocks on its entry's lock alone.  On a virtual clock
        the caller flushes synchronously -- nothing else can be
        concurrent, so the result is deterministic and immediate.
        """
        entry = self._enqueue(game, None)
        if self._inline:
            while not entry.taken:
                self.flush()
            return entry.outcome()
        while True:
            batch = None
            with self._lock:
                while not entry.taken:
                    if self._running:
                        wait = None  # the returning batch wakes us
                    else:
                        now = self.clock.perf_counter()
                        due = self._entries[0].enqueued_at + self.linger
                        if len(self._entries) >= flush_threshold(
                            self._busy, self.max_batch
                        ):
                            batch = self._take_locked("threshold")
                        elif now >= due:
                            batch = self._take_locked("linger")
                        if batch is not None:
                            break
                        wait = due - now
                    self._batch_done.wait(wait)
            if batch is None:
                return entry.outcome()
            self._run_batch(batch)

    def flush(self) -> int:
        """Force out whatever is pending (after any batch in flight
        returns); returns the batch size."""
        with self._lock:
            while self._running:
                self._batch_done.wait()
            batch = self._take_locked("inline")
        if batch:
            self._run_batch(batch)
        return 0 if batch is None else len(batch)

    # -- internals -----------------------------------------------------------
    def _enqueue(self, game: Game, fut: Future | None) -> _Entry:
        batch = None
        with self._lock:
            if self._closed:
                raise BusClosed("evaluation bus is closed")
            entry = _Entry(game, fut, self.clock.perf_counter())
            self._entries.append(entry)
            if len(self._entries) >= flush_threshold(self._busy, self.max_batch):
                batch = self._take_locked("threshold")
        if batch is not None:
            self._run_batch(batch)
        return entry

    def _take_locked(self, reason: str) -> list[_Entry] | None:
        """Detach the oldest ``max_batch`` entries and close the gate
        behind them; ``None`` while another batch is in flight.  Caller
        holds the lock and runs the batch *outside* it."""
        if self._running or not self._entries:
            return None
        batch = self._entries[: self.max_batch]
        self._entries = self._entries[self.max_batch :]
        for entry in batch:
            entry.taken = True
        self._running = True
        if reason == "threshold":
            self._threshold_flushes += 1
        elif reason == "linger":
            self._linger_flushes += 1
        else:
            self._inline_flushes += 1
        return batch

    def _run_batch(self, batch: list[_Entry]) -> None:
        """Evaluate *batch*, hand each entry its row or the batch's
        error, then open the gate (even if a hand-off raises)."""
        done, error = batch, None
        try:
            evaluations = self.evaluator.evaluate_batch([e.game for e in batch])
        except BaseException as err:  # propagate to every waiter
            done, error, evaluations = None, err, [None] * len(batch)
        try:
            for entry, ev in zip(batch, evaluations):
                entry.result, entry.error = ev, error
                entry.landed.release()
                if entry.fut is not None and error is None:
                    entry.fut.set_result(ev)
                elif entry.fut is not None:
                    entry.fut.set_exception(error)
        finally:
            self._open_gate(done)

    def _open_gate(self, done: list[_Entry] | None) -> None:
        """The batch in flight returned (*done*) or raised (``None``):
        count it, and wake the waiters whose leaves accumulated."""
        with self._lock:
            if done is not None:
                self._batches += 1
                self._requests += len(done)
                if len(done) > self._max_batch_seen:
                    self._max_batch_seen = len(done)
            self._running = False
            self._batch_done.notify_all()

    # -- lifecycle / telemetry ------------------------------------------------
    def close(self) -> None:
        """Stop accepting leaves and flush the backlog.

        Idempotent; in-flight waiters are resolved (or failed) rather
        than stranded.
        """
        with self._lock:
            already, self._closed = self._closed, True
        if not already:
            self.flush()

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> EvalBusStats:
        with self._lock:
            return EvalBusStats(
                requests=self._requests,
                batches=self._batches,
                mean_occupancy=(
                    self._requests / self._batches if self._batches else 0.0
                ),
                threshold_flushes=self._threshold_flushes,
                linger_flushes=self._linger_flushes,
                inline_flushes=self._inline_flushes,
                max_batch_seen=self._max_batch_seen,
                busy_searches=self._busy,
                pending=len(self._entries),
            )


class BusEvaluator(Evaluator):
    """:class:`~repro.mcts.evaluation.Evaluator` facade over a shared
    :class:`EvaluationBus`.

    The scheme's singleton ``evaluate`` rides the bus; an already-batched
    ``evaluate_batch`` bypasses accumulation and goes straight to the
    backing evaluator.  The self-play engine points each game's search at
    one of these, so leaves from concurrent games fuse.  The paper's
    shared-tree + GPU configuration needs no bus: a
    :class:`~repro.parallel.shared_tree.SharedTreeMCTS` sends its N
    leaves in flight to ``evaluate_batch`` as one call.
    """

    def __init__(self, bus: EvaluationBus) -> None:
        self.bus = bus

    def evaluate(self, game: Game) -> Evaluation:
        return self.bus.evaluate(game)

    def evaluate_batch(self, games: list[Game]) -> list[Evaluation]:
        return self.bus.evaluator.evaluate_batch(games)


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, or ``None`` where unreadable."""
    try:
        with open("/proc/thread-self/stat", "rb") as f:
            # field 39 ("processor"); comm (field 2) may hold spaces, so
            # count from after its closing parenthesis, where field 3 starts
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        pass
    try:
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):
        return None
    sched_getcpu.argtypes = []
    sched_getcpu.restype = ctypes.c_int
    cpu = sched_getcpu()
    return cpu if cpu >= 0 else None


def colocating_initializer() -> Callable[[], None] | None:
    """A ``ThreadPoolExecutor`` initializer for a pool whose searches
    share one bus: it pins each pool thread to the CPU the calling
    (constructing) thread runs on now.

    Returns ``None`` -- today's placement -- unless
    ``os.sched_setaffinity`` exists, the process may use more than one
    CPU and the current CPU can be read.  Only the pool's own threads are
    pinned, never the caller.  The initializer swallows ``OSError``: an
    initializer that raises breaks the pool.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        usable = os.sched_getaffinity(0)
    except OSError:
        return None
    cpu = _current_cpu()
    if len(usable) < 2 or cpu not in usable:
        return None

    def pin() -> None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass

    return pin
