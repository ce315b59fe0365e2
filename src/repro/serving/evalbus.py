"""Evaluation bus: the one in-process batching queue (paper Section 3.3).

"We utilize a dedicated accelerator queue for accumulating DNN inference
task requests produced by the tree selection process.  When the queue size
reaches a predetermined threshold, all tasks are submitted together to the
GPU for computation."

:class:`EvaluationBus` is that queue for every in-process caller: the
self-play engine's concurrent games and the gateway's concurrent
sessions.  Each search keeps calling its plain ``evaluator.evaluate(game)``;
behind that seam a :class:`BusEvaluator` facade submits the leaf to the
bus tagged with the search's armed
:class:`~repro.mcts.budget.BudgetSnapshot` (published per-thread by
``BudgetClock.activated()``), and the bus fuses concurrent leaves into
one ``evaluate_batch`` call.  Scheduling policy:

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
  rides a running batch blocks on its own result alone: it neither
  polls the bus nor flushes other sessions' backlog.
- **Deadline priority.**  A leaf whose budget has less than
  ``deadline_lead_ms`` remaining flushes immediately, or as soon as the
  batch in flight returns (an expired session must not linger for
  batch-mates it will never use), and when the
  backlog exceeds ``max_batch`` the entries closest to budget expiry go
  out first.

On a virtual clock the submitting caller flushes synchronously instead of
waiting: nothing else can run concurrently in a virtual-time harness, so
the result is deterministic and immediate.

The bus is an overlay on the evaluator seam, not a rewrite of it:
evaluations are value-identical with or without it, because a fused
``evaluate_batch`` row equals the singleton ``evaluate`` result (the
farm's exact-determinism suite already stands on this), so
generous-deadline bit-parity is preserved for every scheme.

**Placement.**  The threads that share a bus hand the GIL and each fused
batch to each other at every leaf, so they never run in parallel; spread
over several CPUs, every hand-off wakes a thread on another core and
pulls the working set across caches.  :func:`colocating_initializer`
pins the threads of a pool the program builds for bus-sharing searches
to the CPU its constructing thread runs on.  It decides from what it can
observe -- a bus, ``os.sched_setaffinity``, more than one usable CPU, a
readable current CPU -- and otherwise does nothing.  Placement never
changes a result, only where the same work runs.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from repro.games.base import Game
from repro.mcts.budget import BudgetSnapshot, active_budget_snapshot
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
    """Submission after :meth:`EvaluationBus.close` (gateway shutdown)."""


class _Entry:
    """One pending leaf: who waits, since when, and how urgently.
    ``taken`` turns true when a flush detaches it into a batch."""

    __slots__ = ("game", "fut", "enqueued_at", "deadline_at", "taken")

    def __init__(
        self, game: Game, fut: Future, enqueued_at: float, deadline_at: float | None
    ) -> None:
        self.game = game
        self.fut = fut
        self.enqueued_at = enqueued_at
        self.deadline_at = deadline_at
        self.taken = False


@dataclass(frozen=True)
class EvalBusStats:
    """Bus-lifetime scheduling telemetry.

    ``mean_occupancy`` is the Section-3.3 figure of merit (requests per
    fused batch); the flush-cause counters say *why* batches went out --
    a healthy loaded bus flushes mostly at the threshold, deadline
    flushes count the moments budget expiry pre-empted batching, and
    inline flushes are the explicit ones (``flush``, ``close`` and every
    virtual-clock submit).  ``batches - threshold_flushes`` is the
    partial-flush count.
    """

    requests: int
    batches: int
    mean_occupancy: float
    threshold_flushes: int
    linger_flushes: int
    deadline_flushes: int
    inline_flushes: int
    max_batch_seen: int
    busy_searches: int
    pending: int

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "mean_occupancy": round(self.mean_occupancy, 3),
            "threshold_flushes": self.threshold_flushes,
            "linger_flushes": self.linger_flushes,
            "deadline_flushes": self.deadline_flushes,
            "inline_flushes": self.inline_flushes,
            "max_batch_seen": self.max_batch_seen,
            "busy_searches": self.busy_searches,
            "pending": self.pending,
        }


class EvaluationBus:
    """Deadline-aware batching queue over one batched evaluator.

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
        threshold); an over-full backlog is split with the most-urgent
        entries going out first.
    linger : seconds the oldest pending leaf tolerates before a partial
        flush (the batching window below the busy-headcount threshold).
    deadline_lead_ms : urgency horizon -- a leaf whose budget has at most
        this many milliseconds remaining flushes immediately, and waiters
        wake early so no pending leaf sleeps into that horizon.
    clock : time source for enqueue ages and deadline math (the caller's
        clock, so budget deadlines and bus timestamps share a timebase).
        A virtual clock selects the inline mode: real-time waits on
        virtual timestamps would deadlock.

    Statistics are kept under the bus lock: flushes run concurrently on
    producer threads, and unsynchronised ``+=`` updates would lose counts.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        *,
        max_batch: int = 64,
        linger: float = 0.002,
        deadline_lead_ms: float = 5.0,
        clock: Clock | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if linger <= 0:
            raise ValueError("linger must be positive")
        if deadline_lead_ms < 0:
            raise ValueError("deadline_lead_ms must be >= 0")
        self.evaluator = evaluator
        self.max_batch = max_batch
        self.linger = linger
        self.deadline_lead_ms = deadline_lead_ms
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
        self._deadline_flushes = 0
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

    @contextmanager
    def searching(self):
        """``begin_search`` / ``end_search`` as a context manager."""
        self.begin_search()
        try:
            yield self
        finally:
            self.end_search()

    # -- submission ----------------------------------------------------------
    def submit(
        self, game: Game, *, snapshot: BudgetSnapshot | None = None
    ) -> Future:
        """Enqueue a leaf; returns a future resolving to its Evaluation.

        *snapshot* tags the leaf with its search's remaining budget;
        ``None`` reads the submitting thread's active budget (the scheme
        seam).  Deadlines are converted to this bus's clock at submit
        time, so sessions running on different clocks still compare.
        """
        return self._enqueue(game, snapshot).fut

    def evaluate(
        self, game: Game, *, snapshot: BudgetSnapshot | None = None
    ) -> Evaluation:
        """Submit and wait (the :class:`BusEvaluator` hot path).

        On a wall clock the waiters are the flushers, sharing one armed
        window: whoever observes the backlog at the threshold, or the
        aged-oldest (or deadline-pulled) due instant, first takes the
        *whole* backlog -- once no batch is in flight.  A waiter whose
        leaf was taken blocks on its result alone.  On a virtual clock
        the caller flushes synchronously -- nothing else can be
        concurrent, so the result is deterministic and immediate.
        """
        entry = self._enqueue(game, snapshot)
        if self._inline:
            if not entry.fut.done():
                self.flush()
            return entry.fut.result()
        while True:
            batch = None
            with self._lock:
                while not entry.taken:
                    if self._running:
                        wait = None  # the returning batch wakes us
                    else:
                        now = self.clock.perf_counter()
                        due = self._due_locked(now)
                        if len(self._entries) >= flush_threshold(
                            self._busy, self.max_batch
                        ):
                            batch = self._take_locked("threshold")
                        elif now >= due:
                            aged = now >= self._entries[0].enqueued_at + self.linger
                            batch = self._take_locked(
                                "linger" if aged else "deadline"
                            )
                        if batch is not None:
                            break
                        wait = due - now
                    self._batch_done.wait(wait)
            if batch is None:
                return entry.fut.result()
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
    def _enqueue(self, game: Game, snapshot: BudgetSnapshot | None) -> _Entry:
        if snapshot is None:
            snapshot = active_budget_snapshot()
        batch = None
        with self._lock:
            if self._closed:
                raise BusClosed("evaluation bus is closed")
            now = self.clock.perf_counter()
            deadline_at = None
            remaining_ms = None if snapshot is None else snapshot.remaining_ms
            if remaining_ms is not None:
                deadline_at = now + remaining_ms / 1e3
            entry = _Entry(game, Future(), now, deadline_at)
            self._entries.append(entry)
            if len(self._entries) >= flush_threshold(self._busy, self.max_batch):
                batch = self._take_locked("threshold")
            elif remaining_ms is not None and remaining_ms <= self.deadline_lead_ms:
                batch = self._take_locked("deadline")
        if batch is not None:
            self._run_batch(batch)
        return entry

    def _take_locked(self, reason: str) -> list[_Entry] | None:
        """Detach up to ``max_batch`` entries (most urgent first when the
        backlog is over-full) and close the gate behind them; ``None``
        while another batch is in flight.  Caller holds the lock and runs
        the batch *outside* it."""
        if self._running or not self._entries:
            return None
        if len(self._entries) <= self.max_batch:
            batch = self._entries
            self._entries = []
        else:
            # deadline priority: sessions closest to budget expiry go in
            # this batch; undated entries (count-only budgets) queue behind
            order = sorted(
                range(len(self._entries)),
                key=lambda i: (
                    self._entries[i].deadline_at is None,
                    self._entries[i].deadline_at
                    if self._entries[i].deadline_at is not None
                    else self._entries[i].enqueued_at,
                ),
            )
            chosen = set(order[: self.max_batch])
            batch = [e for i, e in enumerate(self._entries) if i in chosen]
            self._entries = [
                e for i, e in enumerate(self._entries) if i not in chosen
            ]
        for entry in batch:
            entry.taken = True
        self._running = True
        if reason == "threshold":
            self._threshold_flushes += 1
        elif reason == "linger":
            self._linger_flushes += 1
        elif reason == "deadline":
            self._deadline_flushes += 1
        else:
            self._inline_flushes += 1
        return batch

    def _due_locked(self, now: float) -> float:
        """Earliest instant the backlog must flush: the aged-oldest linger
        window, pulled forward by any entry's deadline horizon."""
        due = self._entries[0].enqueued_at + self.linger
        lead = self.deadline_lead_ms / 1e3
        for entry in self._entries:
            if entry.deadline_at is not None:
                due = min(due, entry.deadline_at - lead)
        return due

    def _run_batch(self, batch: list[_Entry]) -> None:
        games = [e.game for e in batch]
        try:
            evaluations = self.evaluator.evaluate_batch(games)
        except BaseException as err:  # propagate to every waiter
            self._open_gate(None)
            for entry in batch:
                entry.fut.set_exception(err)
            return
        self._open_gate(batch)
        for entry, ev in zip(batch, evaluations):
            entry.fut.set_result(ev)

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
    def closed(self) -> bool:
        return self._closed

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def mean_occupancy(self) -> float:
        with self._lock:
            if self._batches == 0:
                return 0.0
            return self._requests / self._batches

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
                deadline_flushes=self._deadline_flushes,
                inline_flushes=self._inline_flushes,
                max_batch_seen=self._max_batch_seen,
                busy_searches=self._busy,
                pending=len(self._entries),
            )


class BusEvaluator(Evaluator):
    """:class:`~repro.mcts.evaluation.Evaluator` facade over a shared
    :class:`EvaluationBus`.

    The scheme's singleton ``evaluate`` rides the bus (tagged with the
    thread's active budget snapshot); an already-batched
    ``evaluate_batch`` bypasses accumulation and goes straight to the
    backing evaluator.  Point a
    :class:`~repro.parallel.shared_tree.SharedTreeMCTS` at one of these
    (with N searches registered) to reproduce the paper's shared-tree +
    GPU configuration: N selection threads, full-batched inference.
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


def colocating_initializer(bus: EvaluationBus | None) -> Callable[[], None] | None:
    """A ``ThreadPoolExecutor`` initializer for a pool whose searches
    share *bus*: it pins each pool thread to the CPU the calling
    (constructing) thread runs on now.

    Returns ``None`` -- today's placement -- unless the pool shares a bus,
    ``os.sched_setaffinity`` exists, the process may use more than one
    CPU and the current CPU can be read.  Only the pool's own threads are
    pinned, never the caller.  The initializer swallows ``OSError``: an
    initializer that raises breaks the pool.
    """
    if bus is None or not hasattr(os, "sched_setaffinity"):
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
