"""The gateway's search master: one thread steps every live search.

Each move's search is the one search program
(:meth:`~repro.mcts.serial.SerialMCTS.search_program`, tree reuse's)
that yields leaf hints, flushed sub-batches and waits.  Each round the
master admits up to ``workers`` queued moves in arrival order and
resumes every live program: it skips the hints, looks each flushed row
up in the cache, and answers a wait at once when the cache holds every
row of the oldest flushed sub-batch.  Then it evaluates the round's
misses: one ``evaluate_batch`` when fusing (the Section-3.3 accelerator
batch), else one ``evaluate`` per row.  A call that raises fails exactly
the moves whose rows it carried.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Generator

from repro.games.base import Game
from repro.mcts.evaluation import Evaluation, Evaluator
from repro.mcts.serial import FLUSH, WAIT, SubBatch
from repro.serving.cache import EvaluationCache

__all__ = ["BatchCounter", "SearchMaster"]


class BatchCounter(Evaluator):
    """Counts the rows and the successful calls that reach *evaluator*;
    ``evaluate`` is a one-row ``evaluate_batch``."""

    def __init__(self, evaluator: Evaluator) -> None:
        self.evaluator = evaluator
        self.rows = self.calls = 0
        self._lock = threading.Lock()

    def evaluate(self, game: Game) -> Evaluation:
        return self.evaluate_batch([game])[0]

    def evaluate_batch(self, games: list[Game]) -> list[Evaluation]:
        rows = self.evaluator.evaluate_batch(games)
        with self._lock:
            self.rows += len(games)
            self.calls += 1
        return rows


class _Move:
    __slots__ = ("program", "future", "pipe", "reply")

    def __init__(self, program: Generator) -> None:
        self.program = program
        self.future = asyncio.get_running_loop().create_future()
        #: flushed sub-batches not yet taken back, each with its rows'
        #: evaluations (None until the cache or a call answers the row)
        self.pipe: deque[tuple[SubBatch, list[Evaluation | None]]] = deque()
        #: what the program is sent on its next step
        self.reply: tuple[SubBatch, list[Evaluation]] | None = None

    def settle(self, result=None, error: BaseException | None = None) -> None:
        """Resolve the awaiting future from the master thread."""
        try:
            self.future.get_loop().call_soon_threadsafe(
                _resolve, self.future, result, error
            )
        except RuntimeError:  # the loop has closed: nobody is left to await
            pass


def _resolve(future: asyncio.Future, result, error: BaseException | None) -> None:
    if future.done():  # the awaiter was cancelled
        return
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)


class SearchMaster:
    """Steps every live search program on one lazily started thread;
    *cache* is consulted before a leaf counts as a miss, and *fuse*
    picks one ``evaluate_batch`` per round over one call per leaf."""

    def __init__(
        self, evaluator: Evaluator, cache: EvaluationCache, *, workers: int, fuse: bool
    ) -> None:
        self.evaluator = evaluator
        self.cache = cache
        self.workers = workers
        self.fuse = fuse
        self._queue: deque[_Move] = deque()
        self._wake = threading.Condition()
        self._thread: threading.Thread | None = None
        self._closed = False

    def run(self, program: Generator) -> asyncio.Future:
        """Queue *program*; the future resolves to its return value."""
        move = _Move(program)
        with self._wake:
            if self._closed:
                raise RuntimeError("search master is closed")
            self._queue.append(move)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve, name="gateway-master", daemon=True
                )
                self._thread.start()
            self._wake.notify()
        return move.future

    async def aclose(self) -> None:
        """Refuse new programs; return once every queued and live one
        has finished or failed."""
        with self._wake:
            self._closed = True
            self._wake.notify()
        if self._thread is not None:
            await asyncio.to_thread(self._thread.join)

    def _serve(self) -> None:
        live: list[_Move] = []
        while True:
            with self._wake:
                while not live and not self._queue:
                    if self._closed:
                        return
                    self._wake.wait()
                while self._queue and len(live) < self.workers:
                    live.append(self._queue.popleft())
            live = self._evaluate([m for m in live if self._step(m)])

    def _step(self, move: _Move) -> bool:
        """Resume *move* past its hints and cache hits; True while its
        oldest flushed sub-batch waits on a miss."""
        if move.future.cancelled():
            move.program.close()
            return False
        program, pipe, cache = move.program, move.pipe, self.cache
        try:
            step = program.send(move.reply)
            while True:
                kind, payload = step
                reply = None
                if kind is FLUSH:
                    pipe.append((payload, [cache.get(g) for _, g in payload]))
                elif kind is WAIT:
                    if not all(pipe[0][1]):  # a row is still a miss (None)
                        return True
                    reply = pipe.popleft()
                step = program.send(reply)
        except StopIteration as stop:
            move.settle(stop.value)
        except Exception as err:  # noqa: BLE001 - surfaced to the awaiter
            move.settle(error=err)
        return False

    def _evaluate(self, pending: list[_Move]) -> list[_Move]:
        """Evaluate the pending misses; returns the moves that got theirs."""
        if not pending:
            return []
        ready: list[_Move] = []
        for call in [pending] if self.fuse else [[m] for m in pending]:
            misses = [
                (rows, i, game)
                for move in call
                for batch, rows in move.pipe
                for i, ((_, game), row) in enumerate(zip(batch, rows))
                if row is None
            ]
            try:
                if self.fuse:
                    fresh = self.evaluator.evaluate_batch([g for _, _, g in misses])
                else:
                    fresh = [self.evaluator.evaluate(g) for _, _, g in misses]
                for (rows, i, game), row in zip(misses, fresh):
                    self.cache.put(game, row)
                    rows[i] = row
            except Exception as err:  # noqa: BLE001 - fails this call's moves
                for move in call:
                    move.program.close()
                    move.settle(error=err)
                continue
            for move in call:
                move.reply = move.pipe.popleft()
            ready.extend(call)
        return ready
