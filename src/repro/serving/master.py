"""The gateway's search master: one thread steps every live search.

Each move's search is tree reuse's search program.  The thread is the
wall-clock driver of the master round (:class:`~repro.mcts.master.Master`):
each round it admits up to ``workers`` queued moves in arrival order,
closes the moves whose awaiter was cancelled, steps the round over the
shared evaluation cache and settles the finished moves' futures.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Generator

from repro.games.base import Game
from repro.mcts.evaluation import Evaluation, Evaluator
from repro.mcts.master import Master
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


def _resolve(future: asyncio.Future, result, error: BaseException | None) -> None:
    if future.done():  # the awaiter was cancelled
        return
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)


class SearchMaster:
    """Steps a :class:`~repro.mcts.master.Master` over every live search
    program on one lazily started thread; *cache* is consulted before a
    leaf counts as a miss, and *fuse* picks one ``evaluate_batch`` per
    round over one call per leaf."""

    def __init__(
        self, evaluator: Evaluator, cache: EvaluationCache, *, workers: int, fuse: bool
    ) -> None:
        self._round = Master(evaluator, cache, fuse=fuse)
        self.workers = workers
        #: queued moves, each a program and the future of its awaiter
        self._queue: deque[tuple[Generator, asyncio.Future]] = deque()
        self._wake = threading.Condition()
        self._thread: threading.Thread | None = None
        self._closed = False

    def run(self, program: Generator) -> asyncio.Future:
        """Queue *program*; the future resolves to its return value."""
        future = asyncio.get_running_loop().create_future()
        with self._wake:
            if self._closed:
                raise RuntimeError("search master is closed")
            self._queue.append((program, future))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve, name="gateway-master", daemon=True
                )
                self._thread.start()
            self._wake.notify()
        return future

    async def aclose(self) -> None:
        """Refuse new programs; return once every queued and live one
        has finished or failed."""
        with self._wake:
            self._closed = True
            self._wake.notify()
        if self._thread is not None:
            await asyncio.to_thread(self._thread.join)

    def _serve(self) -> None:
        live: dict[Generator, asyncio.Future] = {}
        while True:
            with self._wake:
                while not live and not self._queue:
                    if self._closed:
                        return
                    self._wake.wait()
                while self._queue and len(live) < self.workers:
                    program, future = self._queue.popleft()
                    live[program] = future
                    self._round.admit(program)
            for program, future in live.items():
                if future.cancelled():
                    program.close()  # finishes this round; resolving is a no-op
            for program, result, error in self._round.step_round():
                future = live.pop(program)
                try:
                    future.get_loop().call_soon_threadsafe(
                        _resolve, future, result, error
                    )
                except RuntimeError:  # the loop has closed: nobody awaits
                    pass
