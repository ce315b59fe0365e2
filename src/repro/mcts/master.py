"""The master round of Algorithm 3 over several search programs, with no
thread (Sections 3.1.2 and 3.3).

Each :meth:`Master.step_round` resumes every live search program
(:meth:`~repro.mcts.serial.SerialMCTS.search_program`) in admission
order: it skips the leaf hints, looks each flushed row up in the
optional cache, and answers a wait at once when the cache holds every
row of the program's oldest flushed sub-batch.  Then it evaluates the
round's misses: one ``evaluate_batch`` when fusing (the accelerator
batch), else one ``evaluate`` per row.  A call that raises fails, and
closes, exactly the programs whose rows it carried.  Root-parallel
steps rounds until its N programs finish; the gateway's
:class:`~repro.serving.master.SearchMaster` steps them on a thread.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, NamedTuple

from repro.mcts.evaluation import Evaluation, Evaluator
from repro.mcts.serial import FLUSH, WAIT, SubBatch

__all__ = ["Finished", "Master"]


class Finished(NamedTuple):
    """A program that left the master, with its return value or error."""

    program: Generator
    value: Any = None
    error: Exception | None = None


class _Run:
    __slots__ = ("program", "pipe", "reply")

    def __init__(self, program: Generator) -> None:
        self.program = program
        #: flushed sub-batches not yet taken back, each with its rows'
        #: evaluations (None until the cache or a call answers the row)
        self.pipe: deque[tuple[SubBatch, list[Evaluation | None]]] = deque()
        #: what the program is sent on its next step
        self.reply: tuple[SubBatch, list[Evaluation]] | None = None


class Master:
    """Steps admitted search programs one round at a time.

    *cache*, if given, has ``get(game)`` (an evaluation or None) and
    ``put(game, evaluation)``; *fuse* picks one ``evaluate_batch`` per
    round over one ``evaluate`` per miss.
    """

    def __init__(self, evaluator: Evaluator, cache: Any = None, *, fuse: bool) -> None:
        self.evaluator = evaluator
        self.cache = cache
        self.fuse = fuse
        self._live: list[_Run] = []

    def __len__(self) -> int:
        """The programs admitted and not yet finished."""
        return len(self._live)

    def admit(self, program: Generator) -> None:
        """Add an unstarted program; the next round starts it.  A program
        its driver closes finishes, with no value, at the next round."""
        self._live.append(_Run(program))

    def step_round(self) -> list[Finished]:
        """Resume every live program to its wait and evaluate the misses;
        returns the programs that finished, in the order they did."""
        finished: list[Finished] = []
        pending = [run for run in self._live if self._step(run, finished)]
        self._live = self._evaluate(pending, finished) if pending else []
        return finished

    def _step(self, run: _Run, finished: list[Finished]) -> bool:
        """Resume *run* past its hints and cache hits; True while its
        oldest flushed sub-batch waits on a miss."""
        program, pipe, cache = run.program, run.pipe, self.cache
        try:
            step = program.send(run.reply)
            while True:
                kind, payload = step
                reply = None
                if kind is FLUSH:
                    if cache is None:
                        pipe.append((payload, [None] * len(payload)))
                    else:
                        pipe.append((payload, [cache.get(g) for _, g in payload]))
                elif kind is WAIT:
                    if not all(pipe[0][1]):  # a row is still a miss (None)
                        return True
                    reply = pipe.popleft()
                step = program.send(reply)
        except StopIteration as stop:
            finished.append(Finished(program, stop.value))
        except Exception as err:  # noqa: BLE001 - reported to the driver
            finished.append(Finished(program, error=err))
        return False

    def _evaluate(self, pending: list[_Run], finished: list[Finished]) -> list[_Run]:
        """Evaluate the pending misses; returns the runs that got theirs."""
        ready: list[_Run] = []
        for call in [pending] if self.fuse else [[run] for run in pending]:
            misses = [
                (rows, i, game)
                for run in call
                for batch, rows in run.pipe
                for i, ((_, game), row) in enumerate(zip(batch, rows))
                if row is None
            ]
            try:
                if self.fuse:
                    fresh = self.evaluator.evaluate_batch([g for _, _, g in misses])
                else:
                    fresh = [self.evaluator.evaluate(g) for _, _, g in misses]
                for (rows, i, game), row in zip(misses, fresh):
                    if self.cache is not None:
                        self.cache.put(game, row)
                    rows[i] = row
            except Exception as err:  # noqa: BLE001 - fails this call's programs
                for run in call:
                    run.program.close()
                    finished.append(Finished(run.program, error=err))
                continue
            for run in call:
                run.reply = run.pipe.popleft()
            ready.extend(call)
        return ready
